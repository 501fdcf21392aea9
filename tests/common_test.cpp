#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace pc = pipette::common;

TEST(Rng, DeterministicForSameSeed) {
  pc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  pc::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentOfParentAdvance) {
  pc::Rng a(7);
  pc::Rng child1 = a.fork(3);
  a.next_u64();  // advancing the parent must not change fork results
  pc::Rng a2(7);
  pc::Rng child2 = a2.fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForkStreamsDecorrelated) {
  pc::Rng a(7);
  pc::Rng c1 = a.fork(1), c2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += c1.next_u64() == c2.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  pc::Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  pc::Rng r(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  pc::Rng r(8);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = r.normal(2.0, 3.0);
  EXPECT_NEAR(pc::mean(xs), 2.0, 0.1);
  EXPECT_NEAR(pc::stddev(xs), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  pc::Rng r(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  pc::Rng r(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pc::mean(xs), 2.5);
  EXPECT_NEAR(pc::stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(pc::mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MapeBasic) {
  std::vector<double> est{110, 90};
  std::vector<double> act{100, 100};
  EXPECT_NEAR(pc::mape_percent(est, act), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsZeroActual) {
  std::vector<double> est{110, 5};
  std::vector<double> act{100, 0};
  EXPECT_NEAR(pc::mape_percent(est, act), 10.0, 1e-12);
}

TEST(Stats, MapeSizeMismatchThrows) {
  std::vector<double> a{1.0}, b{1.0, 2.0};
  EXPECT_THROW(pc::mape_percent(a, b), std::invalid_argument);
}

TEST(Stats, QuantileKnownValues) {
  std::vector<double> xs{4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(pc::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pc::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(pc::quantile(xs, 0.5), 2.5);
}

TEST(Stats, QuantilesBatchMatchesSingle) {
  std::vector<double> xs{5, 9, 1, 7, 3};
  std::vector<double> qs{0.0, 0.25, 0.5, 0.75, 1.0};
  const auto batch = pc::quantiles(xs, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], pc::quantile(xs, qs[i]));
  }
}

TEST(Stats, QuantileEmptyThrows) {
  std::vector<double> xs;
  EXPECT_THROW(pc::quantile(xs, 0.5), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs{1, 2, 3, 4}, ys;
  for (double x : xs) ys.push_back(3.0 + 2.0 * x);
  const auto f = pc::linear_fit(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, DivisorsOfTwelve) {
  EXPECT_EQ(pc::divisors(12), (std::vector<int>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(pc::divisors(1), (std::vector<int>{1}));
  EXPECT_EQ(pc::divisors(128).size(), 8u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(pc::Gbps(100.0), 12.5e9);
  EXPECT_DOUBLE_EQ(pc::GBps(300.0), 300e9);
  EXPECT_DOUBLE_EQ(pc::TFLOPS(1.0), 1e12);
  EXPECT_DOUBLE_EQ(pc::to_GiB(pc::GiB(4.0)), 4.0);
  EXPECT_DOUBLE_EQ(pc::msec(2.0), 0.002);
}

TEST(Table, AlignsAndCounts) {
  pc::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  pc::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvRoundTrip) {
  pc::Table t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = testing::TempDir() + "/pipette_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x,y");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Table, Formatters) {
  EXPECT_EQ(pc::fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pc::fmt_count(3.1e9), "3.1B");
  EXPECT_EQ(pc::fmt_count(774e6), "774M");
  EXPECT_EQ(pc::fmt_duration(0.5), "500.00 ms");
  EXPECT_EQ(pc::fmt_duration(90.0), "90.00 s");
}

TEST(Backoff, SleepsAreFiniteNonDecreasingAndCapped) {
  // Past about 70 doublings the uncapped sleep overflows sleep_for's integer
  // seconds, and past about 1,030 it is infinite.
  for (const double base : {0.0, 0.01, 0.02, 1.0}) {
    for (const double jitter : {0.5, 1.0, 1.5}) {
      double prev = 0.0;
      for (const int attempt : {0, 1, 40, 70, 1000}) {
        const double s = pc::backoff_s(base, attempt, jitter);
        EXPECT_TRUE(std::isfinite(s)) << base << " x" << jitter << " attempt " << attempt;
        EXPECT_GE(s, prev) << base << " x" << jitter << " attempt " << attempt;
        EXPECT_LE(s, pc::kMaxBackoffS) << base << " x" << jitter << " attempt " << attempt;
        prev = s;
      }
    }
  }
  // Below the cap the sleep is the plain jittered doubling.
  EXPECT_EQ(pc::backoff_s(0.01, 0, 1.0), 0.01);
  EXPECT_EQ(pc::backoff_s(0.01, 2, 0.5), 0.02);
  EXPECT_EQ(pc::backoff_s(0.01, 70, 0.5), pc::kMaxBackoffS);
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--gamma", "--name", "mid"};
  pc::Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("gamma", false));
  EXPECT_EQ(cli.get_string("name", ""), "mid");
  EXPECT_EQ(cli.get_int("missing", 9), 9);
}

TEST(Cli, FirstUnknownDetectsTypos) {
  const char* argv[] = {"prog", "--good", "--oops"};
  pc::Cli cli(3, argv);
  const auto unknown = cli.first_unknown({"good"});
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(*unknown, "oops");
  EXPECT_FALSE(cli.first_unknown({"good", "oops"}).has_value());
}

namespace lane_ops {

// Every lane op over one register of `a` and `b`, stored in turn to
// out[0, 7 * kLanes): a + b, a - b, a * b, a / b, sqrt(b), relu(a) and
// zero_where_nonpositive(a, b). Lane4's ops are AVX2 code, so each lane type
// gets its own copy of this body, compiled for its instruction set.
#define PIPETTE_APPLY_LANE_OPS                                  \
  template <class Lane>                                         \
  void apply(const double* a, const double* b, double* out) {   \
    constexpr int n = Lane::kLanes;                             \
    const Lane la = Lane::load(a), lb = Lane::load(b);          \
    (la + lb).store(out);                                       \
    (la - lb).store(out + n);                                   \
    (la * lb).store(out + 2 * n);                               \
    (la / lb).store(out + 3 * n);                               \
    Lane::sqrt(lb).store(out + 4 * n);                          \
    Lane::relu(la).store(out + 5 * n);                          \
    Lane::zero_where_nonpositive(la, lb).store(out + 6 * n);    \
  }

namespace base {
PIPETTE_APPLY_LANE_OPS
}  // namespace base
#if defined(PIPETTE_SIMD_AVX2)
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
PIPETTE_APPLY_LANE_OPS
}  // namespace avx2
#pragma GCC pop_options
#endif
#undef PIPETTE_APPLY_LANE_OPS

struct LaneType {
  const char* isa;
  int lanes;
  void (*apply)(const double* a, const double* b, double* out);
};

/// Every lane type this CPU runs.
std::vector<LaneType> runnable() {
  std::vector<LaneType> types;
#if defined(PIPETTE_SIMD_SSE2)
  using pc::simd::Lane2;
  types.push_back({Lane2::kIsa, Lane2::kLanes, base::apply<Lane2>});
#else
  using pc::simd::Lane1;
  types.push_back({Lane1::kIsa, Lane1::kLanes, base::apply<Lane1>});
#endif
#if defined(PIPETTE_SIMD_AVX2)
  using pc::simd::Lane4;
  if (__builtin_cpu_supports("avx2")) {
    types.push_back({Lane4::kIsa, Lane4::kLanes, avx2::apply<Lane4>});
  }
#endif
  return types;
}

bool same_bytes(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

}  // namespace lane_ops

TEST(Simd, IsaNameMatchesCompiledLaneWidth) {
#if defined(PIPETTE_SIMD_SSE2)
  EXPECT_EQ(pc::simd::Lane2::kLanes, 2);
  EXPECT_STREQ(pc::simd::Lane2::kIsa, "sse2");
#else
  EXPECT_EQ(pc::simd::Lane1::kLanes, 1);
  EXPECT_STREQ(pc::simd::Lane1::kIsa, "scalar");
#endif
#if defined(PIPETTE_SIMD_AVX2)
  EXPECT_EQ(pc::simd::Lane4::kLanes, 4);
  EXPECT_STREQ(pc::simd::Lane4::kIsa, "avx2");
#endif
}

TEST(Simd, LaneOpsAreElementwiseExact) {
  // Every lane type the CPU runs computes each element's scalar op, byte for
  // byte: signed zeros, an infinite quotient and NaN included. relu and
  // zero_where_nonpositive keep -0.0 and NaN where the scalar branch does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {3.0, -2.5, -0.0, 0.0, nan, 7.25, -1e-300, 1e300};
  const std::vector<double> b = {7.0, 0.5, 3.0, 2.0, 1.5, -0.0, 4.0, 0.25};
  for (const lane_ops::LaneType& lt : lane_ops::runnable()) {
    SCOPED_TRACE(lt.isa);
    const auto n = static_cast<std::size_t>(lt.lanes);
    for (std::size_t i0 = 0; i0 < a.size(); i0 += n) {
      std::vector<double> out(7 * n);
      lt.apply(a.data() + i0, b.data() + i0, out.data());
      for (std::size_t l = 0; l < n; ++l) {
        const double x = a[i0 + l], y = b[i0 + l];
        SCOPED_TRACE("element " + std::to_string(i0 + l));
        EXPECT_TRUE(lane_ops::same_bytes(out[l], x + y));
        EXPECT_TRUE(lane_ops::same_bytes(out[n + l], x - y));
        EXPECT_TRUE(lane_ops::same_bytes(out[2 * n + l], x * y));
        EXPECT_TRUE(lane_ops::same_bytes(out[3 * n + l], x / y));
        EXPECT_TRUE(lane_ops::same_bytes(out[4 * n + l], std::sqrt(y)));
        EXPECT_TRUE(lane_ops::same_bytes(out[5 * n + l], x < 0.0 ? 0.0 : x));
        EXPECT_TRUE(lane_ops::same_bytes(out[6 * n + l], x <= 0.0 ? 0.0 : y));
      }
    }
  }
}
