#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "cluster/profiler.h"
#include "cluster/sanitizer.h"
#include "cluster/topology.h"
#include "common/hashing.h"
#include "common/units.h"
#include "engine/faults.h"

namespace pcl = pipette::cluster;
namespace pco = pipette::common;

namespace {

/// A fully healthy matrix with distinct per-reading values, so tests can tell
/// exactly which donor a repair came from.
pcl::BandwidthMatrix healthy_matrix(int nn, int gpn) {
  pcl::BandwidthMatrix m(nn, gpn);
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 != n2) m.set_inter(n1, n2, 1e10 + 1e8 * (n1 * nn + n2));
    }
  }
  for (int n = 0; n < nn; ++n) {
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a != b) m.set_intra(n, a, b, 3e11 + 1e9 * (a * gpn + b));
      }
    }
  }
  return m;
}

}  // namespace

TEST(ClusterSpec, TableOnePresets) {
  const auto mid = pcl::mid_range_cluster();
  EXPECT_EQ(mid.num_nodes, 16);
  EXPECT_EQ(mid.gpus_per_node, 8);
  EXPECT_EQ(mid.num_gpus(), 128);
  EXPECT_DOUBLE_EQ(mid.inter_node.bandwidth_Bps, pco::Gbps(100.0));  // Infiniband EDR
  EXPECT_DOUBLE_EQ(mid.intra_node.bandwidth_Bps, pco::GBps(300.0));  // NVLink
  EXPECT_EQ(mid.gpu, pcl::GpuKind::V100);

  const auto high = pcl::high_end_cluster(8);
  EXPECT_EQ(high.num_gpus(), 64);
  EXPECT_DOUBLE_EQ(high.inter_node.bandwidth_Bps, pco::Gbps(200.0));  // Infiniband HDR
  EXPECT_DOUBLE_EQ(high.intra_node.bandwidth_Bps, pco::GBps(600.0));  // NVSwitch
  EXPECT_EQ(high.gpu, pcl::GpuKind::A100);
  EXPECT_GT(high.gpu_memory_bytes, mid.gpu_memory_bytes);
}

TEST(Topology, NodeOfAndSameNode) {
  pcl::Topology t(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 1);
  EXPECT_EQ(t.num_gpus(), 16);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_TRUE(t.same_node(0, 7));
  EXPECT_FALSE(t.same_node(7, 8));
}

TEST(Topology, HomogeneousAttainsSpec) {
  auto t = pcl::Topology::homogeneous(pcl::mid_range_cluster(2));
  EXPECT_DOUBLE_EQ(t.bandwidth(0, 1), t.spec().intra_node.bandwidth_Bps);
  EXPECT_DOUBLE_EQ(t.bandwidth(0, 8), t.spec().inter_node.bandwidth_Bps);
}

TEST(Topology, SelfBandwidthInfinite) {
  auto t = pcl::Topology::homogeneous(pcl::mid_range_cluster(1));
  EXPECT_TRUE(std::isinf(t.bandwidth(3, 3)));
  EXPECT_DOUBLE_EQ(t.latency(3, 3), 0.0);
}

class TopologyHeterogeneity : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyHeterogeneity, AttainedFractionWithinConfiguredBounds) {
  pcl::HeterogeneityOptions het;
  pcl::Topology t(pcl::mid_range_cluster(4), het, GetParam());
  const double spec_inter = t.spec().inter_node.bandwidth_Bps;
  for (int g1 = 0; g1 < t.num_gpus(); g1 += 3) {
    for (int g2 = 0; g2 < t.num_gpus(); g2 += 5) {
      if (g1 == g2) continue;
      const double frac = t.bandwidth(g1, g2) / t.spec_bandwidth(g1, g2);
      if (t.same_node(g1, g2)) {
        EXPECT_GT(frac, 0.6);
        EXPECT_LE(frac, 1.0);
      } else {
        // Slow-pair factor can push below inter_min by design; daily drift
        // never applies at day 0.
        EXPECT_GE(frac, het.inter_min * het.slow_pair_factor - 1e-9);
        EXPECT_LE(frac, het.inter_max + 1e-9);
      }
      EXPECT_GT(t.bandwidth(g1, g2), 0.0);
      EXPECT_LT(t.bandwidth(g1, g2), spec_inter * 1e6);
    }
  }
}

TEST_P(TopologyHeterogeneity, InterNodeLinksActuallyVary) {
  pcl::Topology t(pcl::mid_range_cluster(8), pcl::HeterogeneityOptions{}, GetParam());
  double lo = 1e300, hi = 0.0;
  for (int n1 = 0; n1 < 8; ++n1) {
    for (int n2 = 0; n2 < 8; ++n2) {
      if (n1 == n2) continue;
      const double b = t.bandwidth(n1 * 8, n2 * 8);
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
  }
  EXPECT_GT(hi / lo, 1.2) << "heterogeneity model produced a nearly flat fabric";
}

TEST_P(TopologyHeterogeneity, NearlySymmetricBidirectionalBandwidth) {
  // The paper's reverse move is motivated by near-symmetric links.
  pcl::Topology t(pcl::mid_range_cluster(8), pcl::HeterogeneityOptions{}, GetParam());
  for (int n1 = 0; n1 < 8; ++n1) {
    for (int n2 = n1 + 1; n2 < 8; ++n2) {
      const double f = t.bandwidth(n1 * 8, n2 * 8);
      const double b = t.bandwidth(n2 * 8, n1 * 8);
      EXPECT_NEAR(f / b, 1.0, 0.15);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyHeterogeneity, testing::Values(1, 2, 3, 17, 2024));

TEST(Topology, DeterministicInSeed) {
  pcl::Topology a(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 99);
  pcl::Topology b(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 99);
  for (int g1 = 0; g1 < 32; g1 += 7) {
    for (int g2 = 0; g2 < 32; g2 += 5) {
      if (g1 != g2) {
        EXPECT_DOUBLE_EQ(a.bandwidth(g1, g2), b.bandwidth(g1, g2));
      }
    }
  }
}

TEST(Topology, DayDriftBoundedAndMeanReverting) {
  pcl::HeterogeneityOptions het;
  pcl::Topology t(pcl::high_end_cluster(8), het, 7);
  const double base = t.bandwidth(0, 8);
  for (int day = 1; day <= 40; ++day) {
    t.advance_day();
    const double b = t.bandwidth(0, 8);
    EXPECT_GE(b, base * (1.0 - het.daily_clamp) / (1.0 + 1e-9));
    EXPECT_LE(b, base * (1.0 + het.daily_clamp) * (1.0 + 1e-9));
  }
  EXPECT_EQ(t.day(), 40);
}

TEST(Topology, SubClusterSharesLinkState) {
  pcl::Topology full(pcl::mid_range_cluster(16), pcl::HeterogeneityOptions{}, 31);
  const auto sub = full.sub_cluster(4);
  EXPECT_EQ(sub.num_gpus(), 32);
  for (int g1 = 0; g1 < 32; g1 += 3) {
    for (int g2 = 0; g2 < 32; g2 += 7) {
      if (g1 != g2) {
        EXPECT_DOUBLE_EQ(sub.bandwidth(g1, g2), full.bandwidth(g1, g2));
      }
    }
  }
}

TEST(Profiler, MeasurementAccuracyAndAccounting) {
  pcl::Topology t(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 11);
  pcl::ProfileOptions opt;
  const auto res = pcl::profile_network(t, opt);
  EXPECT_GT(res.wall_time_s, 0.0);
  EXPECT_GT(res.num_measurements, 0);
  // Averaged noisy measurements must sit close to the truth.
  for (int n1 = 0; n1 < 4; ++n1) {
    for (int n2 = 0; n2 < 4; ++n2) {
      if (n1 == n2) continue;
      const double truth = t.bandwidth(n1 * 8, n2 * 8);
      const double meas = res.bw.at(n1 * 8, n2 * 8);
      EXPECT_NEAR(meas / truth, 1.0, 0.08);
    }
  }
}

TEST(Profiler, NodeLevelResolutionAppliesAcrossGpuPairs) {
  pcl::Topology t(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 12);
  const auto res = pcl::profile_network(t, {});
  // All GPU pairs across the same node pair share one measured value.
  EXPECT_DOUBLE_EQ(res.bw.at(0, 8), res.bw.at(3, 12));
  EXPECT_DOUBLE_EQ(res.bw.at(0, 8), res.bw.at(7, 15));
}

TEST(Profiler, WallTimeScalesWithNodeCount) {
  pcl::Topology t4(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 13);
  pcl::Topology t8(pcl::mid_range_cluster(8), pcl::HeterogeneityOptions{}, 13);
  const double w4 = pcl::profile_network(t4, {}).wall_time_s;
  const double w8 = pcl::profile_network(t8, {}).wall_time_s;
  EXPECT_GT(w8, 2.0 * w4);  // ordered pairs grow ~quadratically
}

TEST(Profiler, DeterministicInSeed) {
  pcl::Topology t(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 14);
  const auto a = pcl::profile_network(t, {});
  const auto b = pcl::profile_network(t, {});
  EXPECT_DOUBLE_EQ(a.bw.at(0, 8), b.bw.at(0, 8));
}

TEST(Topology, FingerprintIdentifiesTheCluster) {
  pcl::Topology a(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 14);
  pcl::Topology same(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 14);
  EXPECT_EQ(a.fingerprint(), same.fingerprint());

  pcl::Topology other_seed(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 15);
  EXPECT_NE(a.fingerprint(), other_seed.fingerprint());
  pcl::Topology other_size(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 14);
  EXPECT_NE(a.fingerprint(), other_size.fingerprint());
  pcl::HeterogeneityOptions het;
  het.inter_mean += 0.01;
  pcl::Topology other_het(pcl::mid_range_cluster(2), het, 14);
  EXPECT_NE(a.fingerprint(), other_het.fingerprint());
}

TEST(Topology, FingerprintTracksTheDay) {
  pcl::Topology t(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 14);
  const auto day0 = t.fingerprint();
  t.advance_day();
  EXPECT_NE(t.fingerprint(), day0) << "a profile from yesterday must not be reused today";
}

TEST(Topology, FingerprintDistinguishesSubClusterFromDirectBuild) {
  // sub_cluster() slices link factors out of the parent's larger RNG draw, so
  // it attains different bandwidths than a directly built same-spec cluster;
  // their fingerprints must differ or a cache would mix up their profiles.
  pcl::Topology parent(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 2024);
  pcl::Topology direct(pcl::mid_range_cluster(3), pcl::HeterogeneityOptions{}, 2024);
  const auto sliced = parent.sub_cluster(3);
  ASSERT_NE(sliced.bandwidth(8, 16), direct.bandwidth(8, 16));
  EXPECT_NE(sliced.fingerprint(), direct.fingerprint());
  EXPECT_EQ(sliced.fingerprint(), parent.sub_cluster(3).fingerprint());
}

TEST(Sanitizer, CleanMatrixIsABitExactNoOp) {
  auto m = healthy_matrix(3, 2);
  const auto before = m;
  const auto rep = pcl::sanitize_bandwidth(m);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.total_readings, 3 * 2 + 3 * 2 * 1);
  EXPECT_EQ(rep.repaired_readings(), 0);
  EXPECT_TRUE(rep.repaired_node_pairs.empty());
  for (int g1 = 0; g1 < 6; ++g1) {
    for (int g2 = 0; g2 < 6; ++g2) {
      EXPECT_EQ(m.at(g1, g2), before.at(g1, g2)) << g1 << "->" << g2;
    }
  }
}

TEST(Sanitizer, NanReadingImputedFromTheSymmetricBlock) {
  auto m = healthy_matrix(3, 2);
  const double reverse = m.at(1 * 2, 0 * 2);
  m.set_inter(0, 1, std::numeric_limits<double>::quiet_NaN());
  const auto rep = pcl::sanitize_bandwidth(m);
  EXPECT_EQ(rep.repaired_nonfinite, 1);
  EXPECT_EQ(rep.imputed_symmetric, 1);
  EXPECT_TRUE(rep.quarantined_nodes.empty());
  // The whole GPU block takes the reverse-direction reading.
  EXPECT_DOUBLE_EQ(m.at(0, 2), reverse);
  EXPECT_DOUBLE_EQ(m.at(1, 3), reverse);
  ASSERT_EQ(rep.repaired_node_pairs.size(), 1u);
  EXPECT_EQ(rep.repaired_node_pairs[0], std::make_pair(0, 1));
}

TEST(Sanitizer, BidirectionallyBadLinkFallsBackToNeighborMedian) {
  auto m = healthy_matrix(4, 2);
  m.set_inter(0, 1, 0.0);
  m.set_inter(1, 0, -5.0);
  const auto rep = pcl::sanitize_bandwidth(m);
  EXPECT_EQ(rep.repaired_nonpositive, 2);
  EXPECT_EQ(rep.imputed_symmetric, 0) << "the reverse reading is bad too";
  EXPECT_EQ(rep.imputed_neighbor, 2);
  EXPECT_TRUE(rep.quarantined_nodes.empty());
  EXPECT_TRUE(std::isfinite(m.at(0, 2)));
  EXPECT_GT(m.at(0, 2), 0.0);
  EXPECT_TRUE(std::isfinite(m.at(2, 0)));
  EXPECT_GT(m.at(2, 0), 0.0);
}

TEST(Sanitizer, UnreachableNodeIsQuarantinedToTheFloor) {
  auto m = healthy_matrix(4, 2);
  for (int n = 0; n < 4; ++n) {
    if (n == 2) continue;
    m.set_inter(2, n, std::numeric_limits<double>::quiet_NaN());
    m.set_inter(n, 2, 0.0);
  }
  const double before_03 = m.at(0, 2 * 3);  // healthy link 0 -> 3, untouched
  const auto rep = pcl::sanitize_bandwidth(m);
  ASSERT_EQ(rep.quarantined_nodes, std::vector<int>{2});
  EXPECT_EQ(rep.imputed_floor, 6) << "quarantined links are floored, never imputed";
  for (int n = 0; n < 4; ++n) {
    if (n == 2) continue;
    EXPECT_DOUBLE_EQ(m.at(2 * 2, n * 2), pcl::kFloorBw);
    EXPECT_DOUBLE_EQ(m.at(n * 2, 2 * 2), pcl::kFloorBw);
  }
  EXPECT_EQ(m.at(0, 2 * 3), before_03) << "healthy readings must never be touched";
}

TEST(Sanitizer, IntraRepairsUseSymmetricThenNodeMedian) {
  auto m = healthy_matrix(2, 4);  // GPUs 0..3 are node 0
  const double reverse = m.at(1, 0);
  m.set_intra(0, 0, 1, std::numeric_limits<double>::infinity());
  m.set_intra(0, 2, 3, -1.0);
  m.set_intra(0, 3, 2, 0.0);
  const auto rep = pcl::sanitize_bandwidth(m);
  EXPECT_EQ(rep.repaired_nonfinite, 1);
  EXPECT_EQ(rep.repaired_nonpositive, 2);
  EXPECT_EQ(rep.imputed_symmetric, 1);
  EXPECT_EQ(rep.imputed_neighbor, 2);
  EXPECT_DOUBLE_EQ(m.at(0, 1), reverse);
  EXPECT_TRUE(std::isfinite(m.at(2, 3)));
  EXPECT_GT(m.at(2, 3), 0.0);
  // Intra repairs are accounted as a single (n, n) node-pair entry.
  ASSERT_EQ(rep.repaired_node_pairs.size(), 1u);
  EXPECT_EQ(rep.repaired_node_pairs[0], std::make_pair(0, 0));
}

TEST(Profiler, ExtremeNoiseNeverProducesNonPositiveReadings) {
  // At noise_sigma = 5 most multiplicative draws land below -1; the clamp at a
  // small positive floor must keep every reading usable without any repair.
  pcl::Topology t(pcl::mid_range_cluster(2), pcl::HeterogeneityOptions{}, 21);
  pcl::ProfileOptions opt;
  opt.noise_sigma = 5.0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 17ull}) {
    opt.seed = seed;
    const auto res = pcl::profile_network(t, opt);
    EXPECT_TRUE(res.sanitize.clean()) << "the clamp, not the sanitizer, owns noise";
    for (int g1 = 0; g1 < 16; ++g1) {
      for (int g2 = 0; g2 < 16; ++g2) {
        if (g1 == g2) continue;
        EXPECT_TRUE(std::isfinite(res.bw.at(g1, g2))) << "seed " << seed;
        EXPECT_GT(res.bw.at(g1, g2), 0.0) << "seed " << seed;
      }
    }
  }
}

namespace {

/// Folds `at(g1, g2)` over every ordered GPU pair, self-pairs included.
std::uint64_t digest_matrix(std::uint64_t h, const pcl::BandwidthMatrix& m) {
  for (int g1 = 0; g1 < m.num_gpus(); ++g1) {
    for (int g2 = 0; g2 < m.num_gpus(); ++g2) h = pco::hash_combine(h, m.at(g1, g2));
  }
  return h;
}

/// Folds the whole ProfileResult: the matrix, the run accounting, and every
/// SanitizeReport field.
std::uint64_t digest_profile(const pcl::ProfileResult& r) {
  using pco::hash_combine;
  std::uint64_t h = digest_matrix(0, r.bw);
  h = hash_combine(h, r.wall_time_s);
  h = hash_combine(h, static_cast<std::uint64_t>(r.num_measurements));
  const pcl::SanitizeReport& s = r.sanitize;
  for (const int v : {s.total_readings, s.repaired_nonfinite, s.repaired_nonpositive,
                      s.imputed_symmetric, s.imputed_neighbor, s.imputed_floor}) {
    h = hash_combine(h, static_cast<std::uint64_t>(v));
  }
  h = hash_combine(h, static_cast<std::uint64_t>(s.quarantined_nodes.size()));
  for (const int n : s.quarantined_nodes) h = hash_combine(h, static_cast<std::uint64_t>(n));
  h = hash_combine(h, static_cast<std::uint64_t>(s.repaired_node_pairs.size()));
  for (const auto& [a, b] : s.repaired_node_pairs) {
    h = hash_combine(h, static_cast<std::uint64_t>(a));
    h = hash_combine(h, static_cast<std::uint64_t>(b));
  }
  return h;
}

}  // namespace

TEST(Profiler, GoldenProfileDigests) {
  // Pins profile_network bit for bit: every ordered GPU pair of the sanitized
  // snapshot, the run's wall time and measurement count, and the whole
  // SanitizeReport, plus Topology::true_matrix() of the same fabric. Fabric
  // rows cover both Table I clusters at 2, 4 and 32 nodes (32 nodes = 256
  // GPUs); fault rows run the 4-node mid-range fabric under one seeded
  // schedule of each fault kind that reaches the snapshot, so every
  // inter-node repair path of the sanitizer is exercised. The values were
  // recorded by running this test. A change meant to keep the profile
  // bit-identical must leave the table alone.
  struct Fabric {
    bool high_end;
    int nodes;
    std::uint64_t profile;
    std::uint64_t truth;
  };
  const Fabric fabrics[] = {
      {false, 2, 0x2693f8e5fb8564e0ull, 0x58bed928b8f04eefull},
      {false, 4, 0xc862c4770f79d6f8ull, 0x45faee51e5494d00ull},
      {false, 32, 0x7f9c5e12136494f8ull, 0xb3a0281c02625268ull},
      {true, 2, 0xdd12872e87a2470dull, 0xa108b8edad500e07ull},
      {true, 4, 0x86a05713eb31087aull, 0xd9fb5489b2b840d7ull},
      {true, 32, 0x48b369276dc93e46ull, 0xa2047b92ec88b85cull},
  };
  for (const Fabric& f : fabrics) {
    const pcl::ClusterSpec spec =
        f.high_end ? pcl::high_end_cluster(f.nodes) : pcl::mid_range_cluster(f.nodes);
    const pcl::Topology topo(spec, pcl::HeterogeneityOptions{}, 2024);
    const std::uint64_t profile = digest_profile(pcl::profile_network(topo, {}));
    const std::uint64_t truth = digest_matrix(0, topo.true_matrix());
    char row[160];
    std::snprintf(row, sizeof row, "%s x%d: 0x%016llxull, 0x%016llxull", spec.name.c_str(),
                  f.nodes, static_cast<unsigned long long>(profile),
                  static_cast<unsigned long long>(truth));
    EXPECT_EQ(profile, f.profile) << row;
    EXPECT_EQ(truth, f.truth) << row;
  }

  struct Faulted {
    pipette::engine::FaultKind kind;
    std::uint64_t profile;
  };
  using pipette::engine::FaultKind;
  // A dead link reads 0 and a negative one -truth: both are non-positive and
  // take the same symmetric repair, so their rows agree.
  const Faulted faulted[] = {
      {FaultKind::kDeadLink, 0x27fa879736140027ull},
      {FaultKind::kDegradedLink, 0x01d59968417c3f53ull},
      {FaultKind::kNanLink, 0x9a32ac72a35e6622ull},
      {FaultKind::kNegativeLink, 0x27fa879736140027ull},
      {FaultKind::kPartialCoverage, 0x4cb8eb838860bfe1ull},
      {FaultKind::kDeadNode, 0xa063e361b9c3365bull},
      {FaultKind::kStragglerRound, 0x2a70d873203773e8ull},
  };
  const pcl::Topology topo(pcl::mid_range_cluster(4), pcl::HeterogeneityOptions{}, 2024);
  pcl::SanitizeReport seen;  // per-field sums over the fault rows
  for (const Faulted& f : faulted) {
    pipette::engine::FaultOptions fo;
    fo.enabled = true;
    fo.seed = 19;
    fo.kind = f.kind;
    pipette::engine::FaultInjector injector(fo);
    pcl::ProfileOptions po;
    po.faults = &injector;
    const auto res = pcl::profile_network(topo, po);
    const std::uint64_t profile = digest_profile(res);
    EXPECT_EQ(profile, f.profile)
        << pipette::engine::to_string(f.kind) << ": 0x" << std::hex << profile << "ull";
    seen.repaired_nonfinite += res.sanitize.repaired_nonfinite;
    seen.repaired_nonpositive += res.sanitize.repaired_nonpositive;
    seen.imputed_symmetric += res.sanitize.imputed_symmetric;
    seen.imputed_neighbor += res.sanitize.imputed_neighbor;
    seen.imputed_floor += res.sanitize.imputed_floor;
    seen.quarantined_nodes.insert(seen.quarantined_nodes.end(),
                                  res.sanitize.quarantined_nodes.begin(),
                                  res.sanitize.quarantined_nodes.end());
  }
  EXPECT_GT(seen.repaired_nonfinite, 0);
  EXPECT_GT(seen.repaired_nonpositive, 0);
  EXPECT_GT(seen.imputed_symmetric, 0);
  EXPECT_GT(seen.imputed_neighbor, 0);
  EXPECT_GT(seen.imputed_floor, 0);
  EXPECT_FALSE(seen.quarantined_nodes.empty());
}
