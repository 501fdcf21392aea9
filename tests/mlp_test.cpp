// The MLP library behind the memory estimator: kernel and network
// correctness, and the bit-identity contract of the tiled kernels at every
// lane width the CPU runs. The historical naive kernels and the Network
// training loop built on them are kept below, verbatim, as the test-only
// reference the tiled code must match byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/stats.h"
#include "mlp/matrix.h"
#include "mlp/network.h"
#include "mlp/regressor.h"

using namespace pipette::mlp;

// Heap allocations made on this process, for the allocation-free predict
// test. Replacing the global operators is the only portable way to see them.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// GCC flags free() on operator new's pointers; these replacements own both.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace reference {

// ---- The historical kernels, verbatim. ----

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aki * b(k, j);
    }
  }
  return c;
}

// ---- The historical Network forward / loss_and_grad / adam_step, verbatim,
// over layers loaded from a Network's flat parameters(). ----

class Net {
 public:
  Net(const std::vector<int>& sizes, const std::vector<double>& flat) {
    std::size_t pos = 0;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
      const int in = sizes[l], out = sizes[l + 1];
      Layer layer;
      layer.w = Matrix(out, in);
      for (auto& w : layer.w.data()) w = flat[pos++];
      layer.b.assign(static_cast<std::size_t>(out), 0.0);
      for (auto& b : layer.b) b = flat[pos++];
      layer.gw = Matrix(out, in);
      layer.gb.assign(static_cast<std::size_t>(out), 0.0);
      layer.mw = Matrix(out, in);
      layer.vw = Matrix(out, in);
      layer.mb.assign(static_cast<std::size_t>(out), 0.0);
      layer.vb.assign(static_cast<std::size_t>(out), 0.0);
      layers_.push_back(std::move(layer));
    }
  }

  Matrix forward(const Matrix& x) const {
    Matrix a = x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      Matrix z = matmul_bt(a, layers_[l].w);  // (n x out)
      for (int i = 0; i < z.rows(); ++i) {
        for (int j = 0; j < z.cols(); ++j) {
          z(i, j) += layers_[l].b[static_cast<std::size_t>(j)];
          if (l + 1 < layers_.size() && z(i, j) < 0.0) z(i, j) = 0.0;  // ReLU on hidden
        }
      }
      a = std::move(z);
    }
    return a;
  }

  double loss_and_grad(const Matrix& x, const Matrix& y_target) {
    const int n = x.rows();
    std::vector<Matrix> acts;
    acts.reserve(layers_.size() + 1);
    acts.push_back(x);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      Matrix z = matmul_bt(acts.back(), layers_[l].w);
      for (int i = 0; i < z.rows(); ++i) {
        for (int j = 0; j < z.cols(); ++j) {
          z(i, j) += layers_[l].b[static_cast<std::size_t>(j)];
          if (l + 1 < layers_.size() && z(i, j) < 0.0) z(i, j) = 0.0;
        }
      }
      acts.push_back(std::move(z));
    }
    const Matrix& out = acts.back();
    double loss = 0.0;
    Matrix delta(out.rows(), out.cols());
    for (int i = 0; i < out.rows(); ++i) {
      for (int j = 0; j < out.cols(); ++j) {
        const double diff = out(i, j) - y_target(i, j);
        loss += diff * diff;
        delta(i, j) = 2.0 * diff / n;
      }
    }
    loss /= n;
    for (int l = static_cast<int>(layers_.size()) - 1; l >= 0; --l) {
      Layer& layer = layers_[static_cast<std::size_t>(l)];
      const Matrix& a_in = acts[static_cast<std::size_t>(l)];
      layer.gw = matmul_at(delta, a_in);  // (out x in)
      for (int j = 0; j < static_cast<int>(layer.gb.size()); ++j) {
        double s = 0.0;
        for (int i = 0; i < delta.rows(); ++i) s += delta(i, j);
        layer.gb[static_cast<std::size_t>(j)] = s;
      }
      if (l > 0) {
        Matrix next = matmul(delta, layer.w);  // (n x in)
        const Matrix& mask = acts[static_cast<std::size_t>(l)];
        for (int i = 0; i < next.rows(); ++i) {
          for (int j = 0; j < next.cols(); ++j) {
            if (mask(i, j) <= 0.0) next(i, j) = 0.0;
          }
        }
        delta = std::move(next);
      }
    }
    return loss;
  }

  void adam_step(const AdamOptions& opt) {
    ++adam_t_;
    const double bc1 = 1.0 - std::pow(opt.beta1, static_cast<double>(adam_t_));
    const double bc2 = 1.0 - std::pow(opt.beta2, static_cast<double>(adam_t_));
    for (auto& layer : layers_) {
      auto w = layer.w.data();
      auto gw = layer.gw.data();
      auto mw = layer.mw.data();
      auto vw = layer.vw.data();
      for (std::size_t i = 0; i < w.size(); ++i) {
        mw[i] = opt.beta1 * mw[i] + (1.0 - opt.beta1) * gw[i];
        vw[i] = opt.beta2 * vw[i] + (1.0 - opt.beta2) * gw[i] * gw[i];
        w[i] -= opt.lr * (mw[i] / bc1) / (std::sqrt(vw[i] / bc2) + opt.eps);
      }
      for (std::size_t i = 0; i < layer.b.size(); ++i) {
        layer.mb[i] = opt.beta1 * layer.mb[i] + (1.0 - opt.beta1) * layer.gb[i];
        layer.vb[i] = opt.beta2 * layer.vb[i] + (1.0 - opt.beta2) * layer.gb[i] * layer.gb[i];
        layer.b[i] -= opt.lr * (layer.mb[i] / bc1) / (std::sqrt(layer.vb[i] / bc2) + opt.eps);
      }
    }
  }

  std::vector<double> parameters() const {
    std::vector<double> flat;
    for (const auto& layer : layers_) {
      flat.insert(flat.end(), layer.w.data().begin(), layer.w.data().end());
      flat.insert(flat.end(), layer.b.begin(), layer.b.end());
    }
    return flat;
  }

  std::vector<double> gradients() const {
    std::vector<double> flat;
    for (const auto& layer : layers_) {
      flat.insert(flat.end(), layer.gw.data().begin(), layer.gw.data().end());
      flat.insert(flat.end(), layer.gb.begin(), layer.gb.end());
    }
    return flat;
  }

 private:
  struct Layer {
    Matrix w;
    std::vector<double> b;
    Matrix gw;
    std::vector<double> gb;
    Matrix mw, vw;
    std::vector<double> mb, vb;
  };
  std::vector<Layer> layers_;
  std::int64_t adam_t_ = 0;
};

}  // namespace reference

namespace {

/// Empty when `got` and `want` are byte-identical, else where they first
/// differ.
std::string first_byte_difference(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
  }
  if (got.empty() || std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) return "";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "index %zu: %.17g vs %.17g", i, got[i], want[i]);
      return buf;
    }
  }
  return "";
}

/// Normal entries with exact +0.0 / -0.0 sprinkled in (every `zero_every`th
/// entry, alternating sign), so the kernels' zero skips and the ReLU's
/// signed-zero behaviour are exercised.
Matrix random_matrix(int rows, int cols, pipette::common::Rng& rng, int zero_every = 0) {
  Matrix m(rows, cols);
  int idx = 0;
  for (auto& v : m.data()) {
    v = rng.normal();
    if (zero_every > 0 && idx % zero_every == zero_every - 1) v = (idx / zero_every) % 2 ? -0.0 : 0.0;
    ++idx;
  }
  return m;
}

Matrix transposed(const Matrix& a) {
  Matrix at;
  transpose(a, at);
  return at;
}

}  // namespace

TEST(Matrix, KernelsMatchKnownProducts) {
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]; a*b = [[58,64],[139,154]]
  Matrix a(2, 3), b(3, 2);
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = v++;
  v = 7;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) b(i, j) = v++;
  const double want[4] = {58, 64, 139, 154};
  const std::vector<double> zero_bias(2, 0.0);
  const KernelSet& kern = kernels();

  // affine takes the weights pre-transposed: wt = b is the (2 x 3) layer w^T.
  Matrix out(2, 2);
  kern.affine(a.data().data(), b.data().data(), zero_bias.data(), 2, 3, 2, false,
              out.data().data());
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out.data()[static_cast<std::size_t>(i)], want[i]);

  // grad_inputs: delta (2 x 3) times w (3 x 2).
  DeltaIndex idx;
  idx.build(a.data().data(), 2, 3);
  Matrix gi(2, 2);
  kern.grad_inputs(idx, b.data().data(), 2, nullptr, gi.data().data());
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(gi.data()[static_cast<std::size_t>(i)], want[i]);

  // grad_weights: delta^T * input with delta = a^T (3 x 2) and input b (3 x 2).
  const Matrix at = transposed(a);
  idx.build(at.data().data(), 3, 2);
  Matrix gw(2, 2);
  kern.grad_weights(idx, b.data().data(), 2, gw.data().data());
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(gw.data()[static_cast<std::size_t>(i)], want[i]);

  // The ReLU of affine and the mask of grad_inputs.
  const std::vector<double> bias = {-100.0, -100.0};
  kern.affine(a.data().data(), b.data().data(), bias.data(), 2, 3, 2, true, out.data().data());
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 39.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 54.0);
  idx.build(a.data().data(), 2, 3);
  kern.grad_inputs(idx, b.data().data(), 2, out.data().data(), gi.data().data());
  EXPECT_EQ(gi(0, 0), 0.0);
  EXPECT_EQ(gi(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(gi(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(gi(1, 1), 154.0);
}

TEST(Matrix, KernelsAgreeWithNaiveProducts) {
  pipette::common::Rng rng(3);
  const Matrix a = random_matrix(4, 5, rng), b = random_matrix(6, 5, rng), c = random_matrix(4, 6, rng);
  auto naive = [](const Matrix& x, const Matrix& y) {  // x * y
    Matrix z(x.rows(), y.cols());
    for (int i = 0; i < x.rows(); ++i)
      for (int j = 0; j < y.cols(); ++j)
        for (int k = 0; k < x.cols(); ++k) z(i, j) += x(i, k) * y(k, j);
    return z;
  };
  const KernelSet& kern = kernels();
  const Matrix bt = transposed(b);
  ASSERT_EQ(bt.rows(), 5);
  ASSERT_EQ(bt.cols(), 6);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_EQ(bt(j, i), b(i, j));

  // a * b^T through affine (weights b, so wt = b^T).
  const std::vector<double> zero_bias(6, 0.0);
  Matrix r1(4, 6);
  kern.affine(a.data().data(), bt.data().data(), zero_bias.data(), 4, 5, 6, false,
              r1.data().data());
  const Matrix e1 = naive(a, bt);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 6; ++j) EXPECT_NEAR(r1(i, j), e1(i, j), 1e-12);

  // c^T * a through grad_weights.
  DeltaIndex idx;
  idx.build(c.data().data(), 4, 6);
  Matrix r2(6, 5);
  kern.grad_weights(idx, a.data().data(), 5, r2.data().data());
  const Matrix e2 = naive(transposed(c), a);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(r2(i, j), e2(i, j), 1e-12);

  // c * b through grad_inputs.
  Matrix r3(4, 5);
  kern.grad_inputs(idx, b.data().data(), 5, nullptr, r3.data().data());
  const Matrix e3 = naive(c, b);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(r3(i, j), e3(i, j), 1e-12);
}

// Every tail of the tiled kernels, in every kernel set the CPU runs: batch
// rows around the 4-row tile, widths below, at, between and above every
// lane-vector tile, exact (signed) zeros in the inputs and in the deltas —
// compared byte for byte with the historical loops.
TEST(MlpKernels, ByteIdenticalToHistoricalLoopsOnEveryTail) {
  for (const KernelSet& kern : runnable_kernel_sets()) {
    SCOPED_TRACE(kern.isa);
    pipette::common::Rng rng(17);
    const int batch_rows[] = {1, 3, 5, 32, 33};
    const int widths[] = {1, 2, 7, 13, 14, 200};
    for (const int n : batch_rows) {
      for (const int k : widths) {
        for (const int m : widths) {
          SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                       " m=" + std::to_string(m));
          Matrix a = random_matrix(n, k, rng, 5);  // layer input
          // A NaN must flow through exactly as the scalar compare lets it (a
          // max-based ReLU would turn it into 0.0).
          if (n == 5) a(2, k / 2) = std::numeric_limits<double>::quiet_NaN();
          const Matrix w = random_matrix(m, k, rng);     // layer weights
          const Matrix wt = transposed(w);
          std::vector<double> bias(static_cast<std::size_t>(m));
          for (auto& b : bias) b = rng.normal();

          for (const bool relu : {false, true}) {
            Matrix want = reference::matmul_bt(a, w);
            for (int i = 0; i < n; ++i) {
              for (int j = 0; j < m; ++j) {
                want(i, j) += bias[static_cast<std::size_t>(j)];
                if (relu && want(i, j) < 0.0) want(i, j) = 0.0;
              }
            }
            Matrix got(n, m);
            kern.affine(a.data().data(), wt.data().data(), bias.data(), n, k, m, relu,
                        got.data().data());
            EXPECT_EQ(first_byte_difference(got.data(), want.data()), "") << "affine relu=" << relu;
          }

          const Matrix delta = random_matrix(n, m, rng, 3);
          DeltaIndex idx;
          idx.build(delta.data().data(), n, m);
          Matrix gw(m, k);
          kern.grad_weights(idx, a.data().data(), k, gw.data().data());
          EXPECT_EQ(first_byte_difference(gw.data(), reference::matmul_at(delta, a).data()), "")
              << "grad_weights";

          Matrix mask = random_matrix(n, k, rng, 4);
          for (auto& v : mask.data()) v = v < 0.0 ? 0.0 : v;  // post-ReLU
          Matrix want_in = reference::matmul(delta, w);
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < k; ++j) {
              if (mask(i, j) <= 0.0) want_in(i, j) = 0.0;
            }
          }
          Matrix got_in(n, k);
          kern.grad_inputs(idx, w.data().data(), k, mask.data().data(), got_in.data().data());
          EXPECT_EQ(first_byte_difference(got_in.data(), want_in.data()), "") << "grad_inputs";
        }
      }
    }
  }
}

// The Adam update of every kernel set against the historical per-element
// loop, over lengths around every lane tail and three consecutive steps (so
// the moments it reads are ones it wrote).
TEST(MlpKernels, AdamUpdateByteIdenticalToHistoricalLoop) {
  const AdamOptions opt{3e-3, 0.9, 0.999, 1e-8};
  for (const KernelSet& kern : runnable_kernel_sets()) {
    SCOPED_TRACE(kern.isa);
    pipette::common::Rng rng(23);
    for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 13, 200, 2814}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const int cols = static_cast<int>(n);
      const Matrix w0 = random_matrix(1, cols, rng);
      std::vector<double> w(w0.data().begin(), w0.data().end()), m(n, 0.0), v(n, 0.0);
      std::vector<double> want_w = w, want_m = m, want_v = v;
      for (int t = 1; t <= 3; ++t) {
        const Matrix g = random_matrix(1, cols, rng, 4);
        const double bc1 = 1.0 - std::pow(opt.beta1, static_cast<double>(t));
        const double bc2 = 1.0 - std::pow(opt.beta2, static_cast<double>(t));
        for (std::size_t i = 0; i < n; ++i) {
          want_m[i] = opt.beta1 * want_m[i] + (1.0 - opt.beta1) * g.data()[i];
          want_v[i] = opt.beta2 * want_v[i] + (1.0 - opt.beta2) * g.data()[i] * g.data()[i];
          want_w[i] -= opt.lr * (want_m[i] / bc1) / (std::sqrt(want_v[i] / bc2) + opt.eps);
        }
        const AdamConstants c{opt.beta1, opt.beta2, 1.0 - opt.beta1, 1.0 - opt.beta2,
                              opt.lr,    bc1,       bc2,             opt.eps};
        kern.adam_update(w.data(), g.data().data(), m.data(), v.data(), n, c);
        ASSERT_EQ(first_byte_difference(m, want_m), "") << "m, step " << t;
        ASSERT_EQ(first_byte_difference(v, want_v), "") << "v, step " << t;
        ASSERT_EQ(first_byte_difference(w, want_w), "") << "w, step " << t;
      }
    }
  }
}

// kernels() is the widest runnable set, and that is AVX2 exactly when the
// CPU supports it (on x86-64 GCC builds, the only ones with an AVX2 copy).
// The printed line records the width the rest of this binary trained at.
TEST(MlpKernels, SelectsAvx2ExactlyWhenTheCpuSupportsIt) {
  const KernelSet& kern = kernels();
  std::printf("MLP kernels: %s, %d lanes\n", kern.isa, kern.lanes);
#if defined(PIPETTE_SIMD_AVX2)
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool avx2 = false;
#endif
  const auto sets = runnable_kernel_sets();
  EXPECT_EQ(sets.size(), avx2 ? 2U : 1U);
  EXPECT_EQ(&kern, &sets.back());
  EXPECT_EQ(std::string(kern.isa) == "avx2", avx2);
  EXPECT_EQ(kern.lanes == 4, avx2);
}

namespace {

/// Trains `net` and the historical reference from identical weights on the
/// same batches for `steps` Adam steps, asserting byte-identical gradients
/// and parameters after every step, then byte-identical forward outputs.
/// Some targets equal the net's current output exactly, so their output
/// deltas are exact zeros.
void expect_training_byte_identical(Network& net, int n, int steps, std::uint64_t seed) {
  reference::Net ref(net.layer_sizes(), net.parameters());
  pipette::common::Rng rng(seed);
  AdamOptions adam;
  adam.lr = 3e-3;
  for (int step = 0; step < steps; ++step) {
    const Matrix x = random_matrix(n, net.input_dim(), rng, 6);
    Matrix y = random_matrix(n, net.output_dim(), rng);
    const Matrix fx = ref.forward(x);
    for (int i = 0; i < n; i += 3) {
      for (int j = 0; j < y.cols(); ++j) y(i, j) = fx(i, j);
    }
    const double loss = net.loss_and_grad(x, y);
    const double want_loss = ref.loss_and_grad(x, y);
    ASSERT_EQ(std::memcmp(&loss, &want_loss, sizeof loss), 0) << "step " << step;
    ASSERT_EQ(first_byte_difference(net.gradients(), ref.gradients()), "") << "gradients, step " << step;
    net.adam_step(adam);
    ref.adam_step(adam);
    ASSERT_EQ(first_byte_difference(net.parameters(), ref.parameters()), "") << "parameters, step " << step;
  }
  const Matrix x = random_matrix(n, net.input_dim(), rng, 6);
  EXPECT_EQ(first_byte_difference(net.forward(x).data(), ref.forward(x).data()), "") << "forward";
  std::vector<double> scratch(net.scratch_size(1));
  for (int i = 0; i < n; ++i) {
    Matrix row(1, x.cols());
    for (int j = 0; j < x.cols(); ++j) row(0, j) = x(i, j);
    const double* got = net.forward_into(x.row(i).data(), 1, scratch.data());
    EXPECT_EQ(first_byte_difference({got, static_cast<std::size_t>(net.output_dim())},
                                    ref.forward(row).data()),
              "")
        << "forward_into row " << i;
  }
}

}  // namespace

// The paper's network (14 v2 features, 4x200 hidden) at the estimator's batch
// size: 200 Adam steps on the tiled kernels land on the very bytes the
// historical loops produce.
TEST(MlpNetwork, PaperNetTrainsByteIdenticallyToHistoricalKernels) {
  Network net({14, 200, 200, 200, 200, 1}, 5);
  expect_training_byte_identical(net, 32, 200, 29);
}

TEST(MlpNetwork, EveryTailShapeTrainsByteIdentically) {
  for (const int n : {1, 3, 5, 32, 33}) {
    for (const int w : {1, 2, 7, 13, 14, 200}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " width=" + std::to_string(w));
      Network net({w, w, w, w}, static_cast<std::uint64_t>(n * 1000 + w));
      expect_training_byte_identical(net, n, w == 200 ? 3 : 10, static_cast<std::uint64_t>(n + w));
    }
  }
}

TEST(MlpNetwork, TrainingStateIsAllocatedLazilyAndReleased) {
  Network net({3, 8, 1}, 2);
  EXPECT_FALSE(net.holds_training_state());
  const std::vector<double> zeros(net.num_parameters(), 0.0);
  EXPECT_EQ(net.gradients(), zeros);
  Matrix x(4, 3, 0.5), y(4, 1, 1.0);
  net.loss_and_grad(x, y);
  EXPECT_TRUE(net.holds_training_state());
  EXPECT_NE(net.gradients(), zeros);
  net.adam_step({});
  net.release_training_state();
  EXPECT_FALSE(net.holds_training_state());
  EXPECT_EQ(net.gradients(), zeros);
  const auto params = net.parameters();
  EXPECT_EQ(net.forward(x).rows(), 4) << "a released net still infers";
  EXPECT_EQ(net.parameters(), params);
}

TEST(Network, ForwardShapes) {
  Network net({3, 8, 2}, 1);
  Matrix x(5, 3, 0.5);
  const Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Network, GradientMatchesFiniteDifference) {
  Network net({2, 5, 1}, 7);
  pipette::common::Rng rng(11);
  Matrix x(4, 2), y(4, 1);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : y.data()) v = rng.normal();

  net.loss_and_grad(x, y);
  const auto params = net.parameters();
  const auto grads = net.gradients();
  ASSERT_EQ(params.size(), grads.size());

  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t i = 0; i < params.size(); i += 3) {
    auto p = params;
    p[i] += eps;
    net.set_parameters(p);
    const double lp = net.loss_and_grad(x, y);
    p[i] -= 2 * eps;
    net.set_parameters(p);
    const double lm = net.loss_and_grad(x, y);
    net.set_parameters(params);
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grads[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(Network, AdamReducesLossOnQuadratic) {
  Network net({2, 16, 1}, 3);
  pipette::common::Rng rng(5);
  Matrix x(64, 2), y(64, 1);
  for (int i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y(i, 0) = x(i, 0) * x(i, 0) + 0.5 * x(i, 1);
  }
  AdamOptions adam;
  const double first = net.loss_and_grad(x, y);
  net.adam_step(adam);
  double last = first;
  for (int it = 0; it < 800; ++it) {
    last = net.loss_and_grad(x, y);
    net.adam_step(adam);
  }
  EXPECT_LT(last, first * 0.1);
}

TEST(Standardizer, NormalizesColumns) {
  Matrix x(4, 2);
  const double vals[4] = {1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) {
    x(i, 0) = vals[i];
    x(i, 1) = 10 * vals[i];
  }
  Standardizer s;
  s.fit(x);
  const Matrix t = s.transform(x);
  double m0 = 0, m1 = 0;
  for (int i = 0; i < 4; ++i) {
    m0 += t(i, 0);
    m1 += t(i, 1);
  }
  EXPECT_NEAR(m0, 0.0, 1e-12);
  EXPECT_NEAR(m1, 0.0, 1e-12);
  const auto row = s.transform_row(std::vector<double>{2.5, 25.0});
  EXPECT_NEAR(row[0], 0.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(Regressor, FitsLinearFunction) {
  pipette::common::Rng rng(9);
  const int n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.uniform(-2, 2);
    y[static_cast<std::size_t>(i)] = 5.0 + 2.0 * x(i, 0) - 1.0 * x(i, 1) + 0.5 * x(i, 2);
  }
  Regressor reg(3, {32, 32}, 4);
  TrainOptions opt;
  opt.iters = 3000;
  opt.batch_size = 32;
  const auto rep = reg.fit(x, y, opt);
  EXPECT_LT(rep.train_mape, 5.0) << "final mse " << rep.final_mse;
  EXPECT_NEAR(reg.predict(std::vector<double>{1.0, 1.0, 1.0}), 6.5, 0.5);
}

TEST(Regressor, PredictBeforeFitThrows) {
  Regressor reg(2, {4}, 1);
  EXPECT_THROW(reg.predict(std::vector<double>{0.0, 0.0}), std::logic_error);
}

TEST(Regressor, RejectsBadDataset) {
  Regressor reg(2, {4}, 1);
  Matrix x(3, 2);
  std::vector<double> y(2);
  EXPECT_THROW(reg.fit(x, y, {}), std::invalid_argument);
}

namespace {

/// A regressor trained briefly on a smooth 3-feature target, and its data.
struct Fitted {
  Matrix x;
  std::vector<double> y;
  Regressor reg{3, {24, 24}, 4};
  TrainReport report;
};

Fitted fit_small() {
  Fitted f;
  pipette::common::Rng rng(9);
  f.x = Matrix(120, 3);
  f.y.resize(120);
  for (int i = 0; i < 120; ++i) {
    for (int j = 0; j < 3; ++j) f.x(i, j) = rng.uniform(-2, 2);
    f.y[static_cast<std::size_t>(i)] = 5.0 + 2.0 * f.x(i, 0) - f.x(i, 1) * f.x(i, 2);
  }
  TrainOptions opt;
  opt.iters = 400;
  f.report = f.reg.fit(f.x, f.y, opt);
  return f;
}

}  // namespace

TEST(Regressor, PredictIsByteIdenticalToHistoricalForward) {
  const Fitted f = fit_small();
  const Network& net = f.reg.network();
  const reference::Net ref(net.layer_sizes(), net.parameters());
  const Standardizer& sd = f.reg.standardizer();
  ASSERT_EQ(f.report.predictions.size(), f.y.size());
  for (int i = 0; i < f.x.rows(); ++i) {
    // The historical predict: transform_row, a one-row matrix, forward().
    const std::vector<double> xs = sd.transform_row(f.x.row(i));
    Matrix in(1, 3);
    for (int j = 0; j < 3; ++j) in(0, j) = xs[static_cast<std::size_t>(j)];
    const double want = ref.forward(in)(0, 0) * f.reg.y_std() + f.reg.y_mean();
    const double got = f.reg.predict(f.x.row(i));
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "row " << i;
    ASSERT_EQ(std::memcmp(&f.report.predictions[static_cast<std::size_t>(i)], &want, sizeof got), 0)
        << "TrainReport::predictions row " << i;
  }
  EXPECT_EQ(f.report.train_mape, pipette::common::mape_percent(f.report.predictions, f.y));
}

TEST(Regressor, RestoredPredictsTheSameBytesAndHoldsNoTrainingState) {
  const Fitted f = fit_small();
  EXPECT_FALSE(f.reg.network().holds_training_state()) << "fit must free its training state";
  const Regressor restored = Regressor::restore(
      f.reg.network().layer_sizes(), f.reg.network().parameters(), f.reg.standardizer().mean(),
      f.reg.standardizer().std(), f.reg.y_mean(), f.reg.y_std());
  EXPECT_FALSE(restored.network().holds_training_state());
  for (int i = 0; i < f.x.rows(); ++i) {
    const double a = f.reg.predict(f.x.row(i)), b = restored.predict(f.x.row(i));
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "row " << i;
  }
}

TEST(Regressor, PredictAllocatesNothing) {
  const Fitted f = fit_small();
  double sink = f.reg.predict(f.x.row(0));  // warm
  const long before = g_allocations.load();
  for (int i = 0; i < f.x.rows(); ++i) sink += f.reg.predict(f.x.row(i));
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(Regressor, ConcurrentPredictsMatchSerial) {
  const Fitted f = fit_small();
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        for (int i = 0; i < f.x.rows(); ++i) got[static_cast<std::size_t>(t)].push_back(f.reg.predict(f.x.row(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& g : got) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g[i], f.report.predictions[i % f.y.size()]) << "prediction " << i;
    }
  }
}

TEST(Regressor, RejectsDegenerateOptionsNamingTheField) {
  struct Case {
    const char* what;
    std::vector<int> hidden;
    void (*mutate)(TrainOptions&);
    const char* field;
  };
  using limits = std::numeric_limits<double>;
  const Case cases[] = {
      {"hidden 0", {0}, nullptr, "hidden"},
      {"hidden -4", {8, -4}, nullptr, "hidden"},
      {"batch_size 0", {8}, [](TrainOptions& o) { o.batch_size = 0; }, "batch_size"},
      {"batch_size -3", {8}, [](TrainOptions& o) { o.batch_size = -3; }, "batch_size"},
      {"iters 0", {8}, [](TrainOptions& o) { o.iters = 0; }, "iters"},
      {"iters -1", {8}, [](TrainOptions& o) { o.iters = -1; }, "iters"},
      {"lr 0", {8}, [](TrainOptions& o) { o.lr = 0.0; }, "lr"},
      {"lr -1e-3", {8}, [](TrainOptions& o) { o.lr = -1e-3; }, "lr"},
      {"lr NaN", {8}, [](TrainOptions& o) { o.lr = limits::quiet_NaN(); }, "lr"},
      {"lr inf", {8}, [](TrainOptions& o) { o.lr = limits::infinity(); }, "lr"},
      {"lr_decay 0", {8}, [](TrainOptions& o) { o.lr_decay = 0.0; }, "lr_decay"},
      {"lr_decay -0.5", {8}, [](TrainOptions& o) { o.lr_decay = -0.5; }, "lr_decay"},
      {"lr_decay NaN", {8}, [](TrainOptions& o) { o.lr_decay = limits::quiet_NaN(); }, "lr_decay"},
      {"lr_decay inf", {8}, [](TrainOptions& o) { o.lr_decay = limits::infinity(); }, "lr_decay"},
  };
  Matrix x(8, 3, 1.0);
  std::vector<double> y(8, 2.0);
  for (int i = 0; i < 8; ++i) x(i, 0) = i;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::string message;
    try {
      Regressor reg(3, c.hidden, 1);
      TrainOptions opt;
      opt.iters = 5;
      if (c.mutate) c.mutate(opt);
      reg.fit(x, y, opt);
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    ASSERT_FALSE(message.empty()) << "accepted";
    // The named field, as a whole word: "lr" must not be satisfied by "lr_decay".
    const std::string field = c.field;
    bool named = false;
    for (std::size_t pos = message.find(field); pos != std::string::npos;
         pos = message.find(field, pos + 1)) {
      const std::size_t end = pos + field.size();
      named |= end == message.size() || !(std::isalnum(static_cast<unsigned char>(message[end])) || message[end] == '_');
    }
    EXPECT_TRUE(named) << message;
  }
  // The smallest valid options still train.
  Regressor reg(3, {1}, 1);
  TrainOptions opt;
  opt.iters = 1;
  opt.batch_size = 1;
  EXPECT_NO_THROW(reg.fit(x, y, opt));
}
