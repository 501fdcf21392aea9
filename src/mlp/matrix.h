// Row-major dense matrix and the four kernels behind the paper's
// 5-layer/200-hidden memory-estimator MLP (Eq. 7): the forward `affine`, the
// backward `grad_weights` and `grad_inputs`, and the Adam update. No BLAS
// dependency.
//
// The kernels hold a tile of outputs in registers and vectorize across
// output columns (common/simd.h), but every output element is still
// accumulated exactly as the naive triple loops they replaced: from 0.0, one
// product and one add at a time, in ascending k, skipping the same zero
// operands. IEEE multiply and add round each element alone, so the results —
// and every weight trained on them — are bit-identical to those loops at any
// lane width; tests/mlp_test.cpp keeps the loops as the reference.
//
// One source (mlp/kernels.inc) is compiled at each lane width this build
// has: SSE2 (2 lanes) on x86-64, plus AVX2 (4 lanes) when GCC builds it, and
// scalar elsewhere. kernels() is the widest set the CPU runs, chosen once per
// process, so the widest exact width needs no build option.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace pipette::mlp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), d_(static_cast<std::size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) { return d_[static_cast<std::size_t>(r) * cols_ + c]; }
  double operator()(int r, int c) const { return d_[static_cast<std::size_t>(r) * cols_ + c]; }

  std::span<double> row(int r) { return {&d_[static_cast<std::size_t>(r) * cols_], static_cast<std::size_t>(cols_)}; }
  std::span<const double> row(int r) const {
    return {&d_[static_cast<std::size_t>(r) * cols_], static_cast<std::size_t>(cols_)};
  }
  std::span<double> data() { return d_; }
  std::span<const double> data() const { return d_; }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<double> d_;
};

/// at = a^T (cache-blocked). `at` is resized when its shape differs.
void transpose(const Matrix& a, Matrix& at);

/// The entries of an (n x m) backpropagated delta matrix that are not
/// `== 0.0`, listed per row and per column in ascending order: the skip
/// lists of grad_weights and grad_inputs. Reused across training steps; it
/// reallocates only when the shape grows.
class DeltaIndex {
 public:
  void build(const double* delta, int n, int m);
  int rows() const { return n_; }
  int cols() const { return m_; }

  /// Row r's kept entries: columns (ascending) and their values.
  int row_count(int r) const { return row_count_[static_cast<std::size_t>(r)]; }
  const int* row_cols(int r) const { return row_col_.data() + static_cast<std::size_t>(r) * m_; }
  const double* row_vals(int r) const { return row_val_.data() + static_cast<std::size_t>(r) * m_; }
  /// Column i's kept entries: rows (ascending) and their values.
  int col_count(int i) const { return col_count_[static_cast<std::size_t>(i)]; }
  const int* col_rows(int i) const { return col_row_.data() + static_cast<std::size_t>(i) * n_; }
  const double* col_vals(int i) const { return col_val_.data() + static_cast<std::size_t>(i) * n_; }

 private:
  int n_ = 0, m_ = 0;
  std::vector<int> row_count_, row_col_;  ///< per row r: columns i, at r*m
  std::vector<int> col_count_, col_row_;  ///< per column i: rows r, at i*n
  std::vector<double> row_val_, col_val_;
};

/// The constants of one Adam step (bc1, bc2: the bias corrections
/// 1 - beta^t).
struct AdamConstants {
  double beta1, beta2, one_minus_beta1, one_minus_beta2, lr, bc1, bc2, eps;
};

/// The four kernels compiled at one lane width. Every set computes the same
/// bytes; they differ only in speed.
struct KernelSet {
  const char* isa;  ///< "avx2", "sse2" or "scalar"
  int lanes;        ///< doubles per register: 4, 2 or 1

  /// Dense layer forward: out(n x m) = a(n x k) * wt(k x m) + bias, then
  /// `z < 0.0 ? 0.0 : z` per element when `relu`. `wt` is the layer's
  /// (m x k) weight matrix transposed, so each k step reads a contiguous run
  /// of output columns. Every output sums its k products from 0.0 in
  /// ascending k, then adds its bias. All pointers are row-major with no
  /// padding; `out` must not alias `a`.
  void (*affine)(const double* a, const double* wt, const double* bias, int n, int k, int m,
                 bool relu, double* out);

  /// Weight gradient: gw(m x k) = delta^T * a for the indexed (n x m) delta
  /// and a layer input `a` (n x k). gw(i, j) sums delta(r, i) * a(r, j) over
  /// batch rows r in ascending order from 0.0, skipping rows where
  /// delta(r, i) == 0.0.
  void (*grad_weights)(const DeltaIndex& delta, const double* a, int k, double* gw);

  /// Input gradient: out(n x k) = delta * w for the indexed (n x m) delta
  /// and weights `w` (m x k). out(r, j) sums delta(r, i) * w(i, j) over
  /// ascending i from 0.0, skipping i where delta(r, i) == 0.0; then, when
  /// `mask` (n x k) is given, out(r, j) = 0.0 wherever mask(r, j) <= 0.0
  /// (the ReLU gate of the layer that produced the input).
  void (*grad_inputs)(const DeltaIndex& delta, const double* w, int k, const double* mask,
                      double* out);

  /// One Adam update of n parameters in the historical per-element form
  ///   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
  ///   w -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
  void (*adam_update)(double* w, const double* g, double* m, double* v, std::size_t n,
                      const AdamConstants& c);
};

/// Every kernel set this CPU runs, narrowest first: SSE2, then AVX2 where
/// __builtin_cpu_supports("avx2") (x86-64); the scalar set elsewhere.
std::span<const KernelSet> runnable_kernel_sets();

/// The widest runnable set, chosen on first use and fixed for the process.
const KernelSet& kernels();

}  // namespace pipette::mlp
