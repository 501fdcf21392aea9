#include "mlp/matrix.h"

#include <algorithm>
#include <cstddef>

#include "common/simd.h"

namespace pipette::mlp {

namespace {

using common::simd::Lane;
constexpr int kL = common::simd::kLanes;
using Index = std::ptrdiff_t;

// R rows x C lane-vectors of affine() outputs, starting at (r0, j0). The
// R*C accumulators stay in registers across the whole k loop; each lane is
// one output element's historical dependent chain of adds.
template <int R, int C>
void affine_tile(const double* a, const double* wt, const double* bias, int k, int m, bool relu,
                 int r0, int j0, double* out) {
  Lane acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) acc[r][c] = Lane::broadcast(0.0);
  }
  const double* arows = a + static_cast<Index>(r0) * k;
  for (int p = 0; p < k; ++p) {
    const double* wrow = wt + static_cast<Index>(p) * m + j0;
    Lane w[C];
    for (int c = 0; c < C; ++c) w[c] = Lane::load(wrow + c * kL);
    for (int r = 0; r < R; ++r) {
      const Lane x = Lane::broadcast(arows[static_cast<Index>(r) * k + p]);
      for (int c = 0; c < C; ++c) acc[r][c] = acc[r][c] + x * w[c];
    }
  }
  for (int r = 0; r < R; ++r) {
    double* o = out + static_cast<Index>(r0 + r) * m + j0;
    for (int c = 0; c < C; ++c) {
      Lane z = acc[r][c] + Lane::load(bias + j0 + c * kL);
      if (relu) z = Lane::relu(z);
      z.store(o + c * kL);
    }
  }
}

// Full lane-vector columns of rows [r0, r0 + R), widest tiles first; returns
// the first column left for the scalar tail.
template <int R, int C>
int affine_cols(const double* a, const double* wt, const double* bias, int k, int m, bool relu,
                int r0, int j, double* out) {
  for (; j + C * kL <= m; j += C * kL) affine_tile<R, C>(a, wt, bias, k, m, relu, r0, j, out);
  if constexpr (C > 1) {
    return affine_cols<R, C / 2>(a, wt, bias, k, m, relu, r0, j, out);
  } else {
    return j;
  }
}

template <int R, int C>
void affine_rows(const double* a, const double* wt, const double* bias, int k, int m, bool relu,
                 int r0, double* out) {
  const int j0 = affine_cols<R, C>(a, wt, bias, k, m, relu, r0, 0, out);
  for (int r = r0; r < r0 + R; ++r) {
    const double* ar = a + static_cast<Index>(r) * k;
    for (int j = j0; j < m; ++j) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) s += ar[p] * wt[static_cast<Index>(p) * m + j];
      double z = s + bias[j];
      if (relu && z < 0.0) z = 0.0;
      out[static_cast<Index>(r) * m + j] = z;
    }
  }
}

// One gw row segment: gw(i, j0 .. j0 + C*kL) over the nonzero rows of delta
// column i.
template <int C>
void grad_weights_tile(const int* rows, const double* vals, int cnt, const double* a, int k,
                       int j0, double* gw_row) {
  Lane acc[C];
  for (int c = 0; c < C; ++c) acc[c] = Lane::broadcast(0.0);
  for (int p = 0; p < cnt; ++p) {
    const Lane d = Lane::broadcast(vals[p]);
    const double* ar = a + static_cast<Index>(rows[p]) * k + j0;
    for (int c = 0; c < C; ++c) acc[c] = acc[c] + d * Lane::load(ar + c * kL);
  }
  for (int c = 0; c < C; ++c) acc[c].store(gw_row + j0 + c * kL);
}

template <int C>
int grad_weights_cols(const DeltaIndex& d, const double* a, int k, int j, double* gw) {
  for (; j + C * kL <= k; j += C * kL) {
    for (int i = 0; i < d.cols(); ++i) {
      grad_weights_tile<C>(d.col_rows(i), d.col_vals(i), d.col_count(i), a, k, j,
                           gw + static_cast<Index>(i) * k);
    }
  }
  if constexpr (C > 1) {
    return grad_weights_cols<C / 2>(d, a, k, j, gw);
  } else {
    return j;
  }
}

// One output row segment: out(r, j0 .. j0 + C*kL) over the nonzero columns
// of delta row r, then the ReLU gate.
template <int C>
void grad_inputs_tile(const int* cols, const double* vals, int cnt, const double* w, int k, int j0,
                      const double* mask_row, double* out_row) {
  Lane acc[C];
  for (int c = 0; c < C; ++c) acc[c] = Lane::broadcast(0.0);
  for (int p = 0; p < cnt; ++p) {
    const Lane d = Lane::broadcast(vals[p]);
    const double* wr = w + static_cast<Index>(cols[p]) * k + j0;
    for (int c = 0; c < C; ++c) acc[c] = acc[c] + d * Lane::load(wr + c * kL);
  }
  for (int c = 0; c < C; ++c) {
    Lane v = acc[c];
    if (mask_row) v = Lane::zero_where_nonpositive(Lane::load(mask_row + j0 + c * kL), v);
    v.store(out_row + j0 + c * kL);
  }
}

template <int C>
int grad_inputs_cols(const DeltaIndex& d, const double* w, int k, const double* mask, int j,
                     double* out) {
  for (; j + C * kL <= k; j += C * kL) {
    for (int r = 0; r < d.rows(); ++r) {
      grad_inputs_tile<C>(d.row_cols(r), d.row_vals(r), d.row_count(r), w, k, j,
                          mask ? mask + static_cast<Index>(r) * k : nullptr,
                          out + static_cast<Index>(r) * k);
    }
  }
  if constexpr (C > 1) {
    return grad_inputs_cols<C / 2>(d, w, k, mask, j, out);
  } else {
    return j;
  }
}

}  // namespace

void transpose(const Matrix& a, Matrix& at) {
  if (at.rows() != a.cols() || at.cols() != a.rows()) at = Matrix(a.cols(), a.rows());
  constexpr int kBlock = 16;
  for (int r0 = 0; r0 < a.rows(); r0 += kBlock) {
    const int r1 = std::min(r0 + kBlock, a.rows());
    for (int c0 = 0; c0 < a.cols(); c0 += kBlock) {
      const int c1 = std::min(c0 + kBlock, a.cols());
      for (int r = r0; r < r1; ++r) {
        for (int c = c0; c < c1; ++c) at(c, r) = a(r, c);
      }
    }
  }
}

void affine(const double* a, const double* wt, const double* bias, int n, int k, int m, bool relu,
            double* out) {
  // Four rows share each loaded weight vector; a lone row (predict) needs
  // eight independent vectors to cover the add latency instead.
  int r = 0;
  for (; r + 4 <= n; r += 4) affine_rows<4, 2>(a, wt, bias, k, m, relu, r, out);
  for (; r < n; ++r) affine_rows<1, 8>(a, wt, bias, k, m, relu, r, out);
}

void DeltaIndex::build(const double* delta, int n, int m) {
  n_ = n;
  m_ = m;
  const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(m);
  if (row_col_.size() < cells) {
    row_col_.resize(cells);
    row_val_.resize(cells);
    col_row_.resize(cells);
    col_val_.resize(cells);
  }
  row_count_.resize(static_cast<std::size_t>(n));
  col_count_.assign(static_cast<std::size_t>(m), 0);
  // Branch-free compaction: every entry is written at the next free slot,
  // which only advances when the entry is kept (ReLU makes the zero pattern
  // close to random, so a branch here would mispredict half the time).
  for (int r = 0; r < n; ++r) {
    const double* d = delta + static_cast<Index>(r) * m;
    int* rc = row_col_.data() + static_cast<Index>(r) * m;
    double* rv = row_val_.data() + static_cast<Index>(r) * m;
    int cnt = 0;
    for (int i = 0; i < m; ++i) {
      const double v = d[i];
      const int keep = v == 0.0 ? 0 : 1;
      rc[cnt] = i;
      rv[cnt] = v;
      cnt += keep;
      int& cc = col_count_[static_cast<std::size_t>(i)];
      col_row_[static_cast<std::size_t>(i) * n + cc] = r;
      col_val_[static_cast<std::size_t>(i) * n + cc] = v;
      cc += keep;
    }
    row_count_[static_cast<std::size_t>(r)] = cnt;
  }
}

void grad_weights(const DeltaIndex& delta, const double* a, int k, double* gw) {
  const int j0 = grad_weights_cols<8>(delta, a, k, 0, gw);
  for (int i = 0; i < delta.cols(); ++i) {
    const int* rows = delta.col_rows(i);
    const double* vals = delta.col_vals(i);
    for (int j = j0; j < k; ++j) {
      double s = 0.0;
      for (int p = 0; p < delta.col_count(i); ++p) s += vals[p] * a[static_cast<Index>(rows[p]) * k + j];
      gw[static_cast<Index>(i) * k + j] = s;
    }
  }
}

void grad_inputs(const DeltaIndex& delta, const double* w, int k, const double* mask, double* out) {
  const int j0 = grad_inputs_cols<8>(delta, w, k, mask, 0, out);
  for (int r = 0; r < delta.rows(); ++r) {
    const int* cols = delta.row_cols(r);
    const double* vals = delta.row_vals(r);
    for (int j = j0; j < k; ++j) {
      double s = 0.0;
      for (int p = 0; p < delta.row_count(r); ++p) s += vals[p] * w[static_cast<Index>(cols[p]) * k + j];
      if (mask && mask[static_cast<Index>(r) * k + j] <= 0.0) s = 0.0;
      out[static_cast<Index>(r) * k + j] = s;
    }
  }
}

}  // namespace pipette::mlp
