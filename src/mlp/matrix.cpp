#include "mlp/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/simd.h"

namespace pipette::mlp {

using Index = std::ptrdiff_t;

// Every header this file needs is included above, so the AVX2 region holds
// only the kernels: no shared inline function is compiled as AVX2 code.
namespace {

// The baseline copy: SSE2 on x86-64, which every x86-64 CPU runs; scalar
// elsewhere.
namespace base {
#if defined(PIPETTE_SIMD_SSE2)
using Lane = common::simd::Lane2;
#else
using Lane = common::simd::Lane1;
#endif
#include "mlp/kernels.inc"
}  // namespace base

#if defined(PIPETTE_SIMD_AVX2)
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
using Lane = common::simd::Lane4;
#include "mlp/kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

/// Narrowest first, so the widest runnable set is the last runnable one.
constexpr KernelSet kKernelSets[] = {
    base::kernel_set,
#if defined(PIPETTE_SIMD_AVX2)
    avx2::kernel_set,
#endif
};

std::size_t runnable_count() {
#if defined(PIPETTE_SIMD_AVX2)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) return 1;
#endif
  return std::size(kKernelSets);
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

std::span<const KernelSet> runnable_kernel_sets() {
  static const std::size_t count = runnable_count();
  return {kKernelSets, count};
}

const KernelSet& kernels() {
  static const KernelSet& widest = runnable_kernel_sets().back();
  return widest;
}

}  // namespace pipette::mlp
