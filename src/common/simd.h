// Fixed-width double lane types for the MLP kernels (mlp/kernels.inc): Lane2
// holds 2 doubles in an SSE2 register (x86-64's baseline, so every x86-64
// CPU runs it), Lane4 holds 4 in an AVX register, and Lane1 is the plain
// scalar op on other architectures. mlp/matrix.cpp compiles the one kernel
// source once per lane type and picks the widest set the CPU runs at startup.
//
// Lane4's ops are AVX2 code through GCC's target pragma, so the build needs
// no AVX2 compiler flag: only code compiled under the same
// `#pragma GCC target("avx2")` may use it, and a CPU may only run that code
// when __builtin_cpu_supports("avx2").
//
// Bit-identity contract (why every lane width gives the scalar loops' bytes):
//   - IEEE-754 addition, subtraction, multiplication, division and square
//     root are exact per element: a packed divpd computes the identical
//     rounded quotient in every lane that divsd computes for that element,
//     so element-wise expressions are bit-identical however many lanes
//     evaluate at once. (No FMA contraction: the AVX2 target enables no
//     fma, so a*b + c stays two roundings.)
//   - Sums are never reassociated: each lane carries one output element
//     through the scalar loop's operations in the scalar loop's order
//     (tests/mlp_test.cpp keeps the historical loops as the reference).
#pragma once

#if defined(__SSE2__)
#include <immintrin.h>
#define PIPETTE_SIMD_SSE2 1
#if defined(__GNUC__) && !defined(__clang__)
#define PIPETTE_SIMD_AVX2 1  // Lane4 needs GCC's target pragma
#endif
#else
#include <cmath>
#endif

namespace pipette::common::simd {

// Every lane type is a thin wrapper: each op maps to a single intrinsic (or
// the plain scalar op in Lane1). relu(z) is the scalar `z < 0.0 ? 0.0 : z`
// per lane and zero_where_nonpositive(m, a) is `m <= 0.0 ? 0.0 : a`: ordered
// compares plus a mask, so -0.0 and NaN pass through exactly as the scalar
// branch lets them (a max against 0.0 would turn -0.0 into +0.0). The
// operators are members because GCC does not apply a target pragma to a
// friend function defined inside the class.

#if defined(PIPETTE_SIMD_SSE2)

struct Lane2 {
  static constexpr int kLanes = 2;
  static constexpr const char* kIsa = "sse2";
  __m128d v;
  static Lane2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Lane2 broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  Lane2 operator+(Lane2 b) const { return {_mm_add_pd(v, b.v)}; }
  Lane2 operator-(Lane2 b) const { return {_mm_sub_pd(v, b.v)}; }
  Lane2 operator*(Lane2 b) const { return {_mm_mul_pd(v, b.v)}; }
  Lane2 operator/(Lane2 b) const { return {_mm_div_pd(v, b.v)}; }
  static Lane2 sqrt(Lane2 a) { return {_mm_sqrt_pd(a.v)}; }
  static Lane2 relu(Lane2 z) { return {_mm_andnot_pd(_mm_cmplt_pd(z.v, _mm_setzero_pd()), z.v)}; }
  static Lane2 zero_where_nonpositive(Lane2 m, Lane2 a) {
    return {_mm_andnot_pd(_mm_cmple_pd(m.v, _mm_setzero_pd()), a.v)};
  }
};

#endif
#if defined(PIPETTE_SIMD_AVX2)

#pragma GCC push_options
#pragma GCC target("avx2")
struct Lane4 {
  static constexpr int kLanes = 4;
  static constexpr const char* kIsa = "avx2";
  __m256d v;
  static Lane4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Lane4 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  Lane4 operator+(Lane4 b) const { return {_mm256_add_pd(v, b.v)}; }
  Lane4 operator-(Lane4 b) const { return {_mm256_sub_pd(v, b.v)}; }
  Lane4 operator*(Lane4 b) const { return {_mm256_mul_pd(v, b.v)}; }
  Lane4 operator/(Lane4 b) const { return {_mm256_div_pd(v, b.v)}; }
  static Lane4 sqrt(Lane4 a) { return {_mm256_sqrt_pd(a.v)}; }
  static Lane4 relu(Lane4 z) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(z.v, _mm256_setzero_pd(), _CMP_LT_OQ), z.v)};
  }
  static Lane4 zero_where_nonpositive(Lane4 m, Lane4 a) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(m.v, _mm256_setzero_pd(), _CMP_LE_OQ), a.v)};
  }
};
#pragma GCC pop_options

#endif
#if !defined(PIPETTE_SIMD_SSE2)

struct Lane1 {
  static constexpr int kLanes = 1;
  static constexpr const char* kIsa = "scalar";
  double v;
  static Lane1 load(const double* p) { return {*p}; }
  static Lane1 broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }
  Lane1 operator+(Lane1 b) const { return {v + b.v}; }
  Lane1 operator-(Lane1 b) const { return {v - b.v}; }
  Lane1 operator*(Lane1 b) const { return {v * b.v}; }
  Lane1 operator/(Lane1 b) const { return {v / b.v}; }
  static Lane1 sqrt(Lane1 a) { return {std::sqrt(a.v)}; }
  static Lane1 relu(Lane1 z) { return {z.v < 0.0 ? 0.0 : z.v}; }
  static Lane1 zero_where_nonpositive(Lane1 m, Lane1 a) { return {m.v <= 0.0 ? 0.0 : a.v}; }
};

#endif

}  // namespace pipette::common::simd
