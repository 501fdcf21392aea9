// Fixed-width double lane abstraction for the MLP kernels (mlp/matrix.cpp,
// mlp/network.cpp): an SSE2 baseline (2 lanes, implied by x86-64), AVX2/AVX
// when compiled in (4 lanes, -mavx2), and a scalar fallback elsewhere —
// selected at compile time.
//
// Bit-identity contract (why the tiled kernels match their scalar loops):
//   - IEEE-754 addition, subtraction, multiplication, division and square
//     root are exact per element: a packed divpd computes the identical
//     rounded quotient in every lane that divsd computes for that element,
//     so element-wise expressions are bit-identical however many lanes
//     evaluate at once. (No FMA contraction: nothing here is built with
//     -mfma, so a*b + c stays two roundings.)
//   - Sums are never reassociated: each lane carries one output element
//     through the scalar loop's operations in the scalar loop's order
//     (tests/mlp_test.cpp keeps the historical loops as the reference).
#pragma once

#if defined(__AVX2__) || defined(__AVX__)
#include <immintrin.h>
#define PIPETTE_SIMD_LANES 4
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define PIPETTE_SIMD_LANES 2
#else
#include <cmath>
#define PIPETTE_SIMD_LANES 1
#endif

namespace pipette::common::simd {

inline constexpr int kLanes = PIPETTE_SIMD_LANES;

/// Compile-time selected instruction set of the Lane type.
inline constexpr const char* isa_name() {
#if PIPETTE_SIMD_LANES == 4
  return "avx2";
#elif PIPETTE_SIMD_LANES == 2
  return "sse2";
#else
  return "scalar";
#endif
}

/// One register of kLanes doubles. Thin wrapper: every op maps to a single
/// intrinsic (or the plain scalar op at kLanes == 1).
struct Lane {
#if PIPETTE_SIMD_LANES == 4
  __m256d v;
  static Lane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Lane broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  friend Lane operator+(Lane a, Lane b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Lane operator-(Lane a, Lane b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Lane operator*(Lane a, Lane b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Lane operator/(Lane a, Lane b) { return {_mm256_div_pd(a.v, b.v)}; }
  static Lane sqrt(Lane a) { return {_mm256_sqrt_pd(a.v)}; }
  static Lane relu(Lane z) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(z.v, _mm256_setzero_pd(), _CMP_LT_OQ), z.v)};
  }
  static Lane zero_where_nonpositive(Lane m, Lane a) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(m.v, _mm256_setzero_pd(), _CMP_LE_OQ), a.v)};
  }
#elif PIPETTE_SIMD_LANES == 2
  __m128d v;
  static Lane load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Lane broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  friend Lane operator+(Lane a, Lane b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Lane operator-(Lane a, Lane b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Lane operator*(Lane a, Lane b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Lane operator/(Lane a, Lane b) { return {_mm_div_pd(a.v, b.v)}; }
  static Lane sqrt(Lane a) { return {_mm_sqrt_pd(a.v)}; }
  static Lane relu(Lane z) { return {_mm_andnot_pd(_mm_cmplt_pd(z.v, _mm_setzero_pd()), z.v)}; }
  static Lane zero_where_nonpositive(Lane m, Lane a) {
    return {_mm_andnot_pd(_mm_cmple_pd(m.v, _mm_setzero_pd()), a.v)};
  }
#else
  double v;
  static Lane load(const double* p) { return {*p}; }
  static Lane broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }
  friend Lane operator+(Lane a, Lane b) { return {a.v + b.v}; }
  friend Lane operator-(Lane a, Lane b) { return {a.v - b.v}; }
  friend Lane operator*(Lane a, Lane b) { return {a.v * b.v}; }
  friend Lane operator/(Lane a, Lane b) { return {a.v / b.v}; }
  static Lane sqrt(Lane a) { return {std::sqrt(a.v)}; }
  static Lane relu(Lane z) { return {z.v < 0.0 ? 0.0 : z.v}; }
  static Lane zero_where_nonpositive(Lane m, Lane a) { return {m.v <= 0.0 ? 0.0 : a.v}; }
#endif

  // relu(z) is the scalar `z < 0.0 ? 0.0 : z` per lane and
  // zero_where_nonpositive(m, a) is `m <= 0.0 ? 0.0 : a`: ordered compares
  // plus a mask, so -0.0 and NaN pass through exactly as the scalar branch
  // lets them (a max against 0.0 would turn -0.0 into +0.0).
};

}  // namespace pipette::common::simd
