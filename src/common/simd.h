// Fixed-width double lane abstraction for the evaluator's hot kernels: an
// SSE2 baseline (2 lanes, implied by x86-64), AVX2/AVX when compiled in
// (4 lanes, -mavx2), and a scalar fallback elsewhere — selected at compile
// time, with a runtime-dispatch hook (set_enabled) that forces the scalar
// path in-process so tests and benches can race both paths in one binary.
//
// Bit-identity contract (why the vector kernels below are safe to substitute
// for their scalar originals):
//   - IEEE-754 addition, subtraction, multiplication, division, square root
//     and max are exact per element: a packed divpd computes the identical
//     rounded quotient in every lane that divsd computes for that element,
//     so element-wise expressions like a/b + c are bit-identical however
//     many lanes evaluate at once. (No FMA contraction: nothing here is
//     built with -mfma, so a*b + c stays two roundings.)
//   - max is associative and commutative on the NaN-free data the evaluator
//     folds (priced latencies), so regrouping a sequential fold into vector
//     accumulators + a horizontal reduce picks the same element.
//   Sums are NOT reassociated anywhere: every kernel here either folds with
//   max or keeps the scalar bracketing per element.
//
// The fold helpers (max_fold/price_max) are what the evaluator calls; each
// consults enabled() once and falls back to the historical scalar loop
// shape, so `set_enabled(false)` measures the true pre-SIMD code.
//
// The MLP kernels (mlp/matrix.cpp, mlp/network.cpp) are written on Lane too
// but never consult enabled(): each lane carries one output element through
// the scalar loop's operations in the scalar loop's order, so there is no
// scalar fork to race (tests/mlp_test.cpp keeps the historical loops as the
// reference).
#pragma once

#include <atomic>

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

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Runtime-dispatch hook: the fold helpers take the vector path only while
/// enabled() (relaxed atomic — a plain load in the kernels). Both paths are
/// bit-identical by the contract above; toggling exists so one binary can
/// measure and cross-check scalar vs SIMD (bench/sa_throughput's simd
/// columns, the bit-identity tests).
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

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
  static Lane max(Lane a, Lane b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Lane relu(Lane z) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(z.v, _mm256_setzero_pd(), _CMP_LT_OQ), z.v)};
  }
  static Lane zero_where_nonpositive(Lane m, Lane a) {
    return {_mm256_andnot_pd(_mm256_cmp_pd(m.v, _mm256_setzero_pd(), _CMP_LE_OQ), a.v)};
  }
  double hmax() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d m = _mm_max_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
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
  static Lane max(Lane a, Lane b) { return {_mm_max_pd(a.v, b.v)}; }
  static Lane relu(Lane z) { return {_mm_andnot_pd(_mm_cmplt_pd(z.v, _mm_setzero_pd()), z.v)}; }
  static Lane zero_where_nonpositive(Lane m, Lane a) {
    return {_mm_andnot_pd(_mm_cmple_pd(m.v, _mm_setzero_pd()), a.v)};
  }
  double hmax() const { return _mm_cvtsd_f64(_mm_max_sd(v, _mm_unpackhi_pd(v, v))); }
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
  static Lane max(Lane a, Lane b) { return {a.v > b.v ? a.v : b.v}; }
  static Lane relu(Lane z) { return {z.v < 0.0 ? 0.0 : z.v}; }
  static Lane zero_where_nonpositive(Lane m, Lane a) { return {m.v <= 0.0 ? 0.0 : a.v}; }
  double hmax() const { return v; }
#endif

  // relu(z) is the scalar `z < 0.0 ? 0.0 : z` per lane and
  // zero_where_nonpositive(m, a) is `m <= 0.0 ? 0.0 : a`: ordered compares
  // plus a mask, so -0.0 and NaN pass through exactly as the scalar branch
  // lets them (a max against 0.0 would turn -0.0 into +0.0).

  /// Fused pricing form a/b + c: one div + one add per lane, the exact
  /// bracketing of the scalar `bytes/bw + lat` (no FMA contraction is
  /// possible on a division, so the rounding is the scalar's).
  static Lane div_add(Lane a, Lane b, Lane c) { return a / b + c; }
};

/// max over {init, p[0..n)}: vector accumulators + horizontal reduce when
/// enabled, the sequential scalar fold otherwise. Bit-identical either way
/// (max is exact and order-free).
inline double max_fold(const double* p, int n, double init) {
  if constexpr (kLanes > 1) {
    if (enabled() && n >= 2 * kLanes) {
      Lane a0 = Lane::broadcast(init), a1 = Lane::broadcast(init);
      int i = 0;
      for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
        a0 = Lane::max(a0, Lane::load(p + i));
        a1 = Lane::max(a1, Lane::load(p + i + kLanes));
      }
      for (; i + kLanes <= n; i += kLanes) a0 = Lane::max(a0, Lane::load(p + i));
      double m = Lane::max(a0, a1).hmax();
      for (; i < n; ++i) m = m > p[i] ? m : p[i];
      return m;
    }
  }
  double m = init;
  for (int i = 0; i < n; ++i) m = m > p[i] ? m : p[i];
  return m;
}

/// The flow-pricing kernel of reprice_hop_column / score_batch's columnar
/// cost assembly: max over y of (bytes/bw_fwd + lat) + (bytes/bw_bwd + lat).
/// Each element keeps the scalar bracketing exactly (div_add twice, then one
/// add); the max fold is order-free, so the wide fold + horizontal reduce is
/// bit-identical to the full model's sequential scan. All inputs are
/// non-negative, matching the scalar accumulator's 0.0 start.
inline double price_max(const double* bytes, const double* bwf, const double* bwb,
                        const double* lat, int n) {
  if constexpr (kLanes > 1) {
    if (enabled() && n >= kLanes) {
      Lane acc = Lane::broadcast(0.0);
      int i = 0;
      for (; i + kLanes <= n; i += kLanes) {
        const Lane by = Lane::load(bytes + i);
        const Lane l = Lane::load(lat + i);
        const Lane fwd = Lane::div_add(by, Lane::load(bwf + i), l);
        const Lane bwd = Lane::div_add(by, Lane::load(bwb + i), l);
        acc = Lane::max(acc, fwd + bwd);
      }
      double h = acc.hmax();
      for (; i < n; ++i) {
        const double fwd = bytes[i] / bwf[i] + lat[i];
        const double bwd = bytes[i] / bwb[i] + lat[i];
        const double s = fwd + bwd;
        h = h > s ? h : s;
      }
      return h;
    }
  }
  double h = 0.0;
  for (int i = 0; i < n; ++i) {
    const double fwd = bytes[i] / bwf[i] + lat[i];
    const double bwd = bytes[i] / bwb[i] + lat[i];
    const double s = fwd + bwd;
    h = h > s ? h : s;
  }
  return h;
}

}  // namespace pipette::common::simd
