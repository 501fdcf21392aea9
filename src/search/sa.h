// Generic simulated annealing, the optimizer behind fine-grained worker
// dedication (paper §IV): time-limited, geometric cooling on the paper's fixed
// schedule (below), seeded and fully deterministic under an iteration cap.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace pipette::search {

/// Derives the SA seed for one named unit of work from a base seed and a
/// stable key (e.g. `Candidate::str()`). The seed depends only on the key,
/// never on iteration order or rank, so serial and parallel schedules anneal
/// every candidate identically and produce the same ranking.
std::uint64_t derive_seed(std::uint64_t base, std::string_view key);

inline constexpr double kInitTempFrac = 0.05;  ///< T0 = frac * initial cost (scale-free)
inline constexpr double kAlpha = 0.999;        ///< paper's temperature reduction coefficient
inline constexpr int kItersPerTemp = 16;       ///< proposals evaluated per temperature step

struct SaOptions {
  double time_limit_s = 10.0;  ///< paper: "10 seconds for the SA time limit"
  long max_iters = std::numeric_limits<long>::max();
  std::uint64_t seed = 13;
};

struct SaResult {
  double initial_cost = 0.0;
  double best_cost = 0.0;
  long iters = 0;     ///< decided proposals (advance temperature + budget)
  long accepted = 0;
  double wall_s = 0.0;
};

namespace detail {

/// The Metropolis decision for a worsening move (delta > 0) whose uniform
/// draw is `u`: accept with probability exp(-delta / temp). exp() is skipped
/// where it is exactly 0.0 (argument far past the subnormal range, where
/// u < 0.0 can never hold), so the decision is bit-identical to the plain rule.
inline bool metropolis_accepts_draw(double delta, double temp, double u) {
  const double arg = -delta / temp;
  return arg > -760.0 && u < std::exp(arg);
}

/// The Metropolis rule shared by both annealers (simulated_annealing below
/// and ResumableMappingAnneal): accept improvements, else decide by
/// metropolis_accepts_draw. One uniform draw is consumed exactly when
/// delta > 0.
inline bool metropolis_accept(double delta, double temp, common::Rng& rng) {
  if (delta <= 0.0) return true;
  return metropolis_accepts_draw(delta, temp, rng.uniform());
}

/// The largest cost increase the Metropolis rule could still accept at
/// `temp` when its uniform draw is `u`: metropolis_accepts_draw(delta, temp,
/// u) is false for every double delta > metropolis_max_delta(temp, u). The
/// real cut is temp * -ln(u); a relative and an absolute margin of 2^-40 (in
/// units of temp) absorb the rounding of log, the division and exp, and the
/// product is rounded up one ulp so it cannot land below the cut even when
/// it is subnormal. A bound about 1e-12 (relative) too generous only prices
/// in full the proposals whose delta lands inside the margin. u = 0 accepts
/// every delta up to the exp() underflow, so it gets no bound (+inf).
inline double metropolis_max_delta(double temp, double u) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (u <= 0.0) return kInf;
  const double x = -std::log(u);
  return std::nextafter(temp * (x + x * 0x1p-40 + 0x1p-40), kInf);
}

}  // namespace detail

/// Minimizes `cost(state)` by repeatedly applying `mutate(state, rng)` to a
/// copy and accepting by the Metropolis rule. On return `state` holds the
/// best solution found. State must be copyable. Over the full latency model
/// this is the reference the incremental mapping chain
/// (search::ResumableMappingAnneal) must follow move for move: the same rng
/// stream, acceptance rule, cooling and deadline checks.
template <typename State, typename CostFn, typename MutateFn>
SaResult simulated_annealing(State& state, CostFn&& cost, MutateFn&& mutate, const SaOptions& opt) {
  const common::Stopwatch watch;
  // Iteration-capped (deterministic) runs leave time_limit_s at infinity and
  // should not pay for wall-clock reads in the loop at all; timed runs batch
  // the deadline check to the temperature step (every kItersPerTemp
  // proposals) instead of paying a steady_clock read per iteration.
  const bool timed = std::isfinite(opt.time_limit_s);

  common::Rng rng(opt.seed);
  State current = state;
  double cur_cost = cost(current);
  State best = current;
  double best_cost = cur_cost;

  SaResult res;
  res.initial_cost = cur_cost;

  double temp = std::max(kInitTempFrac * cur_cost, 1e-300);
  int since_temp_step = 0;
  while (res.iters < opt.max_iters) {
    if (timed && since_temp_step == 0 && watch.seconds() >= opt.time_limit_s) break;
    State cand = current;
    mutate(cand, rng);
    const double c = cost(cand);
    const double delta = c - cur_cost;
    if (detail::metropolis_accept(delta, temp, rng)) {
      current = std::move(cand);
      cur_cost = c;
      ++res.accepted;
      if (cur_cost < best_cost) {
        best = current;
        best_cost = cur_cost;
      }
    }
    if (++since_temp_step >= kItersPerTemp) {
      temp *= kAlpha;
      since_temp_step = 0;
    }
    ++res.iters;
  }

  state = std::move(best);
  res.best_cost = best_cost;
  res.wall_s = watch.seconds();
  return res;
}

}  // namespace pipette::search
