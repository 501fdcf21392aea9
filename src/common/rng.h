// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component in this repository (cluster heterogeneity, profiling
// noise, simulator jitter, simulated annealing, MLP initialization) draws from an
// explicitly seeded Rng so that tests and benches are reproducible bit-for-bit.
// The generator is xoshiro256** seeded through splitmix64, which is both fast and
// statistically solid for simulation workloads.
#pragma once

#include <cstdint>
#include <vector>

namespace pipette::common {

/// Counter-free, seedable PRNG (xoshiro256**). Copyable; copies evolve independently.
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent child stream. Forking with distinct `stream_id`s from
  /// the same parent yields decorrelated generators; the parent is not advanced.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);
  /// Standard normal via Box-Muller (no cached spare: keeps the state minimal).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
      const int j = uniform_int(0, i);
      std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace pipette::common
