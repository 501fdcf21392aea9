#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace pipette::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix the parent state with the stream id through splitmix so that children
  // with different ids are decorrelated from each other and from the parent.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 17) ^ (stream_id * 0xd1342543de82ef95ull);
  return Rng(splitmix64(mix));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int lo, int hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // Power-of-two spans (GPU counts, node counts) take the mask path, which is
  // bit-identical to the modulo but skips the 64-bit division — the SA hot
  // loop draws two such operands per proposed move.
  if ((span & (span - 1)) == 0) return lo + static_cast<int>(next_u64() & (span - 1));
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::normal() {
  // Box-Muller; discard the spare to keep the generator state self-contained.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace pipette::common
