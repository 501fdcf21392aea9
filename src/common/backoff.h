// Jittered exponential backoff for retry loops. The persister's record writes
// and the service's transient-profile retries both sleep base · 2^retry ·
// jitter between attempts, and both take the sleep from here, so both are
// bounded the same way.
#pragma once

#include <algorithm>
#include <cmath>

namespace pipette::common {

/// Longest sleep between two attempts. Without it the doubling is unbounded:
/// from about 70 retries, base · 2^retry overflows the integer count of
/// seconds std::this_thread::sleep_for converts it to, and from about 1,030
/// it is infinite. At the shipped defaults (a 10-20 ms base and at
/// most 3 retries) no sleep comes near it.
inline constexpr double kMaxBackoffS = 10.0;

/// Seconds to sleep before retry `retry` (0 for the first): base_s · 2^retry ·
/// jitter, capped at kMaxBackoffS. For a finite base_s >= 0 and a finite
/// jitter > 0 it is finite, and non-decreasing in `retry` at a fixed jitter.
inline double backoff_s(double base_s, int retry, double jitter) {
  return std::min(std::ldexp(base_s, retry) * jitter, kMaxBackoffS);
}

}  // namespace pipette::common
