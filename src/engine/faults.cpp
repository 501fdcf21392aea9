#include "engine/faults.h"

#include <limits>

#include "common/hashing.h"

namespace pipette::engine {

using common::hash_combine;
using common::hash_mix;

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDeadLink: return "dead_link";
    case FaultKind::kDegradedLink: return "degraded_link";
    case FaultKind::kNanLink: return "nan_link";
    case FaultKind::kNegativeLink: return "negative_link";
    case FaultKind::kPartialCoverage: return "partial_coverage";
    case FaultKind::kDeadNode: return "dead_node";
    case FaultKind::kTransientProfileFailure: return "transient_profile_failure";
    case FaultKind::kStragglerRound: return "straggler_round";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultOptions& opt) : opt_(opt) {
  if (!opt_.enabled) return;
  if (opt_.kind != FaultKind::kNone) {
    kind_ = opt_.kind;
  } else {
    const auto n_kinds = static_cast<std::uint64_t>(FaultKind::kCount) - 1;
    kind_ = static_cast<FaultKind>(1 + hash_mix(opt_.seed) % n_kinds);
  }
  target_a_ = hash_mix(opt_.seed ^ 0xa11ce5ull);
  target_b_ = hash_mix(opt_.seed ^ 0xb0b5ull);
  if (opt_.metrics != nullptr) {
    m_injected_ = opt_.metrics->counter("pipette.faults.injected_readings");
    m_transient_ = opt_.metrics->counter("pipette.faults.transient_failures");
    m_dropped_ = opt_.metrics->counter("pipette.faults.dropped_pairs");
  }
}

std::uint64_t FaultInjector::fingerprint() const {
  // Pure schedule identity: runs that corrupt identically hash identically.
  // The transient-attempt counter is deliberately excluded — the cache only
  // memoizes runs that succeeded, and successful runs under a transient
  // schedule are uncorrupted. The fixed factors keep their option-era slots.
  std::uint64_t h = hash_mix(0xfa017e5ull ^ static_cast<std::uint64_t>(kind_));
  h = hash_combine(h, opt_.seed);
  h = hash_combine(h, static_cast<std::uint64_t>(opt_.transient_failures));
  h = hash_combine(h, kDegradedFactor);
  h = hash_combine(h, opt_.partial_drop_frac);
  h = hash_combine(h, kStragglerFactor);
  return h;
}

std::pair<int, int> FaultInjector::target_pair(int num_nodes) const {
  if (num_nodes < 2) return {0, 0};
  const int a = static_cast<int>(target_a_ % static_cast<std::uint64_t>(num_nodes));
  const int off = 1 + static_cast<int>(target_b_ % static_cast<std::uint64_t>(num_nodes - 1));
  return {a, (a + off) % num_nodes};
}

void FaultInjector::on_profile_start() {
  if (kind_ != FaultKind::kTransientProfileFailure) return;
  const int attempt = attempts_.fetch_add(1, std::memory_order_relaxed);
  if (attempt < opt_.transient_failures) {
    m_transient_.inc();
    throw cluster::ProfileTransientError("injected transient profiling failure (attempt " +
                                         std::to_string(attempt + 1) + ")");
  }
}

double FaultInjector::corrupt_inter(int num_nodes, int n1, int n2, double measured) {
  switch (kind_) {
    case FaultKind::kDeadLink: {
      const auto [a, b] = target_pair(num_nodes);
      if (n1 == a && n2 == b && a != b) {
        m_injected_.inc();
        return 0.0;
      }
      return measured;
    }
    case FaultKind::kDegradedLink: {
      const auto [a, b] = target_pair(num_nodes);
      if (n1 == a && n2 == b && a != b) {
        m_injected_.inc();
        return measured * kDegradedFactor;
      }
      return measured;
    }
    case FaultKind::kNanLink: {
      const auto [a, b] = target_pair(num_nodes);
      if (n1 == a && n2 == b && a != b) {
        m_injected_.inc();
        return std::numeric_limits<double>::quiet_NaN();
      }
      return measured;
    }
    case FaultKind::kNegativeLink: {
      const auto [a, b] = target_pair(num_nodes);
      if (n1 == a && n2 == b && a != b) {
        m_injected_.inc();
        return -measured;
      }
      return measured;
    }
    case FaultKind::kDeadNode: {
      const int dead =
          num_nodes > 0 ? static_cast<int>(target_a_ % static_cast<std::uint64_t>(num_nodes)) : 0;
      if (n1 == dead || n2 == dead) {
        m_injected_.inc();
        return 0.0;
      }
      return measured;
    }
    default:
      return measured;
  }
}

double FaultInjector::corrupt_intra(int /*node*/, int /*a*/, int /*b*/, double measured) {
  // The taxonomy targets the inter-node fabric — that is where real clusters
  // degrade (NICs, switches) and where plans are sensitive. NVLink faults
  // would exercise the same sanitizer tiers with less interesting routing
  // consequences.
  return measured;
}

bool FaultInjector::drop_inter(int num_nodes, int n1, int n2) {
  if (kind_ != FaultKind::kPartialCoverage) return false;
  // Stateless per-pair coin flip: the same (seed, pair) always lands the same
  // way, independent of measurement order or concurrency.
  std::uint64_t h = hash_combine(opt_.seed, static_cast<std::uint64_t>(num_nodes));
  h = hash_combine(h, static_cast<std::uint64_t>(n1));
  h = hash_combine(h, static_cast<std::uint64_t>(n2));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < opt_.partial_drop_frac) {
    m_dropped_.inc();
    return true;
  }
  return false;
}

double FaultInjector::wall_time_factor() {
  return kind_ == FaultKind::kStragglerRound ? kStragglerFactor : 1.0;
}

}  // namespace pipette::engine
