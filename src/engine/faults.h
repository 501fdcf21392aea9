// Deterministic fault injection for chaos testing the configure pipeline.
//
// FaultInjector implements cluster::ProfileFaultHook: wired into
// ProfileOptions::faults (ConfigService does this when FaultOptions::enabled)
// it imposes one scheduled fault on every profiling run — which fault, and
// which link/node it hits, is a pure function of the seed. The same seed
// therefore reproduces the same degraded snapshot, the same repairs, and the
// same recommended plan on every machine and at every thread count, which is
// what makes a chaos sweep a regression suite rather than a flake generator.
//
// The taxonomy (one kind per schedule; the chaos suite sweeps kinds × seeds):
//
//   kDeadLink                one ordered node pair reads ~0 (dead fabric link)
//   kDegradedLink            one node pair reads truth × kDegradedFactor
//   kNanLink                 one node pair reports NaN (broken benchmark)
//   kNegativeLink            one node pair reports a negative bandwidth
//   kPartialCoverage         a random subset of node pairs is never measured
//   kDeadNode                every link touching one node is dead (node down)
//   kTransientProfileFailure the first N runs throw ProfileTransientError
//   kStragglerRound          the run succeeds but takes kStragglerFactor longer
//
// The injector is shared by all requests of a service and must be callable
// concurrently: all schedule state is immutable after construction except the
// transient-failure attempt counter, which is atomic.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "cluster/profiler.h"
#include "obs/registry.h"

namespace pipette::engine {

enum class FaultKind {
  kNone = 0,
  kDeadLink,
  kDegradedLink,
  kNanLink,
  kNegativeLink,
  kPartialCoverage,
  kDeadNode,
  kTransientProfileFailure,
  kStragglerRound,
  kCount,
};

const char* to_string(FaultKind k);

inline constexpr double kDegradedFactor = 1e-4;  ///< kDegradedLink: measured = truth * this
inline constexpr double kStragglerFactor = 8.0;  ///< kStragglerRound: wall-time multiplier

struct FaultOptions {
  bool enabled = false;
  /// Chooses the fault target (and the kind, when kind == kNone).
  std::uint64_t seed = 1;
  /// kNone derives the kind from the seed; any other value pins it.
  FaultKind kind = FaultKind::kNone;
  /// kTransientProfileFailure: runs that throw before one succeeds.
  int transient_failures = 2;
  /// kPartialCoverage: probability a given ordered node pair is unmeasured.
  double partial_drop_frac = 0.25;
  /// Optional pipette.faults.* counters.
  obs::Registry* metrics = nullptr;
};

class FaultInjector final : public cluster::ProfileFaultHook {
 public:
  explicit FaultInjector(const FaultOptions& opt);

  /// The schedule actually in force (resolved from the seed when
  /// opt.kind == kNone).
  FaultKind kind() const { return kind_; }
  /// Seed-derived node the link faults target: the dead node, and the first
  /// node of the targeted pair. Taken modulo the topology's node count at
  /// measurement time.
  std::uint64_t target_a() const { return target_a_; }
  /// Transient-failure runs injected so far (attempts past the schedule's
  /// budget succeed and do not count).
  int transient_fired() const {
    return std::min(attempts_.load(std::memory_order_relaxed), opt_.transient_failures);
  }

  // cluster::ProfileFaultHook
  std::uint64_t fingerprint() const override;
  void on_profile_start() override;
  double corrupt_inter(int num_nodes, int n1, int n2, double measured) override;
  double corrupt_intra(int node, int a, int b, double measured) override;
  bool drop_inter(int num_nodes, int n1, int n2) override;
  double wall_time_factor() override;

 private:
  /// The targeted ordered node pair, resolved against this topology's size.
  std::pair<int, int> target_pair(int num_nodes) const;

  FaultOptions opt_;
  FaultKind kind_ = FaultKind::kNone;
  std::uint64_t target_a_ = 0;  ///< seed-derived; taken modulo num_nodes
  std::uint64_t target_b_ = 0;  ///< seed-derived peer offset in [1, num_nodes)
  std::atomic<int> attempts_{0};
  obs::Counter m_injected_;
  obs::Counter m_transient_;
  obs::Counter m_dropped_;
};

}  // namespace pipette::engine
