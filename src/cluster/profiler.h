// Simulated network profiling — the substitute for the paper's mpiGraph /
// NCCL-tests runs (Algorithm 1 line 1). Produces a noisy snapshot of the true
// bandwidth matrix and accounts the wall-clock cost of taking it, which feeds
// the "Bandwidth Profiling" row of Table II.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "cluster/bandwidth_matrix.h"
#include "cluster/sanitizer.h"
#include "cluster/topology.h"

namespace pipette::cluster {

/// Thrown when a profiling run fails for a transient reason (a flapping link,
/// a node that missed the barrier) — the caller may retry; a fresh run can
/// succeed. Anything else escaping profile_network is a real bug.
struct ProfileTransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Injection point for scheduled measurement faults. The profiler calls the
/// hook at each measurement site; implementations (engine::FaultInjector)
/// decide purely from their own seed what to corrupt, so a given hook state
/// reproduces the same faulty snapshot every run. A null hook is the
/// fault-free fast path — no virtual calls are made.
class ProfileFaultHook {
 public:
  virtual ~ProfileFaultHook() = default;
  /// Identifies the fault schedule for cache keying: two hooks with the same
  /// fingerprint must corrupt identically. Profile snapshots taken under
  /// different schedules must not alias in ClusterCache.
  virtual std::uint64_t fingerprint() const = 0;
  /// Called once at the start of a run; may throw ProfileTransientError to
  /// simulate a run that dies before producing a matrix.
  virtual void on_profile_start() = 0;
  /// Maps one inter-node measurement (node n1 -> n2 of `num_nodes`) to its
  /// faulty reading. The node count is passed so implementations can resolve
  /// seed-derived targets statelessly — one hook may serve concurrent runs
  /// over different topologies.
  virtual double corrupt_inter(int num_nodes, int n1, int n2, double measured) = 0;
  /// Maps one intra-node measurement (GPUs a -> b of `node`) likewise.
  virtual double corrupt_intra(int node, int a, int b, double measured) = 0;
  /// True when the ordered node pair should not be measured at all (partial
  /// coverage): the reading keeps its unmeasured default and is left to the
  /// sanitizer. Dropped pairs consume no rng draws and no wall time.
  virtual bool drop_inter(int num_nodes, int n1, int n2) = 0;
  /// Multiplier on the run's wall time (straggler rounds). 1.0 = healthy.
  virtual double wall_time_factor() = 0;
};

inline constexpr double kProbeBytes = 1.0 * (1ull << 30);  ///< probe size per measurement
inline constexpr int kProbeRounds = 2;         ///< probes per ordered pair, averaged
inline constexpr double kProbeSetupS = 0.05;   ///< handshake / barrier cost per probe
inline constexpr double kNodeInitS = 2.0;      ///< communicator bring-up per node

struct ProfileOptions {
  double noise_sigma = 0.02;  ///< relative measurement error
  std::uint64_t seed = 1;
  /// Optional fault schedule (not owned; must outlive the call). Hashed into
  /// profile cache keys via fingerprint().
  ProfileFaultHook* faults = nullptr;
};

struct ProfileResult {
  BandwidthMatrix bw;      ///< measured readings, sanitized
  double wall_time_s = 0;  ///< simulated cost of the profiling run (Table II)
  int num_measurements = 0;
  /// What the sanitizer repaired. clean() on healthy fabrics — the repair
  /// pass never touches a good reading, so fault-free runs are bit-identical
  /// to an unsanitized profile.
  SanitizeReport sanitize;
};

/// Measures every ordered node pair (one reading per pair, which
/// BandwidthMatrix::at applies to every GPU pair across those nodes, as
/// mpiGraph does) and every intra-node GPU pair. Measurement error
/// is multiplicative with the given sigma, clamped to a small positive floor
/// so no noise draw can produce a non-positive bandwidth; kProbeRounds probes
/// are averaged. The result is sanitized before returning: whatever faults the
/// fabric (or the fault hook) imposed, `bw` contains only finite positive
/// readings. May throw ProfileTransientError when a fault hook injects a
/// transient run failure.
ProfileResult profile_network(const Topology& topo, const ProfileOptions& opt);

}  // namespace pipette::cluster
