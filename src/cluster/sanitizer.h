// Bandwidth-matrix sanitizer — the graceful-degradation half of the
// profiling pipeline. Real fabrics hand the profiler dead links, flapping
// NICs, and partially-failed probe rounds; the raw readings then contain
// NaNs, zeros, negatives, or unmeasured node pairs. Everything downstream
// (the latency model, the incremental evaluator, SA) assumes finite positive
// bandwidths, so one bad reading silently poisons every cost it touches.
//
// sanitize_bandwidth() repairs the matrix in place and reports exactly what
// it did, so the repair provenance can ride the request all the way into
// ConfiguratorResult::explain():
//
//   * readings that are non-finite or non-positive are repaired from the
//     best available donor — the symmetric (reverse-direction) reading
//     first, then the median of the healthy readings sharing a source node
//     (inter) or a node (intra), then the global median, and as a last
//     resort a small positive floor;
//   * a node whose inter-node readings are all bad in both directions is
//     quarantined: every link touching it is pinned to the
//     floor rather than imputed from healthy peers, so the optimizer routes
//     around it instead of trusting an invented number;
//   * healthy readings are never touched — on a clean matrix the whole pass
//     is a bit-exact no-op, which is what keeps faults-off runs identical
//     to the pre-sanitizer behaviour.
//
// Granularity is the matrix's, which is the profiler's: one reading per
// ordered node pair (which every GPU pair crossing it reads) and one per
// ordered intra-node GPU pair. A repair rewrites that one reading, and counts
// are per reading.
#pragma once

#include <utility>
#include <vector>

#include "cluster/bandwidth_matrix.h"

namespace pipette::cluster {

/// Bandwidth assigned when no healthy donor exists (and to every link of a
/// quarantined node): pessimistic enough that SA avoids the link, positive
/// enough that every cost stays finite. 1 MB/s.
inline constexpr double kFloorBw = 1e6;

/// What the sanitizer found and did. Counts are readings (node pairs for
/// inter, GPU pairs for intra), matching the profiler's measurement
/// granularity.
struct SanitizeReport {
  int total_readings = 0;       ///< readings inspected
  int repaired_nonfinite = 0;   ///< NaN / infinity readings repaired
  int repaired_nonpositive = 0; ///< zero / negative readings repaired
  int imputed_symmetric = 0;    ///< repaired from the reverse direction
  int imputed_neighbor = 0;     ///< repaired from a healthy-reading median
  int imputed_floor = 0;        ///< no donor at all: pinned to kFloorBw
  /// Nodes with no healthy inter-node link in either direction.
  std::vector<int> quarantined_nodes;
  /// Ordered node pairs whose reading was repaired: (n1, n2) for inter-node
  /// repairs, (n, n) when any intra-node reading of node n was repaired.
  /// Deduplicated; this is what degraded-link accounting keys on.
  std::vector<std::pair<int, int>> repaired_node_pairs;

  int repaired_readings() const { return repaired_nonfinite + repaired_nonpositive; }
  bool clean() const { return repaired_readings() == 0 && quarantined_nodes.empty(); }
};

/// Repairs `bw`'s readings in place (self-pairs excluded — they are
/// +infinity by construction) and returns the provenance report. The node
/// count and width are the matrix's own.
SanitizeReport sanitize_bandwidth(BandwidthMatrix& bw);

}  // namespace pipette::cluster
