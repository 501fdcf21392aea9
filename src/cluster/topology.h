// The simulated physical cluster. This is the ground-truth substrate that
// replaces the paper's real V100/A100 clusters: per-direction node-pair
// attained bandwidths drawn from a seeded heterogeneity model, with AR(1)
// day-to-day drift (Fig. 3). Everything downstream — the discrete-event
// pipeline simulator ("actual" runs) and the profiler ("measured" snapshots) —
// reads link state from here.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/bandwidth_matrix.h"
#include "cluster/cluster_spec.h"

namespace pipette::cluster {

class Topology {
 public:
  /// Builds a cluster whose link factors are fully determined by `seed`.
  Topology(ClusterSpec spec, HeterogeneityOptions het, std::uint64_t seed);

  /// A perfectly homogeneous cluster (attained == spec); used by the latency
  /// model exactness tests where closed forms must match the simulator.
  static Topology homogeneous(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  int num_gpus() const { return spec_.num_gpus(); }
  int num_nodes() const { return spec_.num_nodes; }
  int gpus_per_node() const { return spec_.gpus_per_node; }
  int node_of(int gpu) const { return gpu / spec_.gpus_per_node; }
  bool same_node(int g1, int g2) const { return node_of(g1) == node_of(g2); }

  /// Attained bandwidth g1 -> g2 for the current day, bytes/second.
  double bandwidth(int g1, int g2) const;
  /// Per-message latency g1 -> g2, seconds.
  double latency(int g1, int g2) const;
  /// Document-specified bandwidth for the link class of (g1, g2) — what
  /// heterogeneity-unaware tools like AMP assume.
  double spec_bandwidth(int g1, int g2) const;

  /// Advances the AR(1) day state (used to generate the Fig. 3 trace and to
  /// separate the profiling day from the execution day).
  void advance_day();
  int day() const { return day_; }

  /// Snapshot of the current-day attained bandwidths, one reading per
  /// ordered node pair and per ordered intra-node GPU pair.
  BandwidthMatrix true_matrix() const;

  /// Stable 64-bit digest of everything that determines this cluster's
  /// behaviour: the spec plus the attained per-link factors of the current
  /// day (which also distinguishes sub_cluster() slices from directly built
  /// clusters). Two Topology objects with equal fingerprints produce
  /// identical bandwidths, latencies, and sub-clusters — this is what
  /// engine::ClusterCache keys its memoized bandwidth profiles on.
  std::uint64_t fingerprint() const;

  /// Restricts to the first `num_nodes` nodes (same seed-derived link factors)
  /// — how the memory estimator's "profile on up to four nodes" data is made.
  Topology sub_cluster(int num_nodes) const;

 private:
  double inter_factor(int n1, int n2) const;

  ClusterSpec spec_;
  HeterogeneityOptions het_;
  std::uint64_t seed_ = 0;
  int day_ = 0;
  // Base attained fraction per ordered node pair (flattened num_nodes^2) and
  // its current AR(1) daily multiplier.
  std::vector<double> inter_base_;
  std::vector<double> inter_daily_;
  // Attained fraction per intra-node GPU pair, shared across nodes is NOT
  // assumed: indexed [node][local1 * gpn + local2].
  std::vector<double> intra_base_;
};

}  // namespace pipette::cluster
