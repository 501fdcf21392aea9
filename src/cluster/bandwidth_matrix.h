// Profiled GPU-to-GPU bandwidths at the resolution they are measured
// (mpiGraph style): one reading per ordered node pair, and one per ordered
// GPU pair inside each node — 192 KiB at 1024 GPUs (128² + 1024·8 doubles).
// This is the only interface through which Pipette's estimators see the
// cluster: the profiler and sanitizer write the readings, the persist codec
// and the incremental evaluator read the two tables directly, and the full
// latency model's B(g1, g2) terms read at().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pipette::cluster {

class BandwidthMatrix {
 public:
  BandwidthMatrix() = default;
  /// A num_nodes x gpus_per_node fabric with every reading `fill`
  /// (self-pairs get +infinity).
  BandwidthMatrix(int num_nodes, int gpus_per_node, double fill = 0.0);

  int num_nodes() const { return nn_; }
  int gpus_per_node() const { return gpn_; }
  int num_gpus() const { return nn_ * gpn_; }

  /// Attained bandwidth from g1 to g2, bytes/second: their node pair's
  /// reading across nodes, else their intra-node reading. Self-pairs are
  /// +infinity (a transfer to oneself is free).
  double at(int g1, int g2) const {
    const int n1 = g1 / gpn_, n2 = g2 / gpn_;
    return n1 != n2 ? inter(n1, n2) : intra(n1, g1 - n1 * gpn_, g2 - n2 * gpn_);
  }

  /// The reading of ordered node pair n1 -> n2 (+infinity when n1 == n2).
  double inter(int n1, int n2) const { return inter_[inter_index(n1, n2)]; }
  void set_inter(int n1, int n2, double bw) { inter_[inter_index(n1, n2)] = bw; }
  /// The reading from local GPU a to local GPU b of `node` (+infinity when
  /// a == b).
  double intra(int node, int a, int b) const { return intra_[intra_index(node, a, b)]; }
  void set_intra(int node, int a, int b, double bw) { intra_[intra_index(node, a, b)] = bw; }

  /// Row-major [n1 * num_nodes + n2] node-pair readings.
  std::span<const double> inter_readings() const { return inter_; }
  /// Row-major [g1 * gpus_per_node + local index of g2] intra-node readings:
  /// row g1 holds GPU g1's readings to every GPU of its own node.
  std::span<const double> intra_readings() const { return intra_; }

 private:
  std::size_t inter_index(int n1, int n2) const {
    return static_cast<std::size_t>(n1) * nn_ + n2;
  }
  std::size_t intra_index(int node, int a, int b) const {
    return (static_cast<std::size_t>(node) * gpn_ + a) * gpn_ + b;
  }
  int nn_ = 0;
  int gpn_ = 1;
  std::vector<double> inter_;
  std::vector<double> intra_;
};

}  // namespace pipette::cluster
