// Static cluster descriptions (the paper's Table I) plus the heterogeneity
// model that turns document-specified ("spec") link bandwidths into the
// per-pair *attained* bandwidths observed on real fabrics.
#pragma once

#include <cstdint>
#include <string>

namespace pipette::cluster {

/// A class of physical link: the document-specified peak bandwidth and the
/// small fixed software/switch latency per transfer.
struct LinkClass {
  double bandwidth_Bps = 0.0;  ///< spec (document) bandwidth, bytes/second
  double latency_s = 0.0;      ///< per-message latency, seconds
};

enum class GpuKind { V100, A100 };

/// Everything Table I says about a cluster, plus the per-GPU quantities the
/// memory and compute models need.
struct ClusterSpec {
  std::string name;
  int num_nodes = 16;
  int gpus_per_node = 8;
  GpuKind gpu = GpuKind::V100;
  LinkClass intra_node;  ///< NVLink / NVSwitch
  LinkClass inter_node;  ///< Infiniband
  double gpu_peak_flops = 0.0;       ///< fp16 tensor-core peak, FLOP/s
  double gpu_memory_bytes = 0.0;     ///< device memory capacity
  double hbm_bandwidth_Bps = 0.0;    ///< device memory bandwidth
  double cuda_context_bytes = 0.0;   ///< fixed per-process framework residency
  double gemm_efficiency_max = 0.5;  ///< saturating attainable fraction of peak
  /// Per-layer FLOP count at which GEMM efficiency reaches half of its max
  /// (the saturation knee of the efficiency curve; larger GPUs need more work).
  double gemm_efficiency_knee_flops = 0.0;

  int num_gpus() const { return num_nodes * gpus_per_node; }
};

/// Why `spec` cannot describe a cluster — the first unusable field, named by
/// its path (e.g. "gpus_per_node must be >= 1, got 0") — or an empty string
/// when every field is usable: node and GPU counts >= 1; link bandwidths,
/// gpu_peak_flops, gpu_memory_bytes, hbm_bandwidth_Bps and
/// gemm_efficiency_max finite and > 0; link latencies, cuda_context_bytes and
/// gemm_efficiency_knee_flops finite and >= 0. core::PipetteConfigurator
/// throws std::invalid_argument with this reason; engine::ConfigService
/// answers kInvalidRequest with it before admission.
std::string validate(const ClusterSpec& spec);

/// Stable 64-bit digest of every ClusterSpec field. Two clusters with equal
/// digests are indistinguishable to anything that reads only the spec — e.g.
/// the MLP memory estimator, whose training data is simulated from the spec
/// alone (engine::ClusterCache keys trained estimators on this).
std::uint64_t spec_digest(const ClusterSpec& spec);

/// 'Mid-range' cluster of Table I: 8x V100 per node, Infiniband EDR 100 Gbps,
/// NVLink 300 GBps. Defaults to the paper's 16 nodes (128 GPUs).
ClusterSpec mid_range_cluster(int num_nodes = 16);

/// 'High-end' cluster of Table I: 8x A100 per node, Infiniband HDR 200 Gbps,
/// NVSwitch 600 GBps.
ClusterSpec high_end_cluster(int num_nodes = 16);

/// How far the attained bandwidth deviates from spec, per link and per day.
/// Defaults are calibrated so the inter-node spread matches the 10-45 %
/// attained-vs-spec variation reported for production Infiniband clusters
/// (paper Fig. 3 and refs [9]-[11]).
struct HeterogeneityOptions {
  double inter_mean = 0.62;        ///< mean attained fraction of spec, inter-node
  double inter_spread = 0.16;      ///< stddev of the attained fraction
  double inter_min = 0.28;         ///< clamp floor
  double inter_max = 0.94;         ///< clamp ceiling
  double slow_pair_prob = 0.12;    ///< probability a node pair is further degraded
  double slow_pair_factor = 0.40;  ///< extra multiplier on degraded pairs
  double asym_sigma = 0.01;        ///< direction asymmetry (paper: nearly symmetric)
  double intra_mean = 0.92;        ///< NVLink attains close to spec
  double intra_spread = 0.02;
  double daily_sigma = 0.025;      ///< day-to-day AR(1) innovation (Fig. 3 drift)
  double daily_rho = 0.8;          ///< AR(1) persistence across days
  double daily_clamp = 0.12;       ///< max relative daily excursion

  /// A fully homogeneous fabric (attained == spec); used by exactness tests.
  static HeterogeneityOptions none();
};

}  // namespace pipette::cluster
