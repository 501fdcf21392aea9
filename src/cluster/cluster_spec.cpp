#include "cluster/cluster_spec.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/hashing.h"
#include "common/units.h"

namespace pipette::cluster {

std::string validate(const ClusterSpec& spec) {
  const std::pair<const char*, int> counts[] = {
      {"num_nodes", spec.num_nodes},
      {"gpus_per_node", spec.gpus_per_node},
  };
  for (const auto& [field, value] : counts) {
    if (value < 1) return std::string(field) + " must be >= 1, got " + std::to_string(value);
  }
  // Quantities a time or a capacity divides by must be positive; additive
  // costs may be zero. NaN fails both tests.
  const std::pair<const char*, double> positive[] = {
      {"intra_node.bandwidth_Bps", spec.intra_node.bandwidth_Bps},
      {"inter_node.bandwidth_Bps", spec.inter_node.bandwidth_Bps},
      {"gpu_peak_flops", spec.gpu_peak_flops},
      {"gpu_memory_bytes", spec.gpu_memory_bytes},
      {"hbm_bandwidth_Bps", spec.hbm_bandwidth_Bps},
      {"gemm_efficiency_max", spec.gemm_efficiency_max},
  };
  const std::pair<const char*, double> non_negative[] = {
      {"intra_node.latency_s", spec.intra_node.latency_s},
      {"inter_node.latency_s", spec.inter_node.latency_s},
      {"cuda_context_bytes", spec.cuda_context_bytes},
      {"gemm_efficiency_knee_flops", spec.gemm_efficiency_knee_flops},
  };
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  for (const auto& [field, value] : positive) {
    if (!(std::isfinite(value) && value > 0.0)) {
      return std::string(field) + " must be finite and > 0, got " + fmt(value);
    }
  }
  for (const auto& [field, value] : non_negative) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return std::string(field) + " must be finite and >= 0, got " + fmt(value);
    }
  }
  return {};
}

std::uint64_t spec_digest(const ClusterSpec& spec) {
  using common::hash_combine;
  std::uint64_t h = 0x5bec5bec5bec5ull;
  h = common::hash_string(h, spec.name);
  h = hash_combine(h, static_cast<std::uint64_t>(spec.num_nodes));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.gpus_per_node));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.gpu));
  h = hash_combine(h, spec.intra_node.bandwidth_Bps);
  h = hash_combine(h, spec.intra_node.latency_s);
  h = hash_combine(h, spec.inter_node.bandwidth_Bps);
  h = hash_combine(h, spec.inter_node.latency_s);
  h = hash_combine(h, spec.gpu_peak_flops);
  h = hash_combine(h, spec.gpu_memory_bytes);
  h = hash_combine(h, spec.hbm_bandwidth_Bps);
  h = hash_combine(h, spec.cuda_context_bytes);
  h = hash_combine(h, spec.gemm_efficiency_max);
  h = hash_combine(h, spec.gemm_efficiency_knee_flops);
  return h;
}

using common::GBps;
using common::Gbps;
using common::GiB;
using common::TFLOPS;
using common::usec;

ClusterSpec mid_range_cluster(int num_nodes) {
  ClusterSpec s;
  s.name = "mid-range";
  s.num_nodes = num_nodes;
  s.gpus_per_node = 8;
  s.gpu = GpuKind::V100;
  // latency_s is the effective per-message cost: hardware latency plus the
  // protocol ramp small messages pay before attaining peak bandwidth
  // (~12 MB ramp over EDR ~= 1 ms).
  s.intra_node = {GBps(300.0), usec(12.0)};
  s.inter_node = {Gbps(100.0), usec(2200.0)};
  s.gpu_peak_flops = TFLOPS(125.0);  // V100 fp16 tensor core
  s.hbm_bandwidth_Bps = 900e9;
  s.gpu_memory_bytes = 32e9;  // V100-32GB (decimal, as marketed)
  s.cuda_context_bytes = GiB(0.75);
  s.gemm_efficiency_max = 0.52;
  s.gemm_efficiency_knee_flops = 5.0e10;
  return s;
}

ClusterSpec high_end_cluster(int num_nodes) {
  ClusterSpec s;
  s.name = "high-end";
  s.num_nodes = num_nodes;
  s.gpus_per_node = 8;
  s.gpu = GpuKind::A100;
  s.intra_node = {GBps(600.0), usec(10.0)};
  s.inter_node = {Gbps(200.0), usec(1600.0)};  // see mid-range note on ramp
  s.gpu_peak_flops = TFLOPS(312.0);  // A100 fp16 tensor core
  s.hbm_bandwidth_Bps = 2039e9;
  s.gpu_memory_bytes = 80e9;  // A100-80GB (decimal, as marketed)
  s.cuda_context_bytes = GiB(0.95);
  s.gemm_efficiency_max = 0.50;
  s.gemm_efficiency_knee_flops = 12.0e10;
  return s;
}

HeterogeneityOptions HeterogeneityOptions::none() {
  HeterogeneityOptions h;
  h.inter_mean = 1.0;
  h.inter_spread = 0.0;
  h.inter_min = 1.0;
  h.inter_max = 1.0;
  h.slow_pair_prob = 0.0;
  h.asym_sigma = 0.0;
  h.intra_mean = 1.0;
  h.intra_spread = 0.0;
  h.daily_sigma = 0.0;
  h.daily_rho = 0.0;
  return h;
}

}  // namespace pipette::cluster
