#include "parallel/parallel_config.h"

#include <cassert>

#include "common/stats.h"

namespace pipette::parallel {

std::string ParallelConfig::str() const {
  return "pp" + std::to_string(pp) + "-tp" + std::to_string(tp) + "-dp" + std::to_string(dp);
}

std::vector<ParallelConfig> enumerate_parallel_configs(int num_gpus, int gpus_per_node,
                                                       int num_layers,
                                                       const ConfigConstraints& c) {
  assert(num_gpus >= 1 && gpus_per_node >= 1);
  std::vector<ParallelConfig> out;
  for (int pp : pipette::common::divisors(num_gpus)) {
    if (pp > num_layers) continue;
    for (int tp : pipette::common::divisors(num_gpus / pp)) {
      if (tp > c.max_tp || tp > gpus_per_node) continue;
      if (gpus_per_node % tp != 0) continue;
      const int dp = num_gpus / pp / tp;
      out.push_back({pp, tp, dp});
    }
  }
  return out;
}

std::vector<int> micro_batch_options(int global_batch, const ParallelConfig& pc,
                                     const ConfigConstraints& c) {
  std::vector<int> out;
  if (global_batch % pc.dp != 0) return out;
  const int mini = global_batch / pc.dp;
  for (int micro : pipette::common::divisors(mini)) {
    if (micro > c.max_micro_batch) break;
    if (c.fixed_micro_batch > 0 && micro != c.fixed_micro_batch) continue;
    const int nmb = mini / micro;
    if (nmb < pc.pp) continue;
    out.push_back(micro);
  }
  return out;
}

int layers_of_stage(int num_layers, int pp, int stage) {
  assert(stage >= 0 && stage < pp);
  const int base = num_layers / pp;
  const int extra = num_layers % pp;
  return base + (stage < extra ? 1 : 0);
}

}  // namespace pipette::parallel
