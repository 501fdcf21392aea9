// 3D-parallel configuration (pp, tp, dp) and the enumeration of the search
// space Algorithm 1 walks: all factorizations pp*tp*dp == G under practical
// constraints, with the admissible microbatch sizes for each.
#pragma once

#include <string>
#include <vector>

namespace pipette::parallel {

struct ParallelConfig {
  int pp = 1;  ///< pipeline-parallel ways (number of stages)
  int tp = 1;  ///< tensor-parallel ways
  int dp = 1;  ///< data-parallel ways

  int ways() const { return pp * tp * dp; }
  bool operator==(const ParallelConfig&) const = default;
  std::string str() const;  ///< "pp4·tp8·dp4"-style label
};

inline constexpr int kInterleavedChunks = 2;  ///< chunks per GPU of interleaved plans

/// Practical constraints on the enumeration (matching the paper's setup),
/// plus the switches for the fine-grained plan axes layered on top of the
/// 4-tuple space (see parallel/train_plan.h).
struct ConfigConstraints {
  int max_tp = 8;              ///< TP never exceeds one node (paper §II-A)
  int max_micro_batch = 8;     ///< paper sweeps microbatch 1..8
  int fixed_micro_batch = 0;   ///< >0 pins the microbatch size (Fig. 9 sweeps)

  // Plan axes. Disabling all three reproduces the legacy 4-tuple space.
  bool enable_interleaved = true;  ///< enumerate kInterleavedChunks-chunk variants
  bool enable_recompute = true;    ///< allow recomputation memory-relief variants
  bool enable_zero1 = true;        ///< allow ZeRO-1 memory-relief variants
};

/// All (pp, tp, dp) with pp*tp*dp == num_gpus, tp dividing gpus_per_node and
/// tp <= max_tp, pp <= num_layers, sorted by (pp, tp).
std::vector<ParallelConfig> enumerate_parallel_configs(int num_gpus, int gpus_per_node,
                                                       int num_layers,
                                                       const ConfigConstraints& c);

/// Admissible microbatch sizes for a config: dp must divide the global batch,
/// micro must divide the minibatch (= global/dp), micro <= max_micro_batch,
/// and minibatch/micro >= pp. Empty if dp does not divide the global batch.
std::vector<int> micro_batch_options(int global_batch, const ParallelConfig& pc,
                                     const ConfigConstraints& c);

/// Number of microbatches per iteration for a given choice.
inline int num_microbatches(int global_batch, const ParallelConfig& pc, int micro_batch) {
  return global_batch / pc.dp / micro_batch;
}

/// Layers assigned to pipeline stage `stage` (0-based): uneven splits give
/// the first (num_layers % pp) stages one extra layer, as Megatron-LM does.
int layers_of_stage(int num_layers, int pp, int stage);

}  // namespace pipette::parallel
