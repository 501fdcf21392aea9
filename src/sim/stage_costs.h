// Per-microbatch execution cost of one pipeline stage: GEMM compute at a
// saturating fraction of peak, the fixed launch and scheduling overheads
// below, the tensor-parallel all-reduces each transformer layer performs (2
// forward + 2 backward), and — for plans with activation recomputation — the
// forward work re-executed inside the backward pass. These are the C and T_TP
// quantities of the paper's latency models, computed from ground-truth link
// state (the estimators recompute them from *profiled* state, independently).
#pragma once

#include "cluster/topology.h"
#include "model/transformer.h"
#include "parallel/mapping.h"
#include "parallel/train_plan.h"

namespace pipette::sim {

inline constexpr double kKernelLaunchS = 30e-6;  ///< per layer-block launch overhead
/// Per-microbatch scheduling overhead (framework dispatch, P2P handshake,
/// optimizer bookkeeping) — the fixed cost that makes microbatch size 1
/// pipelines slow in practice.
inline constexpr double kPerOpOverheadS = 3.0e-3;

struct StageCosts {
  double fwd_s = 0.0;          ///< forward per microbatch, incl. TP comm
  double bwd_s = 0.0;          ///< backward per microbatch, incl. TP comm
  double fwd_compute_s = 0.0;  ///< compute-only share of fwd_s
  double bwd_compute_s = 0.0;  ///< compute-only share of bwd_s (incl. recompute)
  double tp_fwd_s = 0.0;       ///< TP all-reduce share of fwd_s
  double tp_bwd_s = 0.0;       ///< TP all-reduce share of bwd_s
  double tp_comm_s = 0.0;      ///< tp_fwd_s + tp_bwd_s
  double compute_s = 0.0;      ///< fwd_compute_s + bwd_compute_s
};

/// Attained fraction of GPU peak for one layer's GEMMs: small microbatches
/// underutilize the device, big ones saturate at spec.gemm_efficiency_max.
double gemm_efficiency(const cluster::ClusterSpec& spec, double per_gpu_layer_flops);

/// Cost of virtual stage `vstage` (in [0, plan.total_stages())) for DP
/// replica `dpr` under mapping `m` and plan `plan`: chunk vstage/pp of GPU
/// position vstage % pp (a flat plan's one chunk is stage vstage). The TP
/// all-reduce time uses the true minimum bandwidth within that position's TP
/// group, so a mapping that scatters a TP group across nodes pays for it.
/// Recomputation inflates the backward:
/// full re-runs the chunk's forward, selective re-runs the attention cores.
StageCosts stage_costs(const cluster::Topology& topo, const model::TrainingJob& job,
                       const parallel::Mapping& m, const parallel::TrainPlan& plan, int vstage,
                       int dpr);

/// Resident activation bytes per layer per microbatch under the plan's
/// recomputation level (model::layer_activation_bytes* selected by level).
double activation_bytes_per_layer(const model::TransformerConfig& mcfg, int micro_batch, int tp,
                                  parallel::Recompute recompute);

/// Bytes all-reduced per data-parallel gradient sync for one GPU of `stage`
/// (fp32 master gradients of the stage's parameter shard) — msg_DP of Eq. (6).
double dp_gradient_bytes(const model::TransformerConfig& mcfg, const parallel::ParallelConfig& pc,
                         int stage);

/// Parameters per TP rank resident on pipeline *position* `position`: the
/// sum over the position's chunks c (pipeline stage c*pp + position of
/// plan.total_stages()) of stage_parameters / tp. A flat plan is one chunk,
/// so this is its one stage's share.
double position_parameters(const model::TransformerConfig& mcfg, const parallel::TrainPlan& plan,
                           int position);

/// Plan-aware DP sync bytes for pipeline *position* `position`: the fp32
/// gradient bytes of position_parameters, scaled by 0.75 under ZeRO-1
/// (reduce-scatter of fp32 grads + all-gather of fp16 params instead of a
/// full all-reduce). Equals dp_gradient_bytes for plain plans.
double dp_sync_bytes(const model::TransformerConfig& mcfg, const parallel::TrainPlan& plan,
                     int position);

/// Stage parameter count (layers + embeddings on first/last stage, Megatron
/// layout: the last stage holds a tied embedding copy when pp > 1).
std::int64_t stage_parameters(const model::TransformerConfig& mcfg, int pp, int stage);

}  // namespace pipette::sim
