#include "sim/stage_costs.h"

#include <algorithm>
#include <limits>

#include "parallel/groups.h"
#include "sim/collectives.h"

namespace pipette::sim {

double gemm_efficiency(const cluster::ClusterSpec& spec, double per_gpu_layer_flops) {
  // Saturating curve: eff -> max as the per-layer work grows past the knee.
  return spec.gemm_efficiency_max * per_gpu_layer_flops /
         (per_gpu_layer_flops + spec.gemm_efficiency_knee_flops);
}

StageCosts stage_costs(const cluster::Topology& topo, const model::TrainingJob& job,
                       const parallel::Mapping& m, const parallel::TrainPlan& plan, int vstage,
                       int dpr) {
  const auto& mcfg = job.model;
  const auto& pc = plan.pc;
  const int micro_batch = plan.micro_batch;
  const int total = plan.total_stages();
  const int position = vstage % pc.pp;  // physical GPU rank along the pipeline
  const int layers = parallel::layers_of_stage(mcfg.num_layers, total, vstage);

  const double layer_flops = model::layer_fwd_flops(mcfg, micro_batch) / pc.tp;
  const double eff = gemm_efficiency(topo.spec(), layer_flops);
  const double flops_per_s = topo.spec().gpu_peak_flops * eff;

  double fwd_flops = layers * layer_flops;
  if (vstage == total - 1) fwd_flops += model::logits_fwd_flops(mcfg, micro_batch) / pc.tp;
  const double fwd_compute = fwd_flops / flops_per_s + layers * kKernelLaunchS;
  // Backward also accumulates fp32 main gradients for the stage's parameter
  // shard every microbatch — an HBM-bound read-modify-write that penalizes
  // configurations holding many parameters per GPU.
  const double grad_accum =
      static_cast<double>(stage_parameters(mcfg, total, vstage)) / pc.tp * 8.0 /
      topo.spec().hbm_bandwidth_Bps;
  // Activation recomputation re-executes forward work inside the backward
  // pass: the whole chunk forward (full) or just the attention cores
  // (selective). Plans without recomputation add exactly 0.0.
  double recompute_s = 0.0;
  if (plan.recompute == parallel::Recompute::kFull) {
    recompute_s = layers * layer_flops / flops_per_s + layers * kKernelLaunchS;
  } else if (plan.recompute == parallel::Recompute::kSelective) {
    recompute_s = layers * (model::layer_attention_core_flops(mcfg, micro_batch) / pc.tp) /
                  flops_per_s;
  }
  const double bwd_compute =
      2.0 * fwd_flops / flops_per_s + grad_accum + layers * kKernelLaunchS + recompute_s;

  // Tensor-parallel all-reduces: 2 per layer in forward, 2 in backward, each
  // of one b*s*h fp16 tensor, ring over the TP group's slowest true link.
  double tp_fwd = 0.0, tp_bwd = 0.0;
  if (pc.tp > 1) {
    const auto group = parallel::tp_group_gpus(m, position, dpr);
    double min_bw = std::numeric_limits<double>::infinity();
    double max_lat = 0.0;
    for (int g1 : group) {
      for (int g2 : group) {
        if (g1 == g2) continue;
        min_bw = std::min(min_bw, topo.bandwidth(g1, g2));
        max_lat = std::max(max_lat, topo.latency(g1, g2));
      }
    }
    const double per_ar =
        ring_allreduce_time(model::tp_message_bytes(mcfg, micro_batch), pc.tp, min_bw, max_lat);
    tp_fwd = 2.0 * layers * per_ar;
    tp_bwd = 2.0 * layers * per_ar;
  }

  StageCosts c;
  c.fwd_compute_s = fwd_compute + kPerOpOverheadS;
  c.bwd_compute_s = bwd_compute + kPerOpOverheadS;
  c.tp_fwd_s = tp_fwd;
  c.tp_bwd_s = tp_bwd;
  c.compute_s = c.fwd_compute_s + c.bwd_compute_s;
  c.tp_comm_s = tp_fwd + tp_bwd;
  c.fwd_s = c.fwd_compute_s + tp_fwd;
  c.bwd_s = c.bwd_compute_s + tp_bwd;
  return c;
}

double activation_bytes_per_layer(const model::TransformerConfig& mcfg, int micro_batch, int tp,
                                  parallel::Recompute recompute) {
  switch (recompute) {
    case parallel::Recompute::kSelective:
      return model::layer_activation_bytes_selective(mcfg, micro_batch, tp);
    case parallel::Recompute::kFull:
      return model::layer_activation_bytes_checkpoint(mcfg, micro_batch, tp);
    case parallel::Recompute::kNone:
      break;
  }
  return model::layer_activation_bytes(mcfg, micro_batch, tp);
}

std::int64_t stage_parameters(const model::TransformerConfig& mcfg, int pp, int stage) {
  const int layers = parallel::layers_of_stage(mcfg.num_layers, pp, stage);
  std::int64_t params = static_cast<std::int64_t>(layers) * model::layer_parameters(mcfg);
  if (stage == 0) params += model::embedding_parameters(mcfg);
  if (stage == pp - 1) {
    params += 2 * mcfg.hidden_size;  // final layernorm
    // Megatron keeps a tied copy of the word embedding on the last stage for
    // the logits GEMM when the first and last stages are distinct.
    if (pp > 1) params += static_cast<std::int64_t>(mcfg.vocab_size) * mcfg.hidden_size;
  }
  return params;
}

double dp_gradient_bytes(const model::TransformerConfig& mcfg, const parallel::ParallelConfig& pc,
                         int stage) {
  return static_cast<double>(stage_parameters(mcfg, pc.pp, stage)) / pc.tp * 4.0;  // fp32 grads
}

double position_parameters(const model::TransformerConfig& mcfg, const parallel::TrainPlan& plan,
                           int position) {
  double params = 0.0;
  for (int chunk = 0; chunk < plan.virtual_stages; ++chunk) {
    params += static_cast<double>(stage_parameters(mcfg, plan.total_stages(),
                                                   chunk * plan.pc.pp + position)) /
              plan.pc.tp;
  }
  return params;
}

double dp_sync_bytes(const model::TransformerConfig& mcfg, const parallel::TrainPlan& plan,
                     int position) {
  const double bytes = position_parameters(mcfg, plan, position) * 4.0;  // fp32 grads
  // ZeRO-1 replaces the gradient all-reduce (2 volumes) with a fp32-gradient
  // reduce-scatter (1 volume) plus an fp16-parameter all-gather (0.5): 0.75x.
  return plan.zero1 ? bytes * 0.75 : bytes;
}

}  // namespace pipette::sim
