#include "sim/memory_sim.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "parallel/parallel_config.h"
#include "sim/stage_costs.h"

namespace pipette::sim {

using common::Rng;

namespace {

/// Mixed-precision Adam state, Megatron layout: fp16 weights + fp16 grads +
/// fp32 main grads + fp32 master copy + fp32 momentum + fp32 variance.
constexpr double kBytesPerParam = 20.0;
/// The always-resident share under ZeRO-1: fp16 weights + fp16 grads + fp32
/// main grads. The remaining 12 B/param (master + momentum + variance) are
/// sharded across the DP group.
constexpr double kResidentBytesPerParam = 8.0;
constexpr double kShardedBytesPerParam = 12.0;

std::uint64_t config_hash(const parallel::TrainPlan& plan, const model::TransformerConfig& m) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(plan.pc.pp));
  mix(static_cast<std::uint64_t>(plan.pc.tp) << 8);
  mix(static_cast<std::uint64_t>(plan.pc.dp) << 16);
  mix(static_cast<std::uint64_t>(plan.micro_batch) << 24);
  mix(static_cast<std::uint64_t>(m.num_layers) << 32);
  mix(static_cast<std::uint64_t>(m.hidden_size));
  // The legacy 4-tuple (and the memory-unaware schedule, which never hashed
  // its schedule) keeps the seed hash of the original memory universe; only
  // the genuinely new axes mint new jitter streams.
  if (plan.virtual_stages > 1 || plan.recompute != parallel::Recompute::kNone || plan.zero1) {
    mix(static_cast<std::uint64_t>(plan.virtual_stages) << 40);
    mix(static_cast<std::uint64_t>(plan.recompute) << 48);
    mix(static_cast<std::uint64_t>(plan.zero1) << 56);
  }
  return h;
}

double weights_optimizer_bytes(double params, const parallel::TrainPlan& plan) {
  if (!plan.zero1) return params * kBytesPerParam;
  return params * (kResidentBytesPerParam +
                   kShardedBytesPerParam / static_cast<double>(plan.pc.dp));
}

}  // namespace

MemoryBreakdown simulate_peak_memory(const cluster::ClusterSpec& spec,
                                     const model::TrainingJob& job,
                                     const parallel::TrainPlan& plan, std::uint64_t seed) {
  const auto& m = job.model;
  const auto& pc = plan.pc;
  const int micro_batch = plan.micro_batch;
  const int nmb = parallel::num_microbatches(job.global_batch, pc, micro_batch);
  const int v = plan.virtual_stages;

  MemoryBreakdown worst;
  for (int position = 0; position < pc.pp; ++position) {
    MemoryBreakdown b;

    // Parameters + optimizer state of every chunk on this position, sharded
    // over TP (and the fp32 state additionally over DP under ZeRO-1).
    b.weights_optimizer_bytes =
        weights_optimizer_bytes(position_parameters(m, plan, position), plan);

    // Activations: in-flight units * per-unit residency, a unit being one
    // chunk's microbatch. 1F1B caps the window at (pp - position); the
    // memory-unaware schedule keeps all; interleaving holds its warmup depth
    // of chunk-microbatches, each 1/v of a position's layers.
    int inflight;
    if (v > 1) {
      inflight = std::min(nmb * v, 2 * (pc.pp - position - 1) + (v - 1) * pc.pp + 1);
    } else if (plan.schedule == parallel::PipeSchedule::kMemoryUnaware) {
      inflight = nmb;
    } else {
      inflight = std::min(pc.pp - position, nmb);
    }
    const int chunk_layers = parallel::layers_of_stage(m.num_layers, plan.total_stages(), position);
    double per_mb = chunk_layers * activation_bytes_per_layer(m, micro_batch, pc.tp, plan.recompute);
    // Stage boundary receive/send buffers plus (first stage) embedding output.
    per_mb += 2.0 * model::pp_message_bytes(m, micro_batch);
    if (position == 0) per_mb += 2.0 * model::pp_message_bytes(m, micro_batch);
    b.activation_bytes = inflight * per_mb;

    // Framework overhead — the part the analytic baseline [20] misses.
    double fw = spec.cuda_context_bytes;
    int communicators = 0;
    if (pc.tp > 1) ++communicators;
    if (pc.dp > 1) ++communicators;
    if (pc.pp > 1) communicators += 3;  // send, recv, tied-embedding group
    fw += communicators * common::MiB(80.0);
    // GEMM workspace scales with the largest activation tile (the 4h MLP).
    fw += 2.0 * (static_cast<double>(micro_batch) * m.seq_len * 4.0 * m.hidden_size / pc.tp * 2.0);
    // Allocator reserve + gradient-bucket padding.
    fw += common::GiB(0.45) + 0.06 * b.weights_optimizer_bytes;
    // Caching-allocator fragmentation and transient tensors grow with the
    // number of live microbatch arenas and the microbatch size — the
    // "auxiliary structures" of [21] that analytic models miss entirely.
    const double frag_frac = 0.12 + 0.05 * std::log2(static_cast<double>(inflight) + 1.0) +
                             0.03 * std::log2(static_cast<double>(micro_batch) + 1.0);
    fw += frag_frac * b.activation_bytes;
    b.framework_bytes = fw;

    b.total_bytes = b.weights_optimizer_bytes + b.activation_bytes + b.framework_bytes;
    b.limiting_stage = position;
    if (b.total_bytes > worst.total_bytes) worst = b;
  }

  // Run-to-run allocator variance: +-2 % deterministic in (seed, config).
  Rng rng(seed ^ config_hash(plan, m));
  const double jitter = std::max(0.9, 1.0 + rng.normal(0.0, 0.02));
  worst.weights_optimizer_bytes *= jitter;
  worst.activation_bytes *= jitter;
  worst.framework_bytes *= jitter;
  worst.total_bytes *= jitter;
  return worst;
}

bool fits_in_memory(const cluster::ClusterSpec& spec, const model::TrainingJob& job,
                    const parallel::TrainPlan& plan, std::uint64_t seed) {
  return simulate_peak_memory(spec, job, plan, seed).total_bytes <= spec.gpu_memory_bytes;
}

}  // namespace pipette::sim
