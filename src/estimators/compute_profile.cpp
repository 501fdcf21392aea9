#include "estimators/compute_profile.h"

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "parallel/mapping.h"

namespace pipette::estimators {

using common::Rng;

ComputeProfile profile_compute(const cluster::Topology& topo, const model::TrainingJob& job,
                               const parallel::TrainPlan& plan, const ComputeProfileOptions& opt) {
  const auto& pc = plan.pc;
  ComputeProfile out;
  out.stage_fwd_s.reserve(static_cast<std::size_t>(pc.pp));
  out.stage_bwd_s.reserve(static_cast<std::size_t>(pc.pp));
  const auto mapping = parallel::Mapping::megatron_default(pc);
  Rng rng(opt.seed);
  for (int x = 0; x < pc.pp; ++x) {
    // A position's per-microbatch compute is the sum over its virtual chunks
    // (exactly one for flat schedules, so the plain path measures the same
    // quantity — and draws the same noise stream — as it always did).
    double fwd_true = 0.0, bwd_true = 0.0;
    for (int c = 0; c < plan.virtual_stages; ++c) {
      const sim::StageCosts sc =
          sim::stage_costs(topo, job, mapping, plan, c * pc.pp + x, 0);
      fwd_true += sc.fwd_compute_s;
      bwd_true += sc.bwd_compute_s;
    }
    double fwd = 0.0, bwd = 0.0;
    for (int r = 0; r < kComputeRepeats; ++r) {
      fwd += fwd_true * (1.0 + rng.normal(0.0, kComputeNoiseSigma));
      bwd += bwd_true * (1.0 + rng.normal(0.0, kComputeNoiseSigma));
    }
    out.stage_fwd_s.push_back(fwd / kComputeRepeats);
    out.stage_bwd_s.push_back(bwd / kComputeRepeats);
    out.c_block_s = std::max(out.c_block_s, out.stage_fwd_s.back() + out.stage_bwd_s.back());
  }
  return out;
}

ComputeShapeKey ComputeShapeKey::of(const model::TrainingJob& job,
                                    const parallel::TrainPlan& plan) {
  ComputeShapeKey k;
  k.model_digest = model::config_digest(job.model);
  k.pp = plan.pc.pp;
  k.tp = plan.pc.tp;
  k.micro_batch = plan.micro_batch;
  k.schedule = plan.schedule;
  k.virtual_stages = plan.virtual_stages;
  k.recompute = plan.recompute;
  return k;
}

bool operator<(const ComputeShapeKey& a, const ComputeShapeKey& b) {
  return std::tuple(a.model_digest, a.pp, a.tp, a.micro_batch, static_cast<int>(a.schedule),
                    a.virtual_stages, static_cast<int>(a.recompute)) <
         std::tuple(b.model_digest, b.pp, b.tp, b.micro_batch, static_cast<int>(b.schedule),
                    b.virtual_stages, static_cast<int>(b.recompute));
}

}  // namespace pipette::estimators
