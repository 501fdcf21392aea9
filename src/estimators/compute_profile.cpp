#include "estimators/compute_profile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/stats.h"
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
          sim::stage_costs(topo, job, mapping, plan, c * pc.pp + x, 0, opt.costs);
      fwd_true += sc.fwd_compute_s;
      bwd_true += sc.bwd_compute_s;
    }
    double fwd = 0.0, bwd = 0.0;
    for (int r = 0; r < opt.repeats; ++r) {
      fwd += fwd_true * (1.0 + rng.normal(0.0, opt.noise_sigma));
      bwd += bwd_true * (1.0 + rng.normal(0.0, opt.noise_sigma));
    }
    out.stage_fwd_s.push_back(fwd / opt.repeats);
    out.stage_bwd_s.push_back(bwd / opt.repeats);
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

std::uint64_t ComputeShapeKey::hash() const {
  using common::hash_combine;
  std::uint64_t h = 0xc0dell;
  h = hash_combine(h, model_digest);
  h = hash_combine(h, static_cast<std::uint64_t>(pp));
  h = hash_combine(h, static_cast<std::uint64_t>(tp));
  h = hash_combine(h, static_cast<std::uint64_t>(micro_batch));
  h = hash_combine(h, static_cast<std::uint64_t>(schedule));
  h = hash_combine(h, static_cast<std::uint64_t>(virtual_stages));
  h = hash_combine(h, static_cast<std::uint64_t>(recompute));
  return h;
}

bool operator<(const ComputeShapeKey& a, const ComputeShapeKey& b) {
  return std::tuple(a.model_digest, a.pp, a.tp, a.micro_batch, static_cast<int>(a.schedule),
                    a.virtual_stages, static_cast<int>(a.recompute)) <
         std::tuple(b.model_digest, b.pp, b.tp, b.micro_batch, static_cast<int>(b.schedule),
                    b.virtual_stages, static_cast<int>(b.recompute));
}

std::uint64_t compute_context_digest(const cluster::ClusterSpec& spec,
                                     const ComputeProfileOptions& opt) {
  using common::hash_combine;
  std::uint64_t h = 0xc0ffeeull;
  h = hash_combine(h, spec.gpu_peak_flops);
  h = hash_combine(h, spec.hbm_bandwidth_Bps);
  h = hash_combine(h, spec.gemm_efficiency_max);
  h = hash_combine(h, spec.gemm_efficiency_knee_flops);
  h = hash_combine(h, opt.noise_sigma);
  h = hash_combine(h, static_cast<std::uint64_t>(opt.repeats));
  h = hash_combine(h, opt.seed);
  h = hash_combine(h, opt.costs.kernel_launch_s);
  h = hash_combine(h, opt.costs.per_op_overhead_s);
  return h;
}

std::shared_ptr<const ComputeProfile> ComputeProfileCache::find(const ComputeShapeKey& key) const {
  std::lock_guard lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void ComputeProfileCache::insert(const ComputeShapeKey& key,
                                 std::shared_ptr<const ComputeProfile> profile) {
  std::lock_guard lk(mu_);
  map_.try_emplace(key, std::move(profile));
}

std::vector<std::pair<ComputeShapeKey, std::shared_ptr<const ComputeProfile>>>
ComputeProfileCache::snapshot() const {
  std::lock_guard lk(mu_);
  return {map_.begin(), map_.end()};
}

int ComputeProfileCache::size() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(map_.size());
}

long ComputeProfileCache::hits() const {
  std::lock_guard lk(mu_);
  return hits_;
}

long ComputeProfileCache::misses() const {
  std::lock_guard lk(mu_);
  return misses_;
}

ComputeExtrapolator::ComputeExtrapolator(const std::vector<int>& micro_batches,
                                         const std::vector<double>& seconds) {
  if (micro_batches.size() != seconds.size() || micro_batches.size() < 2) {
    throw std::invalid_argument("ComputeExtrapolator: need >= 2 profiled points");
  }
  std::vector<double> lx, ly;
  lx.reserve(micro_batches.size());
  ly.reserve(seconds.size());
  for (std::size_t i = 0; i < micro_batches.size(); ++i) {
    lx.push_back(std::log(static_cast<double>(micro_batches[i])));
    ly.push_back(std::log(seconds[i]));
  }
  const auto fit = common::linear_fit(lx, ly);
  a_ = std::exp(fit.intercept);
  b_ = fit.slope;
}

double ComputeExtrapolator::predict(int micro_batch) const {
  return a_ * std::pow(static_cast<double>(micro_batch), b_);
}

}  // namespace pipette::estimators
