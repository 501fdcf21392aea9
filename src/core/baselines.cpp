#include "core/baselines.h"

#include <algorithm>

#include "estimators/latency_models.h"
#include "estimators/mlp_memory.h"
#include "sim/memory_sim.h"

namespace pipette::core {

namespace {

/// Shared enumeration + Eq. (1) scoring for the memory-unaware baselines.
ConfiguratorResult configure_eq1(const cluster::Topology& topo, const model::TrainingJob& job,
                                 const parallel::ConfigConstraints& constraints,
                                 const estimators::ComputeProfileOptions& cp_opt,
                                 const std::string& method) {
  ConfiguratorResult res;
  res.method = method;
  const auto links = estimators::LinkConstants::from_spec(topo.spec());

  std::vector<RankedChoice> all;
  for (const auto& pc : parallel::enumerate_parallel_configs(
           topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers, constraints)) {
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, constraints)) {
      ++res.candidates_evaluated;
      const Candidate cand{pc, micro};  // baselines search only plain plans
      const auto profile = estimators::profile_compute(topo, job, cand, cp_opt);
      const double est = estimators::amp_latency_estimate(job, cand, profile, links);
      all.push_back({cand, est});
    }
  }
  if (all.empty()) return res;
  std::sort(all.begin(), all.end(),
            [](const RankedChoice& a, const RankedChoice& b) { return a.predicted_s < b.predicted_s; });
  if (static_cast<int>(all.size()) > kRankingSize) all.resize(kRankingSize);
  res.ranking = std::move(all);
  res.found = true;
  res.best = res.ranking.front().cand;
  res.predicted_s = res.ranking.front().predicted_s;
  res.mapping = parallel::Mapping::megatron_default(res.best.pc);
  return res;
}

}  // namespace

AmpConfigurator::AmpConfigurator(AmpOptions opt) : opt_(std::move(opt)) {}

ConfiguratorResult AmpConfigurator::configure(const cluster::Topology& topo,
                                              const model::TrainingJob& job) {
  return configure_eq1(topo, job, opt_.constraints, opt_.compute_profile, name());
}

VarunaConfigurator::VarunaConfigurator(VarunaOptions opt) : opt_(std::move(opt)) {}

ConfiguratorResult VarunaConfigurator::configure(const cluster::Topology& topo,
                                                 const model::TrainingJob& job) {
  parallel::ConfigConstraints c = opt_.constraints;
  c.max_tp = 1;  // Varuna advocates pipeline-only LLM training
  // Varuna only *chooses* the configuration; like every method in the
  // paper's evaluation it executes on Megatron-LM, i.e. with the Megatron
  // default placement.
  return configure_eq1(topo, job, c, opt_.compute_profile, name());
}

MegatronHeuristic::MegatronHeuristic(MegatronOptions opt) : opt_(std::move(opt)) {}

ConfiguratorResult MegatronHeuristic::configure(const cluster::Topology& topo,
                                                const model::TrainingJob& job) {
  ConfiguratorResult res;
  res.method = name();

  // The expert fixes tp to the node width and tunes (pp, dp, micro) by
  // running short trials on the actual cluster, discarding whatever OOMs.
  const int tp = std::min(opt_.constraints.max_tp, topo.gpus_per_node());
  std::vector<RankedChoice> tried;
  for (const auto& pc : parallel::enumerate_parallel_configs(
           topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers, opt_.constraints)) {
    if (pc.tp != tp) continue;
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, opt_.constraints)) {
      ++res.candidates_evaluated;
      const Candidate cand{pc, micro};  // the expert tunes the legacy 4-tuple
      if (!sim::fits_in_memory(topo.spec(), job, cand, estimators::kMemoryUniverseSeed)) {
        ++res.candidates_rejected_oom;
        continue;
      }
      const auto mapping = parallel::Mapping::megatron_default(pc);
      const auto run = sim::simulate_iteration(topo, job, mapping, cand, opt_.sim);
      tried.push_back({cand, run.total_s});
    }
  }
  if (tried.empty()) return res;
  std::sort(tried.begin(), tried.end(),
            [](const RankedChoice& a, const RankedChoice& b) { return a.predicted_s < b.predicted_s; });
  if (static_cast<int>(tried.size()) > kRankingSize) tried.resize(kRankingSize);
  res.ranking = std::move(tried);
  res.found = true;
  res.best = res.ranking.front().cand;
  res.predicted_s = res.ranking.front().predicted_s;
  res.mapping = parallel::Mapping::megatron_default(res.best.pc);
  return res;
}

}  // namespace pipette::core
