#include "core/evaluation.h"

namespace pipette::core {

ActualRun run_actual(const cluster::Topology& topo, const model::TrainingJob& job,
                     const Candidate& cand, const parallel::Mapping& mapping,
                     const sim::SimOptions& sim_opt) {
  ActualRun out;
  out.mem = sim::simulate_peak_memory(topo.spec(), job, cand, estimators::kMemoryUniverseSeed);
  if (out.mem.total_bytes > topo.spec().gpu_memory_bytes) {
    out.oom = true;
    return out;
  }
  out.time_s = sim::simulate_iteration(topo, job, mapping, cand, sim_opt).total_s;
  return out;
}

ExecutedOutcome execute_with_oom_fallback(const cluster::Topology& topo,
                                          const model::TrainingJob& job,
                                          const ConfiguratorResult& rec,
                                          const sim::SimOptions& sim_opt, int max_attempts) {
  ExecutedOutcome out;
  out.method = rec.method;
  if (!rec.found) return out;

  // Attempt 1: the top recommendation with its (possibly dedicated) mapping.
  {
    const parallel::Mapping mapping =
        rec.mapping ? *rec.mapping : parallel::Mapping::megatron_default(rec.best.pc);
    out.attempts = 1;
    const auto run = run_actual(topo, job, rec.best, mapping, sim_opt);
    if (!run.oom) {
      out.success = true;
      out.executed = rec.best;
      out.mapping = mapping;
      out.run = run;
      return out;
    }
  }

  // Walk the rest of the ranking on the Megatron default placement, which
  // every method executes on.
  for (const auto& choice : rec.ranking) {
    if (choice.cand == rec.best) continue;
    if (out.attempts >= max_attempts) break;
    ++out.attempts;
    const auto mapping = parallel::Mapping::megatron_default(choice.cand.pc);
    const auto run = run_actual(topo, job, choice.cand, mapping, sim_opt);
    if (!run.oom) {
      out.success = true;
      out.executed = choice.cand;
      out.mapping = mapping;
      out.run = run;
      return out;
    }
  }
  return out;
}

}  // namespace pipette::core
