// The evaluation harness: run a recommended configuration on the
// (simulated) real cluster, check it against physical GPU memory, and — as
// the paper did for AMP (§VII-A) — walk a configurator's ranking one entry at
// a time until something actually runs.
#pragma once

#include <optional>

#include "core/configurator.h"
#include "estimators/mlp_memory.h"
#include "sim/memory_sim.h"
#include "sim/pipeline_sim.h"

namespace pipette::core {

/// Outcome of attempting one candidate on the cluster.
struct ActualRun {
  bool oom = false;
  double time_s = 0.0;  ///< valid only when !oom
  sim::MemoryBreakdown mem;
};

/// Executes plan `cand` under `mapping` (ground truth: the plan's schedule
/// and recompute/ZeRO axes, true link state, physical memory check).
ActualRun run_actual(const cluster::Topology& topo, const model::TrainingJob& job,
                     const Candidate& cand, const parallel::Mapping& mapping,
                     const sim::SimOptions& sim_opt);

/// A method's end-to-end outcome: which candidate finally ran, how long an
/// iteration takes, and how many attempts the user burned on OOM configs.
struct ExecutedOutcome {
  std::string method;
  bool success = false;
  Candidate executed;
  std::optional<parallel::Mapping> mapping;
  ActualRun run;
  int attempts = 0;  ///< 1 = top recommendation ran immediately
};

/// Tries the recommendation; on OOM falls back through the ranking with the
/// Megatron default placement, exactly like the paper's manual AMP procedure.
ExecutedOutcome execute_with_oom_fallback(const cluster::Topology& topo,
                                          const model::TrainingJob& job,
                                          const ConfiguratorResult& rec,
                                          const sim::SimOptions& sim_opt, int max_attempts = 100);

}  // namespace pipette::core
