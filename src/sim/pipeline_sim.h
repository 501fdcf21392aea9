// Discrete-event simulation of one training iteration under a TrainPlan.
// This is the repository's stand-in for "run it on the real cluster": per-op
// jitter, true heterogeneous link bandwidths, recompute-inflated backward
// costs, and the hierarchical (ZeRO-aware) data-parallel gradient sync. All
// latency estimators are judged against this simulator, exactly as the paper
// judges them against Megatron-LM runs.
//
// There is one scheduler. Every GPU position holds plan.virtual_stages model
// chunks (one for flat plans), and each (position, replica) executes a static
// op order: the 1F1B (memory-efficient) schedule of the paper's Fig. 2b, the
// memory-unaware schedule of Fig. 2a, or Megatron's interleaved
// virtual-stage 1F1B. A schedule is only that op order; dependencies,
// pipeline hops (plus the chunk-wrap hop when chunked) and the DP sync are
// priced once for all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "model/transformer.h"
#include "parallel/mapping.h"
#include "parallel/train_plan.h"
#include "sim/stage_costs.h"

namespace pipette::sim {

/// The plan's schedule axis doubles as the simulator's schedule selector.
using ScheduleKind = parallel::PipeSchedule;

struct SimOptions {
  double jitter_sigma = 0.015;  ///< multiplicative per-op noise
  std::uint64_t seed = 7;       ///< jitter stream; results are deterministic in it
};

/// One operation of a stage's static schedule.
struct PipeOp {
  bool fwd = true;
  int microbatch = 0;  // 0-based
  int chunk = 0;       // virtual-stage chunk (always 0 for flat schedules)
};

/// The per-stage op order for the flat schedules (k1F1B, kMemoryUnaware);
/// exposed for tests. kInterleaved1F1B falls back to k1F1B here — use
/// interleaved_stage_schedule for the chunked order.
std::vector<PipeOp> stage_schedule(ScheduleKind kind, int pp, int stage, int num_microbatches);

/// Megatron's interleaved 1F1B order for GPU position `position` of a
/// pp-deep pipeline with `v` model chunks per GPU: warmup of
/// min(total, 2*(pp-position-1) + (v-1)*pp) forwards, steady
/// one-forward-one-backward, then the backward drain. Forward i processes
/// chunk (i mod pp*v)/pp of microbatch (i div pp*v)*pp + i mod pp; backwards
/// walk the chunks in reverse. Requires num_microbatches % pp == 0.
std::vector<PipeOp> interleaved_stage_schedule(int pp, int v, int position, int num_microbatches);

struct IterationBreakdown {
  double total_s = 0.0;          ///< iteration latency (what the paper plots)
  double last_backward_s = 0.0;  ///< max over stages of last backward finish
  double dp_sync_s = 0.0;        ///< critical DP all-reduce contribution
  double max_stage_busy_s = 0.0; ///< busiest stage's total execution time
  double bubble_fraction = 0.0;  ///< idle share of the busiest-stage timeline
  int critical_stage = 0;        ///< stage whose DP sync finished last
};

/// Simulates one iteration of `plan`. `plan.pc` must equal `mapping.config()`,
/// the batch geometry must divide, and a plan with virtual_stages != 1 must
/// be valid_for the job; std::invalid_argument otherwise.
IterationBreakdown simulate_iteration(const cluster::Topology& topo, const model::TrainingJob& job,
                                      const parallel::Mapping& mapping,
                                      const parallel::TrainPlan& plan, const SimOptions& opt);

}  // namespace pipette::sim
