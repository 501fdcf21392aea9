// Profiled per-stage compute costs. Like the paper (and AMP/Varuna before
// it), Pipette does not model GPU kernels from first principles — it measures
// the per-microbatch forward/backward time of each pipeline stage with a few
// short runs and plugs the measurements into the latency model. Here the
// "measurement" samples the ground-truth cost model with realistic run-to-run
// noise.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "model/transformer.h"
#include "parallel/parallel_config.h"
#include "parallel/train_plan.h"
#include "sim/stage_costs.h"

namespace pipette::estimators {

struct ComputeProfile {
  /// Compute-only fwd/bwd time per microbatch for each pipeline *position*
  /// (TP collectives are modelled separately from the profiled bandwidth
  /// matrix). For interleaved plans a position's entry sums its virtual
  /// chunks; backward entries include the plan's recomputation work.
  std::vector<double> stage_fwd_s;
  std::vector<double> stage_bwd_s;
  /// C of Eqs. (1)/(4): the heaviest position's fwd+bwd compute per microbatch.
  double c_block_s = 0.0;
};

inline constexpr double kComputeNoiseSigma = 0.01;  ///< run-to-run measurement noise
inline constexpr int kComputeRepeats = 3;           ///< measurements averaged per position

struct ComputeProfileOptions {
  std::uint64_t seed = 17;  ///< the measurement noise stream
};

/// Profiles every pipeline position of `plan` for `job` on `topo`.
ComputeProfile profile_compute(const cluster::Topology& topo, const model::TrainingJob& job,
                               const parallel::TrainPlan& plan, const ComputeProfileOptions& opt);

/// The *compute shape* of a plan: exactly the TrainPlan/job fields
/// profile_compute's output depends on. The measured per-position costs read
/// only the model, pp (layer split), tp (FLOP shard), microbatch, schedule
/// chunking, and recomputation — never dp, ZeRO-1, the worker mapping, or the
/// fabric's link state (the profiled noise stream is seeded from the options
/// alone). Two plans with equal keys therefore produce bit-identical
/// ComputeProfiles, which is what lets the configurator profile each shape
/// once per request and share the result across every (dp, zero1, mapping)
/// sibling.
struct ComputeShapeKey {
  std::uint64_t model_digest = 0;
  int pp = 1;
  int tp = 1;
  int micro_batch = 1;
  parallel::PipeSchedule schedule = parallel::PipeSchedule::k1F1B;
  int virtual_stages = 1;
  parallel::Recompute recompute = parallel::Recompute::kNone;

  static ComputeShapeKey of(const model::TrainingJob& job, const parallel::TrainPlan& plan);

  bool operator==(const ComputeShapeKey&) const = default;
};

/// Canonical ordering: (model, pp, tp, micro, schedule, v, recompute) — the
/// order shape-grouped scoring profiles in, independent of the candidate
/// schedule.
bool operator<(const ComputeShapeKey& a, const ComputeShapeKey& b);

}  // namespace pipette::estimators
