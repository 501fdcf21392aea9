// The first-class training plan — the single currency a "candidate" is across
// core/, search/, estimators/, and sim/. The paper's Algorithm 1 walks a
// (pp, tp, dp, micro) 4-tuple; real clusters additionally choose the pipeline
// schedule (interleaved virtual-stage 1F1B shrinks bubbles at the cost of
// more P2P traffic and activation memory), activation recomputation (fits
// models that would otherwise OOM, at the cost of re-running forwards in the
// backward pass), and ZeRO-1 optimizer-state sharding (divides the fp32
// master/momentum/variance state across the DP group). A TrainPlan carries
// all of these axes; every simulator and estimator consumes the plan, so no
// layer threads loose (ParallelConfig, micro) pairs any more.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/parallel_config.h"

namespace pipette::parallel {

/// Pipeline schedule axis. kMemoryUnaware is the paper's Fig. 2a strawman —
/// never enumerated by the configurator, but expressible so the simulator can
/// still reproduce the comparison.
enum class PipeSchedule : std::uint8_t {
  k1F1B = 0,             ///< memory-efficient 1F1B (Fig. 2b) — the default
  kInterleaved1F1B = 1,  ///< virtual-stage interleaved 1F1B (Megatron-LM)
  kMemoryUnaware = 2,    ///< all forwards then all backwards (Fig. 2a)
};

/// Activation recomputation axis (Megatron-LM terminology).
enum class Recompute : std::uint8_t {
  kNone = 0,       ///< store every layer activation
  kSelective = 1,  ///< recompute the attention core; store the linear parts
  kFull = 2,       ///< store only each layer's input; recompute the rest
};

/// One point of the enlarged search space.
struct TrainPlan {
  ParallelConfig pc;
  int micro_batch = 1;
  PipeSchedule schedule = PipeSchedule::k1F1B;
  /// Virtual pipeline stages per GPU; > 1 only with kInterleaved1F1B. The
  /// model chunk k of GPU position p is global pipeline stage k*pp + p.
  int virtual_stages = 1;
  Recompute recompute = Recompute::kNone;
  bool zero1 = false;  ///< shard fp32 optimizer state across the DP group

  /// Total pipeline stages including virtual ones (pp * virtual_stages).
  int total_stages() const { return pc.pp * virtual_stages; }

  /// True for the legacy 4-tuple point (1F1B, no recomputation, no ZeRO):
  /// exactly the space the configurator searched before this axis existed.
  bool is_plain() const {
    return schedule == PipeSchedule::k1F1B && virtual_stages == 1 &&
           recompute == Recompute::kNone && !zero1;
  }

  /// Structural legality against a job: batch geometry divides, and the
  /// interleaved schedule's Megatron constraints hold (layers divide evenly
  /// into pp*v chunks, microbatch count divides into pp-sized groups).
  bool valid_for(int num_layers, int global_batch) const;

  /// "pp4-tp2-dp4-mb2" for a plain plan — byte-identical to the legacy
  /// candidate label, so per-candidate SA seed derivation is unchanged on the
  /// old space — with "-i<v>", "-rcsel"/"-rcfull", "-z1", "-munaware"
  /// suffixes for the new axes.
  std::string str() const;

  /// Stable 64-bit digest over every field (for cache keys and seeds).
  std::uint64_t hash() const;

  bool operator==(const TrainPlan&) const = default;
};

/// Canonical ordering: (pp, tp, dp, micro, schedule, v, recompute, zero1).
/// Plain plans sort exactly as the legacy enumeration did.
bool operator<(const TrainPlan& a, const TrainPlan& b);

/// Microbatches per iteration under `plan`.
inline int num_microbatches(int global_batch, const TrainPlan& plan) {
  return num_microbatches(global_batch, plan.pc, plan.micro_batch);
}

/// Transformer layers resident on pipeline *position* `position` (the
/// physical GPU rank along the pipeline axis): the sum over the position's
/// virtual chunks, one for flat plans. Identical to layers_of_stage for
/// plain plans.
int layers_of_position(int num_layers, const TrainPlan& plan, int position);

/// The enumerated base space: every (pp, tp, dp) x microbatch point as a
/// plain plan, plus — where `c` enables them and the Megatron constraints
/// admit them — the interleaved-1F1B variants. Recompute/ZeRO variants are
/// *not* enumerated here: they exist to relieve memory pressure and are
/// generated on demand by memory_relief_variants (the configurator only asks
/// for them when a base plan is near or over the fit threshold, which keeps
/// the candidate count bounded).
std::vector<TrainPlan> enumerate_base_plans(int num_gpus, int gpus_per_node, int num_layers,
                                            int global_batch, const ConfigConstraints& c);

/// The memory-relief escalation ladder for one base plan, cheapest first
/// within each family: {selective, full} without ZeRO-1, then {zero1,
/// selective+zero1, full+zero1}. Empty when `c` disables both axes or the
/// base plan already uses them. Callers typically keep the first fitting
/// variant per family.
std::vector<TrainPlan> memory_relief_variants(const TrainPlan& base, const ConfigConstraints& c);

}  // namespace pipette::parallel
