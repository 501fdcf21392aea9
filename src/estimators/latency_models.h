// The latency estimators under comparison in the paper's Fig. 5a:
//
//  * PipetteLatencyModel — Eqs. (3)-(6): the memory-efficient-schedule model
//    with the hidden critical path (the bubble term is paid n_mb/pp times),
//    mapping-aware pipeline/TP/DP communication terms, and *profiled*
//    pairwise bandwidths. Plan-aware: interleaved-1F1B plans scale the
//    pipeline-fill term by 1/v and the exposed P2P term by v (v messages per
//    hop per microbatch), recomputation arrives through the profiled backward
//    costs, and ZeRO-1 through the DP sync volume.
//  * amp_latency_estimate — Eq. (1): the prior-art model (AMP [8], also the
//    structure Varuna [12] uses) built for the memory-unaware schedule, with
//    document-specified bandwidths and no mapping awareness.
//
// Both consume the same profiled compute costs (C); they differ exactly where
// the paper says the prior art goes wrong.
#pragma once

#include "cluster/bandwidth_matrix.h"
#include "cluster/cluster_spec.h"
#include "estimators/compute_profile.h"
#include "model/transformer.h"
#include "parallel/mapping.h"
#include "parallel/train_plan.h"
#include "sim/collectives.h"

namespace pipette::estimators {

class IncrementalLatencyEvaluator;

namespace detail {

/// Ring all-reduce term used throughout (Thakur et al. [19]). Forwards to the
/// simulator's single inline definition, so the full model, the incremental
/// evaluator, and the ground-truth simulator all evaluate the exact same
/// floating-point expression and cannot drift.
inline double ring_allreduce(double bytes, int n, double bw, double latency) {
  return sim::ring_allreduce_time(bytes, n, bw, latency);
}

/// Width of the fixed summation blocking shared by the full model and the
/// incremental evaluator. Must be a power of two.
inline constexpr int kReduceBlock = 4;

/// Fixed-blocking left fold: elements are summed left-to-right inside
/// kReduceBlock-wide blocks (each block folded from 0.0), and the block sums
/// are added left-to-right, the (possibly partial) tail block last. Both
/// PipetteLatencyModel::estimate and IncrementalLatencyEvaluator::reduce
/// bracket their stage-block and pipeline-path sums with exactly this tree,
/// which is what lets the evaluator cache per-entry terms and refold only
/// dirty rows while staying bit-identical to the full model. `stride` walks
/// strided rows of a 2-D table (e.g. one replica's hop column).
inline double blocked_sum(const double* v, int n, int stride = 1) {
  double total = 0.0;
  int i = 0;
  while (i < n) {
    const int end = i + kReduceBlock < n ? i + kReduceBlock : n;
    double blk = 0.0;
    for (; i < end; ++i) blk += v[i * stride];
    total += blk;
  }
  return total;
}

}  // namespace detail

/// Cluster geometry and spec constants the models need besides the matrix.
struct LinkConstants {
  double spec_inter_bw = 0.0;
  double spec_intra_bw = 0.0;
  double inter_latency_s = 0.0;
  double intra_latency_s = 0.0;
  int gpus_per_node = 8;

  static LinkConstants from_spec(const cluster::ClusterSpec& spec);
};

/// Pipette's latency estimator (Algorithm 1 line 11). Constructed once per
/// candidate TrainPlan; estimate(mapping) is the simulated-annealing hot path
/// and allocates nothing.
class PipetteLatencyModel {
 public:
  /// Throws std::invalid_argument when links.gpus_per_node differs from the
  /// node width of `profiled_bw`.
  PipetteLatencyModel(const model::TrainingJob& job, const parallel::TrainPlan& plan,
                      ComputeProfile profile, const cluster::BandwidthMatrix* profiled_bw,
                      const LinkConstants& links);

  /// Total iteration latency of Eq. (3) for a worker dedication `m`.
  double estimate(const parallel::Mapping& m) const;

  const parallel::TrainPlan& plan() const { return plan_; }
  /// Node width of the profiled fabric.
  int gpus_per_node() const { return links_.gpus_per_node; }

  /// Individual terms (for tests and diagnostics), all under mapping `m`.
  double bubble_term(const parallel::Mapping& m) const;     // T_bubble of Eq. (4)
  double straggler_term(const parallel::Mapping& m) const;  // T_straggler of Eq. (4)
  double pp_comm_term(const parallel::Mapping& m) const;    // T_PP_com of Eq. (5), per message
  double dp_comm_term(const parallel::Mapping& m) const;    // T_DP_com of Eq. (6)

 private:
  friend class IncrementalLatencyEvaluator;  // reads the model constants

  /// Heaviest per-microbatch stage block C + T_TP under mapping `m`.
  double max_stage_block(const parallel::Mapping& m) const;
  double tp_time(const parallel::Mapping& m, int stage, int dpr) const;

  const model::TrainingJob* job_;
  parallel::TrainPlan plan_;
  parallel::ParallelConfig pc_;  ///< = plan_.pc (hot-path alias)
  int nmb_ = 1;
  ComputeProfile profile_;
  const cluster::BandwidthMatrix* bw_;
  LinkConstants links_;
  double pp_msg_bytes_ = 0.0;
  double tp_msg_bytes_ = 0.0;
  /// Chunking constants: v boundary messages per hop per microbatch, and the
  /// pipeline fills with 1/v-deep chunk blocks. Exactly 1.0 for flat (one-
  /// chunk) plans, so plain plans evaluate the identical floating-point
  /// expression as the 4-tuple model did.
  double ppcomm_scale_ = 1.0;
  double fill_scale_ = 1.0;
  int num_nodes_ = 1;  ///< of the profiled fabric, not a hard-coded cap
};

/// Eq. (1) with spec bandwidths and the default (mapping-unaware) placement.
/// Used for both the AMP baseline and (with tp == 1) the Varuna baseline.
double amp_latency_estimate(const model::TrainingJob& job, const parallel::TrainPlan& plan,
                            const ComputeProfile& profile, const LinkConstants& links);

}  // namespace pipette::estimators
