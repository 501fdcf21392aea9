// Pipette itself — Algorithm 1. Profile the fabric, enumerate every
// (pp, tp, dp) factorization and microbatch size, reject configurations the
// MLP memory estimator says will not fit (§VI), score the rest with the
// refined latency model (§V), and run fine-grained worker dedication via
// simulated annealing (§IV): one chain per surviving candidate, raced by
// successive halving so the most promising ones get the full budget. Every
// chain starts from the Megatron default placement. The configurator holds
// only its options between calls: the per-cluster artifacts (bandwidth
// snapshot, trained memory estimator) are either injected through
// PipetteOptions — engine::ClusterCache keeps them for the service — or
// built inside the call that needs them.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "cluster/profiler.h"
#include "common/executor.h"
#include "core/configurator.h"
#include "estimators/compute_profile.h"
#include "estimators/mlp_memory.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "search/mapping_search.h"

namespace pipette::core {

/// Successive-halving allocation of the worker-dedication budget — the one SA
/// allocator. Rung 0 starts every surviving candidate's chain on a small
/// iteration cap, every alive chain runs to its rung's cap (short of it only
/// when a deadline trips), every rung keeps the best half (stable ties to
/// default-cost rank) plus any candidate within a fixed 3% slack of the rung
/// leader and doubles the cap, and the survivors finish at the full budget.
/// Chains *resume* across rungs (search::ResumableMappingAnneal carries the
/// mapping, temperature, and rng stream), so no move is ever replayed: total
/// work is ~2x the full budget rather than candidates-times it.
/// Setting rung0_iters to SaOptions::max_iters gives every candidate the full
/// budget up front: Algorithm 1's SA on every surviving candidate. Rung caps
/// are iteration-counted and selection is canonical, so any executor and
/// thread count reproduces the serial result bit for bit.
struct SaHalvingOptions {
  /// Rung-0 iteration cap; 0 derives max_iters >> (rungs - 1) so the final
  /// rung lands exactly on the full budget. Values at or above max_iters
  /// grant the full budget in rung 0.
  long rung0_iters = 0;
};

struct PipetteOptions {
  /// PPT-LF when true; PPT-L (latency estimator + memory estimator only,
  /// default placement) when false — the paper's Fig. 6 ablation.
  bool use_worker_dedication = true;
  /// Per-candidate SA budget. Iteration-counted (the default 20,000 per
  /// candidate), with no per-chain wall-clock limit: every recommendation is
  /// a pure function of the request. `deadline_s` is the wall-clock bound.
  search::SaOptions sa{.time_limit_s = std::numeric_limits<double>::infinity(),
                       .max_iters = 20000};
  search::MoveSet moves;
  /// How the SA budget is spread over the scored candidates. Each candidate
  /// anneals one chain seeded with search::derive_seed(sa.seed, cand.str()).
  SaHalvingOptions sa_halving;
  cluster::ProfileOptions profile;
  estimators::ComputeProfileOptions compute_profile;
  parallel::ConfigConstraints constraints;
  /// Pre-trained memory estimator to reuse across invocations on the same
  /// cluster; when null, each call trains one (and reports its wall time).
  std::shared_ptr<const estimators::MlpMemoryEstimator> memory;
  estimators::MlpMemoryOptions memory_training;
  /// Pre-profiled bandwidth snapshot to reuse (e.g. from an
  /// engine::ClusterCache entry for the same fabric and day); profiled on
  /// demand when null.
  std::shared_ptr<const cluster::ProfileResult> profile_snapshot;
  /// Parallel executor for candidate scoring and the SA chains (not owned;
  /// typically an engine::ThreadPool). Results are merged in canonical
  /// enumeration order and SA seeds derive from the candidate itself, so
  /// every thread count produces the serial ranking bit for bit (unless
  /// deadline_s cuts the anneal). Null runs serially.
  common::Executor* executor = nullptr;
  /// Span tracer for this request's phases, SA rungs/chains, and cache events
  /// (not owned; typically the engine::ConfigService's per-request sink).
  /// Null disables tracing — every emit site is a single branch — and tracing
  /// never perturbs the recommendation: spans and counters are written from
  /// values the request computes anyway, never fed back into costs or seeds.
  obs::TraceSink* trace_sink = nullptr;
  /// Metrics registry the request flushes its counters into (not owned).
  /// Null disables metrics at the same one-branch cost; determinism holds
  /// either way (the telemetry tests race on/off at 1/4/16 threads).
  obs::Registry* metrics = nullptr;
  /// Per-request wall-clock budget in seconds, measured from configure()
  /// entry. The profiling, filtering, and scoring phases always run (a valid
  /// plan needs them); the SA phase is the anytime part — chains are armed
  /// with a shared absolute deadline (search::ResumableMappingAnneal::
  /// set_deadline) and the rung loop stops starting work once past it, so
  /// the request returns its best-so-far mapping with
  /// PlanHealth::deadline_exceeded set instead of running over. Infinite
  /// (the default) never checks a clock and is bit-identical to the
  /// pre-deadline behaviour; a finite deadline that does not trip leaves
  /// the recommendation bit-exact too (checks never touch seeds or costs).
  double deadline_s = std::numeric_limits<double>::infinity();
};

/// Why `opt` cannot produce a meaningful plan — the first unusable SA budget,
/// profile.noise_sigma, memory-training or deadline_s field, named by its path
/// (e.g. "sa.max_iters must be >= 1, got -5"), then mlp::validate's reason
/// for the memory estimator's hidden widths and train options — or an empty
/// string when every field is usable. configure() throws
/// std::invalid_argument with this reason; engine::ConfigService answers
/// kInvalidRequest with it before admission.
std::string validate(const PipetteOptions& opt);

class PipetteConfigurator final : public Configurator {
 public:
  explicit PipetteConfigurator(PipetteOptions opt);

  std::string name() const override;
  /// Throws std::invalid_argument carrying model::validate's,
  /// cluster::validate's or validate's reason when the job has a non-positive
  /// size, the topology a malformed spec, or the options an unusable field.
  ConfiguratorResult configure(const cluster::Topology& topo,
                               const model::TrainingJob& job) override;

 private:
  /// One configure() call's inputs, shared instruments, and result under
  /// construction; PhaseScope opens one stage of it (both in the .cpp).
  struct Request;
  class PhaseScope;
  /// A candidate with its default-placement cost and compute profile.
  struct Scored;

  // Algorithm 1's stages, in the order configure() runs them.
  void profile(Request& rq) const;
  void load_estimator(Request& rq) const;
  std::vector<Candidate> filter(Request& rq) const;
  std::vector<Scored> score(Request& rq, const std::vector<Candidate>& cands) const;
  void dedicate(Request& rq, const std::vector<Scored>& scored) const;

  PipetteOptions opt_;
};

}  // namespace pipette::core
