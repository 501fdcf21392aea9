// Fine-grained worker dedication (paper §IV): simulated annealing over the
// worker->GPU permutation. The move set combines the paper's three string
// moves — migration, swap, and reverse (exploiting the near-symmetric
// bidirectional bandwidths) — with the node-granular reorder/regroup moves
// its Fig. 4 illustrates, with the Pipette latency estimate as objective.
// Every move draws both endpoints uniformly over the string (or the node
// labels), as the paper does. One chain anneals one candidate: the annealer
// runs on the incremental evaluator, so each move costs O(touched groups)
// instead of a full model re-evaluation.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "estimators/incremental_latency.h"
#include "estimators/latency_models.h"
#include "parallel/mapping.h"
#include "search/sa.h"

namespace pipette::search {

/// Which moves the annealer may draw (all enabled by default; ablations can
/// disable some — see bench/ablation_sa_moves).
struct MoveSet {
  bool migrate = true;
  bool swap = true;
  bool reverse = true;
  bool node_swap = true;
  bool node_reverse = true;
};

/// SA-loop telemetry accumulated locally by the annealers — per-move-kind
/// proposal/accept/bounded-stop counts, rollbacks, and the aggregated
/// IncrementalLatencyEvaluator dirty-set sizes. Plain longs with no locks or
/// atomics: each chain owns its own instance, the caller merges and flushes
/// to an obs::Registry after the run. Attaching one adds a handful of
/// increments per proposal to the hot loop and never touches the rng stream
/// or any cost, so trajectories are bit-identical with telemetry on or off
/// (the sa_throughput bench gates the overhead; tests lock the bit-identity).
struct AnnealTelemetry {
  static constexpr int kKinds = 5;  ///< parallel::MoveKind values
  static const char* kind_name(int k);
  long proposed[kKinds] = {};
  long accepted[kKinds] = {};
  /// Proposals rejected by a bounded stop, before they were priced in full
  /// (counted among the rollbacks too).
  long bounded[kKinds] = {};
  long rollbacks = 0;
  /// Aggregated dirty-set sizes over every proposal — entries actually
  /// priced, so a bounded stop adds only its priced phases (long: a chain
  /// can run millions of proposals, overflowing DirtyStats' per-move ints).
  struct DirtyTotals {
    long cells = 0, stages = 0, flows = 0, cols = 0, paths = 0, groups = 0, terms = 0;
  } dirty;

  void add_dirty(const estimators::IncrementalLatencyEvaluator::DirtyStats& d) {
    dirty.cells += d.cells;
    dirty.stages += d.stages;
    dirty.flows += d.flows;
    dirty.cols += d.cols;
    dirty.paths += d.paths;
    dirty.groups += d.groups;
    dirty.terms += d.terms;
  }
  void merge(const AnnealTelemetry& other);
  long total_proposed() const {
    long t = 0;
    for (const long p : proposed) t += p;
    return t;
  }
  long total_accepted() const {
    long t = 0;
    for (const long a : accepted) t += a;
    return t;
  }
  long total_bounded() const {
    long t = 0;
    for (const long b : bounded) t += b;
    return t;
  }
};

/// Draws one uniformly-chosen enabled move for `m` without applying it (apply
/// it with parallel::apply_move); both endpoints are uniform over the string,
/// or over the node labels for node moves, and `gpus_per_node` defines the
/// node blocks. Degenerate cases — nothing enabled, or only node moves
/// enabled on a cluster with fewer than two nodes (where retrying node draws
/// would spin forever) — fall back to a swap so the annealer still explores.
parallel::Move draw_mapping_move(const parallel::Mapping& m, common::Rng& rng,
                                 const MoveSet& moves, int gpus_per_node);

/// Runs SA from `m` (typically the Megatron default order) to minimize
/// `model.estimate(m)`: one ResumableMappingAnneal run to `opt.max_iters` in a
/// single run_to() call (so it throws as that chain's constructor does). On
/// return `m` is the best mapping found. Proposals
/// are scored by an IncrementalLatencyEvaluator whose costs are bit-identical
/// to the full model, so the trajectory — and therefore the result under an
/// iteration cap — matches simulated_annealing over the full model exactly.
/// `telemetry`, when non-null, accumulates the run's per-kind counts and
/// dirty totals (single-threaded writes; the result is unaffected).
SaResult optimize_mapping(parallel::Mapping& m, const estimators::PipetteLatencyModel& model,
                          int gpus_per_node, const SaOptions& opt, const MoveSet& moves = {},
                          AnnealTelemetry* telemetry = nullptr);

/// A pausable SA chain over one mapping problem — the only incremental
/// annealing loop, behind optimize_mapping and the unit of work the
/// successive-halving budget allocator races. Its rng stream, Metropolis rule,
/// cooling and deadline checks are simulated_annealing's, but each proposal
/// is scored in place by the incremental evaluator and undone on rejection,
/// and the whole state (current mapping + evaluator, best snapshot,
/// temperature schedule position, rng) persists between run_to() calls:
/// running to iteration k and then to n is bit-identical to a single
/// uninterrupted run to n, so a chain that survives a rung *resumes* — no
/// replayed or wasted moves (tests lock this in against the full-model
/// reference). Budgets are iteration-counted; a finite `opt.time_limit_s` is
/// additionally honored as a deadline on the chain's cumulative wall time
/// (checked at the temperature step like the generic annealer), so mixed
/// budgets stop at whichever bound hits first — determinism holds whenever
/// the deadline does not trip, i.e. for the generous limits iteration-capped
/// callers use. Throws std::invalid_argument unless `gpus_per_node` is
/// model.gpus_per_node(): node moves relabel the profiled fabric's nodes. The
/// model must outlive the chain. Not copyable (the evaluator holds internal
/// tables); hold by unique_ptr when racing many.
class ResumableMappingAnneal {
 public:
  ResumableMappingAnneal(const estimators::PipetteLatencyModel& model,
                         const parallel::Mapping& start, int gpus_per_node, const SaOptions& opt,
                         const MoveSet& moves = {});

  ResumableMappingAnneal(const ResumableMappingAnneal&) = delete;
  ResumableMappingAnneal& operator=(const ResumableMappingAnneal&) = delete;

  /// Advances the chain until `total_iters() == target_iters` (no-op when
  /// already past the target). It stops short only when the per-chain
  /// `time_limit_s` or the armed request deadline trips. The trajectory is
  /// split-invariant: run to k then n == run to n.
  void run_to(long target_iters);

  /// Arms an absolute deadline shared across every chain of a request: the
  /// chain breaks out of run_to() — keeping best-so-far — once
  /// `watch->seconds() >= deadline_s`. This is what makes the annealer
  /// *anytime* under the service's per-request deadlines: unlike
  /// opt.time_limit_s (a per-chain budget on this chain's own wall time),
  /// the deadline is read from the caller's request stopwatch, so N chains
  /// sharing fewer threads still collectively stop on time. Checks happen at
  /// the temperature-step boundaries and never touch the rng stream; a
  /// deadline generous enough not to trip leaves the trajectory bit-exact.
  /// Null watch (the default) disarms. The watch must outlive the chain.
  void set_deadline(const common::Stopwatch* watch, double deadline_s) {
    deadline_watch_ = watch;
    deadline_s_ = deadline_s;
  }
  /// True once a run_to() call was cut short by the armed deadline.
  bool deadline_tripped() const { return deadline_tripped_; }

  /// Attaches (or detaches, with null) a telemetry accumulator for
  /// subsequent run_to() calls. The chain only ever appends to it between
  /// run_to entry and exit, so the caller may read it whenever the chain is
  /// paused. Never affects the trajectory.
  void set_telemetry(AnnealTelemetry* t) { telemetry_ = t; }

  long total_iters() const { return iters_; }
  long accepted() const { return accepted_; }
  double initial_cost() const { return initial_cost_; }
  double best_cost() const { return best_cost_; }
  /// Current temperature of the geometric schedule (trace trajectories).
  double temperature() const { return temp_; }
  /// Real wall time accumulated inside run_to() calls (CPU-seconds of this
  /// chain, for the configurator's aggregate accounting).
  double wall_s() const { return wall_s_; }
  /// The best mapping found so far.
  parallel::Mapping best_mapping() const;

 private:
  /// The time check: per-chain time_limit_s and the shared request
  /// deadline, whichever trips first. `watch` is the current run_to() timer.
  bool over_time(const common::Stopwatch& watch) {
    if (std::isfinite(opt_.time_limit_s) && wall_s_ + watch.seconds() >= opt_.time_limit_s) {
      return true;
    }
    if (deadline_watch_ != nullptr && deadline_watch_->seconds() >= deadline_s_) {
      deadline_tripped_ = true;
      return true;
    }
    return false;
  }
  estimators::IncrementalLatencyEvaluator eval_;
  MoveSet moves_;
  int gpn_;
  SaOptions opt_;
  common::Rng rng_;
  double cur_cost_ = 0.0;
  double best_cost_ = 0.0;
  double initial_cost_ = 0.0;
  double temp_ = 0.0;
  int since_temp_step_ = 0;
  long iters_ = 0;
  long accepted_ = 0;
  double wall_s_ = 0.0;
  std::vector<int> best_;
  AnnealTelemetry* telemetry_ = nullptr;
  const common::Stopwatch* deadline_watch_ = nullptr;
  double deadline_s_ = std::numeric_limits<double>::infinity();
  bool deadline_tripped_ = false;
};

}  // namespace pipette::search
