// Common types for all configurators: what a recommendation looks like, and
// the interface both Pipette and the baselines implement. A configurator sees
// the cluster (it may profile it) and the training job; it returns a ranked
// list of TrainPlan candidates and, for Pipette, a fine-grained worker
// mapping for the top choice.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "estimators/mlp_memory.h"
#include "model/transformer.h"
#include "parallel/mapping.h"
#include "parallel/train_plan.h"

namespace pipette::core {

/// One point of the search space of Algorithm 1 — a full training plan. The
/// baselines only ever emit plain plans (their search spaces predate the
/// schedule/recompute/ZeRO axes); Pipette searches the whole space.
using Candidate = parallel::TrainPlan;

struct RankedChoice {
  Candidate cand;
  double predicted_s = 0.0;  ///< by the configurator's own latency model
};

/// Ranked choices every configurator keeps: the full preference order, for
/// the OOM fallback walk.
inline constexpr int kRankingSize = 1000;

/// How much the recommendation should be trusted: the structured health
/// report that rides every result instead of an exception. A clean request
/// has confidence 1.0, no repairs, no quarantines, and no deadline overrun;
/// anything else is a best-effort plan with its degradation spelled out.
struct PlanHealth {
  // Bandwidth-snapshot provenance (from cluster::SanitizeReport).
  int repaired_readings = 0;  ///< profile readings the sanitizer repaired
  int imputed_symmetric = 0;  ///< ... from the reverse-direction reading
  int imputed_neighbor = 0;   ///< ... from a healthy-reading median
  int imputed_floor = 0;      ///< ... pinned to the pessimistic floor
  std::vector<int> quarantined_nodes;  ///< nodes with no healthy inter link
  /// Communication edges of the *winning* mapping (tp group pairs, dp ring
  /// hops, pipeline hops) that cross a repaired or quarantined node pair:
  /// the plan is standing on imputed numbers. 0 when the plan routes around
  /// every repair.
  int degraded_links_used = 0;
  /// 1.0 minus the repaired fraction of profile readings: a scalar summary
  /// of how much of the snapshot is measurement rather than imputation.
  double confidence = 1.0;
  /// Transient profiling failures retried before the snapshot was taken.
  int profile_retries = 0;

  // Deadline accounting (set by the service / configurator when armed).
  bool deadline_exceeded = false;  ///< best-so-far returned, search truncated
  double deadline_s = std::numeric_limits<double>::infinity();
  double overrun_s = 0.0;  ///< how far past the deadline the request finished

  bool degraded() const {
    return repaired_readings > 0 || !quarantined_nodes.empty() || deadline_exceeded ||
           profile_retries > 0;
  }
};

struct ConfiguratorResult {
  std::string method;
  bool found = false;
  Candidate best;
  std::optional<parallel::Mapping> mapping;  ///< fine-grained dedication, if any
  double predicted_s = 0.0;

  /// Full preference order (best first) — what Fig. 5b walks through.
  std::vector<RankedChoice> ranking;

  // Overhead accounting for Table II. The *_wall_s fields are true elapsed
  // time per phase (what a user waits); the *_cpu_s fields aggregate the
  // per-slot durations across executor workers (what the fleet pays). Under a
  // parallel executor cpu > wall; serially they coincide.
  double profile_wall_s = 0.0;    ///< simulated bandwidth-profiling cost
  double search_wall_s = 0.0;     ///< SA phase, true elapsed
  double search_cpu_s = 0.0;      ///< SA phase, summed across workers
  double mem_est_wall_s = 0.0;    ///< memory-filter phase, true elapsed
  double mem_est_cpu_s = 0.0;     ///< memory-filter phase, summed across workers
  double score_wall_s = 0.0;      ///< compute-profile + scoring phase, true elapsed
  double score_cpu_s = 0.0;       ///< scoring phase, summed across workers
  double mem_train_wall_s = 0.0;  ///< one-time MLP training (amortized per cluster)

  /// Total configuration cost this request actually waited for.
  double config_wall_s() const {
    return profile_wall_s + mem_train_wall_s + mem_est_wall_s + score_wall_s + search_wall_s;
  }

  int candidates_evaluated = 0;
  int candidates_rejected_oom = 0;

  // Scoring and search introspection (Pipette only; zero elsewhere).
  int shapes_profiled = 0;   ///< distinct compute shapes measured this request
  /// Candidates scored with a sibling's profile: the candidates the memory
  /// filter kept, minus shapes_profiled.
  int shapes_reused = 0;
  long sa_iters = 0;         ///< SA proposals explored across all chains/rungs
  long sa_iters_granted = 0; ///< SA budget the race allotted
  int sa_rungs = 0;          ///< successive-halving rungs run

  /// Degradation provenance: what was repaired, quarantined, retried, or
  /// truncated to produce this plan. health.degraded() false on clean runs.
  PlanHealth health;

  // Artifact provenance when served through the engine's ClusterCache: which
  // per-cluster artifacts this request reused rather than built. Only the
  // service sets these; a direct configure() call leaves them false.
  bool profile_cache_hit = false;  ///< bandwidth profile came from the cache
  bool memory_cache_hit = false;   ///< MLP memory estimator came from the cache
  // ...and whether those artifacts were warm-started from a persisted
  // snapshot (ClusterCache::load) rather than computed in this process.
  bool profile_from_disk = false;
  bool memory_from_disk = false;

  // What this result was computed against: a caller holding it can tell an
  // unchanged fabric and job by comparing topo.fingerprint() and
  // model::job_digest(job) with these two.
  std::uint64_t topo_fingerprint = 0;
  std::uint64_t job_digest = 0;
  /// The memory estimator the filter used (injected, cached, or trained by
  /// this request).
  std::shared_ptr<const estimators::MlpMemoryEstimator> memory_estimator;

  /// Structured per-request report as a JSON object: the winning plan, the
  /// first `runner_ups` runners-up with their predicted deltas, phase wall/cpu
  /// timings, cache provenance, and the SA budget spent vs granted. Pure
  /// formatting over fields already on the result — calling it never touches
  /// the engine or perturbs determinism.
  std::string explain(int runner_ups = 5) const;
};

/// Keeps a (possibly truncated) ranking's head consistent with the SA winner:
/// rotates `best` to the front and stamps its annealed cost. When the winner
/// fell outside the truncated ranking the ranking is left untouched — better
/// headless than mislabelling the head with another candidate's SA cost.
/// Returns true when the head was updated.
bool promote_winner(std::vector<RankedChoice>& ranking, const Candidate& best,
                    double predicted_s);

class Configurator {
 public:
  virtual ~Configurator() = default;
  virtual std::string name() const = 0;
  virtual ConfiguratorResult configure(const cluster::Topology& topo,
                                       const model::TrainingJob& job) = 0;
};

}  // namespace pipette::core
