// The batched front-end of the configuration engine: a stream of
// (job, topology) requests fans out across one shared thread pool and one
// cluster-fingerprint cache. Each submit_request returns a future; a whole
// scenario sweep (the scalability and batch-sensitivity studies) is one
// `sweep` call.
//
// Determinism: SA budgets are iteration-counted (PipetteOptions::sa), so
// results are bit-identical for any thread count — candidate scoring merges
// in canonical order, each candidate's one SA chain is seeded from the
// candidate, not the schedule (see PipetteOptions::executor), and the
// halving race selects survivors canonically — so a request's dedicated
// mapping is a pure function of (topology fingerprint, job, options), never
// of pool size.
//
// Robustness: submit_request() is the one request surface — every request
// terminates with a ServiceResult whose status says what happened (a plan,
// no feasible plan, a typed rejection, a typed failure) instead of an
// exception racing through a future. Admission is bounded (max_pending),
// transient profiling failures retry with jittered exponential backoff, and
// per-request deadlines propagate into the configurator's anytime SA budget
// (best-so-far plan + PlanHealth::deadline_exceeded on overrun).
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/pipette_configurator.h"
#include "engine/cluster_cache.h"
#include "engine/faults.h"
#include "engine/thread_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace pipette::engine {

/// Typed request outcome — the error taxonomy of the service surface.
enum class ServiceStatus {
  kOk = 0,             ///< result.found, plan attached
  kNoFeasiblePlan,     ///< pipeline ran clean but every candidate was rejected
  kRejectedQueueFull,  ///< bounded admission queue was full (backpressure)
  kProfileFailed,      ///< transient profiling failures exhausted the retries
  kInternalError,      ///< unexpected exception; error carries what()
  kInvalidRequest,     ///< model::validate rejected the job, cluster::validate the
                       ///< topology's spec, or core::validate the service's SA
                       ///< budget or memory-training options; error names the
                       ///< field
};

const char* to_string(ServiceStatus s);

struct ServiceResult {
  ServiceStatus status = ServiceStatus::kOk;
  /// Human-readable detail for non-kOk statuses.
  std::string error;
  /// Always present; meaningful for kOk (the plan + health) and
  /// kNoFeasiblePlan (phase accounting, health of the degraded snapshot).
  core::ConfiguratorResult result;
  bool ok() const { return status == ServiceStatus::kOk; }
};

/// Per-request knobs.
struct RequestOptions {
  /// Wall-clock budget measured from submission (queue wait counts: a
  /// deadline is a promise to the caller, not to the scheduler). Propagated
  /// into PipetteOptions::deadline_s as the remaining budget when the
  /// request starts; infinite (default) never checks a clock.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Retries after a transient profiling failure before kProfileFailed.
  int profile_retries = 2;
  /// Base of the jittered exponential backoff between retries:
  /// base * 2^attempt * uniform(0.5, 1), jitter from a seed-derived stream.
  /// Each sleep is capped at common::kMaxBackoffS and clamped to what remains
  /// of a finite deadline.
  /// submit_request() answers kInvalidRequest for a NaN deadline_s, a
  /// negative profile_retries, or a retry_backoff_s not finite and >= 0.
  double retry_backoff_s = 0.02;
};

struct ConfigServiceOptions {
  /// Worker threads in the pool, which runs the requests and each request's
  /// candidate scoring and SA chains; <= 0 picks hardware concurrency.
  int threads = 0;
  /// Bounds on the per-cluster artifact cache.
  ClusterCacheOptions cache;
  /// Template options for every request. `memory`, `profile_snapshot`,
  /// `executor`, `trace_sink`, and `metrics` are overwritten per request from
  /// the cache, pool, and the two fields below.
  core::PipetteOptions pipette;
  /// Span tracer every request, SA rung, and cache event is emitted into (not
  /// owned; must outlive the service). One sink across a sweep() renders the
  /// whole study as a single Perfetto timeline. Null disables tracing.
  obs::TraceSink* trace = nullptr;
  /// Metrics registry; null makes the service own a private obs::Registry so
  /// metrics_text() always works and tenants stay isolated by default.
  obs::Registry* metrics = nullptr;
  /// Admission bound: submit_request() rejects (kRejectedQueueFull) while
  /// this many requests are admitted and unfinished. 0 = unbounded. sweep()
  /// submits through submit_request(), so a sweep's jobs beyond the bound
  /// come back kRejectedQueueFull.
  int max_pending = 0;
  /// Deterministic chaos schedule: when enabled, the service owns a
  /// FaultInjector wired into every profiling run (see engine/faults.h).
  FaultOptions faults;
};

class ConfigService {
 public:
  explicit ConfigService(ConfigServiceOptions opt);

  /// Enqueues one configure request — admission-bounded, deadline-aware,
  /// retrying, and exception-free: the future always delivers a
  /// ServiceResult, never throws. The topology is captured by value so the
  /// caller may discard it. A rejection (kInvalidRequest,
  /// kRejectedQueueFull) returns an already-resolved future without
  /// enqueueing work. `ro` bounds this request alone (no deadline and two
  /// retries by default). A resize is one more request on the new fabric:
  /// the cluster cache shares the trained estimator across resizes above the
  /// clamped training digest, so only the profile is new.
  std::future<ServiceResult> submit_request(cluster::Topology topo, model::TrainingJob job,
                                            RequestOptions ro = {});

  /// Submits every job against one cluster, each under `ro`, and waits for
  /// all of them; outcomes are in job order. Built on submit_request: one
  /// job's failure (fault, OOM-everything, internal error) cannot abort the
  /// sweep — its slot carries the typed status (its result has found ==
  /// false) and the surviving jobs return normally.
  std::vector<ServiceResult> sweep(const cluster::Topology& topo,
                                   const std::vector<model::TrainingJob>& jobs,
                                   RequestOptions ro = {});

  ClusterCacheStats cache_stats() const { return cache_.stats(); }
  ThreadPool& pool() { return pool_; }

  /// What the warm start found on disk (empty/attempted=false unless
  /// ClusterCacheOptions::snapshot_dir was set at construction — the cache is
  /// loaded once, before the service accepts work).
  const persist::LoadReport& load_report() const { return load_report_; }
  /// Blocks until every computed artifact is on disk. Call before a planned
  /// restart; crashes are covered anyway by the background persister +
  /// atomic records.
  void flush_snapshots() { cache_.flush(); }
  /// Records persisted / dropped-after-retries so far (0 without a
  /// snapshot_dir).
  long persisted_records() const { return cache_.persisted_records(); }
  long persist_failures() const { return cache_.persist_failures(); }

  /// Admitted-and-unfinished requests (the quantity max_pending bounds).
  int pending() const { return pending_.load(std::memory_order_relaxed); }
  /// The service's fault injector (null unless ConfigServiceOptions::faults
  /// is enabled) — chaos tests inspect the resolved schedule through this.
  const FaultInjector* fault_injector() const { return faults_.get(); }

  /// The registry the engine's metrics land in (the caller's via
  /// ConfigServiceOptions::metrics, else the service-owned one).
  obs::Registry& metrics() { return *metrics_; }
  /// Prometheus text exposition of metrics() — the scrape endpoint body.
  std::string metrics_text() const { return metrics_->prometheus_text(); }

 private:
  core::ConfiguratorResult configure_one(const cluster::Topology& topo,
                                         const model::TrainingJob& job, const RequestOptions& ro,
                                         const common::Stopwatch& admitted);
  /// configure_one with the exception surface folded into ServiceStatus.
  ServiceResult serve_one(const cluster::Topology& topo, const model::TrainingJob& job,
                          const RequestOptions& ro, const common::Stopwatch& admitted);
  /// Profiles-or-fetches the cluster artifacts, retrying transient profile
  /// failures with jittered exponential backoff. Writes the retry count.
  ClusterCache::Entry artifacts_with_retry(const cluster::Topology& topo,
                                           const model::TrainingJob& job,
                                           const RequestOptions& ro,
                                           const common::Stopwatch& admitted, int* retries);

  ConfigServiceOptions opt_;
  // Declared before cache_ and pool_, which hold handles into the registry.
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  /// Owned chaos schedule; opt_.pipette.profile.faults points at it so every
  /// profiling run (and every profile cache key) sees the same schedule.
  std::unique_ptr<FaultInjector> faults_;
  std::atomic<int> pending_{0};
  /// pipette.service.pending: pending_, moved by the same +1/-1 steps.
  obs::Gauge pending_gauge_;
  /// pipette.service.queue_wait_s: admission until a pool worker starts the
  /// request.
  obs::Histogram queue_wait_;
  ClusterCache cache_;
  /// Outcome of the construction-time warm start (see load_report()).
  persist::LoadReport load_report_;
  // Last member: destroyed first, so the pool drains queued configure tasks
  // (which touch cache_ and opt_) while both are still alive.
  ThreadPool pool_;
};

}  // namespace pipette::engine
