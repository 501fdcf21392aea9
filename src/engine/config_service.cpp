#include "engine/config_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "common/backoff.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "mlp/matrix.h"
#include "obs/json.h"

namespace pipette::engine {

namespace {

ClusterCacheOptions with_metrics(ClusterCacheOptions cache, obs::Registry* metrics) {
  cache.metrics = metrics;
  return cache;
}

/// Why `ro` cannot bound a request — the first unusable field, named — or an
/// empty string when every field is usable.
std::string validate(const RequestOptions& ro) {
  if (std::isnan(ro.deadline_s)) return "deadline_s must not be NaN";
  if (ro.profile_retries < 0) {
    return "profile_retries must be >= 0, got " + std::to_string(ro.profile_retries);
  }
  if (!std::isfinite(ro.retry_backoff_s) || ro.retry_backoff_s < 0.0) {
    return "retry_backoff_s must be finite and >= 0";
  }
  return {};
}

/// Decrements the pending count and its gauge when a request finishes,
/// however it exits.
struct PendingGuard {
  std::atomic<int>* pending;
  obs::Gauge gauge;
  ~PendingGuard() {
    pending->fetch_sub(1, std::memory_order_relaxed);
    gauge.add(-1);
  }
};

}  // namespace

const char* to_string(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kNoFeasiblePlan: return "no_feasible_plan";
    case ServiceStatus::kRejectedQueueFull: return "rejected_queue_full";
    case ServiceStatus::kProfileFailed: return "profile_failed";
    case ServiceStatus::kInternalError: return "internal_error";
    case ServiceStatus::kInvalidRequest: return "invalid_request";
  }
  return "unknown";
}

ConfigService::ConfigService(ConfigServiceOptions opt)
    : opt_(std::move(opt)),
      owned_metrics_(opt_.metrics ? nullptr : std::make_unique<obs::Registry>()),
      metrics_(opt_.metrics ? opt_.metrics : owned_metrics_.get()),
      pending_gauge_(metrics_->gauge("pipette.service.pending")),
      queue_wait_(metrics_->histogram("pipette.service.queue_wait_s",
                                      obs::Registry::latency_bounds_s())),
      cache_(with_metrics(opt_.cache, metrics_)),
      pool_(opt_.threads, metrics_) {
  // The estimator's training time (engine.cluster_cache.train_s) depends on
  // the lane width its kernels run at, which the CPU decides.
  metrics_->gauge("pipette.mlp.simd_lanes").set(mlp::kernels().lanes);
  if (opt_.faults.enabled) {
    FaultOptions fo = opt_.faults;
    fo.metrics = metrics_;
    faults_ = std::make_unique<FaultInjector>(fo);
    // Every profiling run — and every profile cache key, via the hook's
    // fingerprint — now sees the schedule.
    opt_.pipette.profile.faults = faults_.get();
  }
  if (!opt_.cache.snapshot_dir.empty()) {
    // Warm start before the service accepts work: whatever survives
    // verification fills the cache, whatever doesn't lands in the report —
    // a fully corrupt directory just means a cold start, never a failed
    // construction.
    load_report_ = cache_.load();
  }
}

std::future<ServiceResult> ConfigService::submit_request(cluster::Topology topo,
                                                         model::TrainingJob job,
                                                         RequestOptions ro) {
  // Rejections are already-resolved futures — typed answers, not exceptions,
  // and no task ever enters the pool.
  auto reject = [](ServiceStatus status, std::string error) {
    ServiceResult sr;
    sr.status = status;
    sr.error = std::move(error);
    std::promise<ServiceResult> p;
    p.set_value(std::move(sr));
    return p.get_future();
  };
  // Malformed cluster specs, unusable SA budgets and degenerate
  // memory-training options would only throw (or crash) inside the
  // configurator or the cluster cache, after the fabric was profiled; a NaN
  // deadline would silently mean none, and an infinite backoff would sleep
  // forever on the first transient profiling failure: reject them here.
  std::string reason = model::validate(job);
  if (reason.empty()) reason = cluster::validate(topo.spec());
  if (reason.empty()) reason = core::validate(opt_.pipette);
  if (reason.empty()) reason = validate(ro);
  if (!reason.empty()) {
    metrics_->counter("pipette.service.invalid_request").inc();
    if (opt_.trace) opt_.trace->instant("request.invalid");
    return reject(ServiceStatus::kInvalidRequest, std::move(reason));
  }
  // Bounded admission: CAS so concurrent submitters can never overshoot the
  // bound.
  int cur = pending_.load(std::memory_order_relaxed);
  do {
    if (opt_.max_pending > 0 && cur >= opt_.max_pending) {
      metrics_->counter("pipette.service.rejected_queue_full").inc();
      if (opt_.trace) opt_.trace->instant("request.rejected");
      return reject(ServiceStatus::kRejectedQueueFull,
                    "admission queue full (" + std::to_string(cur) + "/" +
                        std::to_string(opt_.max_pending) + " pending)");
    }
  } while (!pending_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed));
  // Deltas, not levels: a level computed on one thread and stored after a
  // later one would leave the gauge off for good.
  pending_gauge_.add(1);

  const common::Stopwatch admitted;
  return pool_.submit([this, topo = std::move(topo), job = std::move(job), ro, admitted] {
    queue_wait_.observe(admitted.seconds());
    const PendingGuard guard{&pending_, pending_gauge_};
    return serve_one(topo, job, ro, admitted);
  });
}

std::vector<ServiceResult> ConfigService::sweep(const cluster::Topology& topo,
                                                const std::vector<model::TrainingJob>& jobs,
                                                RequestOptions ro) {
  std::vector<std::future<ServiceResult>> futs;
  futs.reserve(jobs.size());
  for (const auto& job : jobs) futs.push_back(submit_request(topo, job, ro));
  std::vector<ServiceResult> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

ServiceResult ConfigService::serve_one(const cluster::Topology& topo,
                                       const model::TrainingJob& job, const RequestOptions& ro,
                                       const common::Stopwatch& admitted) {
  ServiceResult sr;
  try {
    sr.result = configure_one(topo, job, ro, admitted);
    if (!sr.result.found) {
      sr.status = ServiceStatus::kNoFeasiblePlan;
      sr.error = "no candidate plan fits the cluster";
    }
  } catch (const cluster::ProfileTransientError& e) {
    sr.status = ServiceStatus::kProfileFailed;
    sr.error = e.what();
    metrics_->counter("pipette.service.profile_failed").inc();
  } catch (const std::exception& e) {
    sr.status = ServiceStatus::kInternalError;
    sr.error = e.what();
    metrics_->counter("pipette.service.internal_error").inc();
  }
  return sr;
}

ClusterCache::Entry ConfigService::artifacts_with_retry(const cluster::Topology& topo,
                                                        const model::TrainingJob& job,
                                                        const RequestOptions& ro,
                                                        const common::Stopwatch& admitted,
                                                        int* retries) {
  // Jitter stream derived from the profile seed and the job: deterministic
  // per request, decorrelated across a sweep (no retry thundering herd).
  common::Rng jitter(
      common::hash_combine(common::hash_combine(opt_.pipette.profile.seed, model::job_digest(job)),
                           topo.fingerprint()));
  for (int attempt = 0;; ++attempt) {
    try {
      return cache_.get_or_compute(topo, opt_.pipette.profile, opt_.pipette.memory_training);
    } catch (const cluster::ProfileTransientError&) {
      if (attempt >= ro.profile_retries) throw;
      // Give up retrying once the deadline is already blown — the typed
      // kProfileFailed answer beats burning backoff sleep past the budget.
      if (std::isfinite(ro.deadline_s) && admitted.seconds() >= ro.deadline_s) throw;
      ++*retries;
      metrics_->counter("pipette.service.profile_retries").inc();
      if (opt_.trace) opt_.trace->instant("profile.retry");
      double backoff = common::backoff_s(ro.retry_backoff_s, attempt, jitter.uniform(0.5, 1.0));
      // Never sleep past the deadline: the last retry runs when it falls due.
      if (std::isfinite(ro.deadline_s)) {
        backoff = std::min(backoff, ro.deadline_s - admitted.seconds());
      }
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
}

core::ConfiguratorResult ConfigService::configure_one(const cluster::Topology& topo,
                                                      const model::TrainingJob& job,
                                                      const RequestOptions& ro,
                                                      const common::Stopwatch& admitted) {
  obs::TraceSink* const sink = opt_.trace;
  obs::Span request_span(
      sink, "request",
      sink ? obs::json_object("job", job.model.name, "gpus", topo.num_gpus()) : std::string());
  int retries = 0;
  const ClusterCache::Entry entry = artifacts_with_retry(topo, job, ro, admitted, &retries);
  if (sink) {
    auto hit = [](bool cached) { return cached ? "hit" : "miss"; };
    sink->instant("cluster_cache", obs::json_object("profile", hit(entry.profile_was_cached),
                                                    "memory", hit(entry.memory_was_cached)));
  }
  core::PipetteOptions po = opt_.pipette;
  po.memory = entry.memory;
  po.profile_snapshot = entry.profile;
  po.executor = &pool_;
  po.trace_sink = sink;
  po.metrics = metrics_;
  const bool deadlined = std::isfinite(ro.deadline_s);
  if (deadlined) {
    // The configurator budgets from its own entry; hand it what remains of
    // the caller's budget after queue wait and profiling retries.
    po.deadline_s = std::max(0.0, ro.deadline_s - admitted.seconds());
  }
  core::PipetteConfigurator configurator(std::move(po));
  core::ConfiguratorResult res = configurator.configure(topo, job);
  // Artifact provenance is the cache's to report: it knows which artifacts
  // this request reused.
  res.profile_cache_hit = entry.profile_was_cached;
  res.memory_cache_hit = entry.memory_was_cached;
  res.profile_from_disk = entry.profile_from_disk;
  res.memory_from_disk = entry.memory_from_disk;
  res.health.profile_retries = retries;
  if (deadlined) {
    // Service-level accounting supersedes the configurator's: the promise
    // was measured from submission, not configure() entry.
    res.health.deadline_s = ro.deadline_s;
    res.health.overrun_s = std::max(0.0, admitted.seconds() - ro.deadline_s);
    metrics_->counter("pipette.deadline.requests").inc();
    metrics_->histogram("pipette.deadline.overrun_s", obs::Registry::latency_bounds_s())
        .observe(res.health.overrun_s);
    if (res.health.overrun_s > 0.0) metrics_->counter("pipette.deadline.overruns").inc();
  }
  return res;
}

}  // namespace pipette::engine
