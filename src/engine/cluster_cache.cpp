#include "engine/cluster_cache.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "common/stopwatch.h"
#include "model/gpt_zoo.h"

namespace pipette::engine {

namespace {

std::uint64_t hash_profile_options(std::uint64_t h, const cluster::ProfileOptions& o) {
  using common::hash_combine;
  h = hash_combine(h, o.message_bytes);
  h = hash_combine(h, static_cast<std::uint64_t>(o.rounds));
  h = hash_combine(h, o.per_measurement_setup_s);
  h = hash_combine(h, o.per_node_init_s);
  h = hash_combine(h, o.noise_sigma);
  h = hash_combine(h, o.seed);
  // A fault schedule changes the measured matrix; snapshots taken under
  // different schedules (or none) must not alias. The hook's own fingerprint
  // is hashed, never its address.
  h = hash_combine(h, o.faults != nullptr ? o.faults->fingerprint() : std::uint64_t{0});
  return h;
}

}  // namespace

ClusterCache::ClusterCache(ClusterCacheOptions opt) : opt_(std::move(opt)) {
  if (opt_.metrics) {
    m_lookups_ = opt_.metrics->counter("engine.cluster_cache.lookups");
    m_hits_ = opt_.metrics->counter("engine.cluster_cache.hits");
    m_profiles_run_ = opt_.metrics->counter("engine.cluster_cache.profiles_run");
    m_trainings_run_ = opt_.metrics->counter("engine.cluster_cache.trainings_run");
    m_compute_created_ = opt_.metrics->counter("engine.cluster_cache.compute_caches_created");
    m_evictions_ = opt_.metrics->counter("engine.cluster_cache.evictions");
    m_records_loaded_ = opt_.metrics->counter("pipette.persist.records_loaded");
    m_records_skipped_ = opt_.metrics->counter("pipette.persist.records_skipped");
    m_profile_s_ = opt_.metrics->histogram("engine.cluster_cache.profile_s",
                                           obs::Registry::latency_bounds_s());
    m_train_s_ = opt_.metrics->histogram("engine.cluster_cache.train_s",
                                         obs::Registry::latency_bounds_s());
  }
  if (!opt_.snapshot_dir.empty()) {
    // A negative retry count would drop every record unattempted, and a NaN
    // or infinite delay would reach sleep_for's integer conversion.
    if (opt_.persist_retries < 0) {
      throw std::invalid_argument("ClusterCacheOptions::persist_retries must be >= 0, got " +
                                  std::to_string(opt_.persist_retries));
    }
    const std::pair<const char*, double> delays[] = {
        {"persist_backoff_s", opt_.persist_backoff_s},
        {"persist_write_delay_s", opt_.persist_write_delay_s}};
    for (const auto& [field, v] : delays) {
      if (!std::isfinite(v) || v < 0.0) {
        throw std::invalid_argument(std::string("ClusterCacheOptions::") + field +
                                    " must be finite and >= 0");
      }
    }
    persist::PersisterOptions popt;
    popt.dir = opt_.snapshot_dir;
    popt.write_behind = opt_.persist_write_behind;
    popt.retries = opt_.persist_retries;
    popt.backoff_s = opt_.persist_backoff_s;
    popt.seed = opt_.persist_seed;
    popt.write_delay_s = opt_.persist_write_delay_s;
    popt.metrics = opt_.metrics;
    persister_ = std::make_unique<persist::Persister>(std::move(popt));
  }
}

ClusterCache::~ClusterCache() {
  // Final flush so compute-shape caches (which fill lazily and are only
  // snapshotted here and in flush()) survive a clean shutdown. The persister
  // member's own destructor then drains any remaining queue.
  flush();
}

std::uint64_t ClusterCache::profile_key(const cluster::Topology& topo,
                                        const cluster::ProfileOptions& profile_opt) {
  return hash_profile_options(topo.fingerprint(), profile_opt);
}

std::uint64_t ClusterCache::memory_key(const cluster::ClusterSpec& spec,
                                       const estimators::MlpMemoryOptions& memory_opt) {
  // The estimator's own training digest: the single source of truth for what
  // a trained artifact depends on (spec clamped to the profiled sub-cluster,
  // every training option, the feature version).
  return estimators::MlpMemoryEstimator::training_digest(spec, memory_opt);
}

std::uint64_t ClusterCache::compute_key(const cluster::ClusterSpec& spec,
                                        const estimators::ComputeProfileOptions& compute_opt) {
  return estimators::compute_context_digest(spec, compute_opt);
}

void ClusterCache::erase_compute_locked(std::uint64_t key) {
  compute_.erase(key);
  compute_last_used_.erase(key);
  for (auto it = compute_order_.begin(); it != compute_order_.end(); ++it) {
    if (*it == key) {
      compute_order_.erase(it);
      break;
    }
  }
}

void ClusterCache::enforce_total_cap_locked(std::uint64_t protect_seq, int* evicted) {
  const auto total = [this] {
    return static_cast<int>(profiles_.cells.size() + estimators_.cells.size() + compute_.size());
  };
  while (total() > opt_.max_entries) {
    const auto p = profiles_.lru_before(protect_seq);
    const auto m = estimators_.lru_before(protect_seq);
    std::optional<std::pair<std::uint64_t, std::uint64_t>> c;
    for (const auto& [key, seq] : compute_last_used_) {
      if (seq < protect_seq && (!c || seq < c->second)) c = {{key, seq}};
    }
    int which = -1;
    std::uint64_t best = 0;
    if (p && (which < 0 || p->second < best)) which = 0, best = p->second;
    if (m && (which < 0 || m->second < best)) which = 1, best = m->second;
    if (c && (which < 0 || c->second < best)) which = 2, best = c->second;
    if (which < 0) break;  // only this lookup's own entries remain — never evict those
    if (which == 0) {
      profiles_.erase(p->first);
    } else if (which == 1) {
      estimators_.erase(m->first);
    } else {
      erase_compute_locked(c->first);
    }
    ++*evicted;
  }
}

ClusterCache::Entry ClusterCache::get_or_compute(
    const cluster::Topology& topo, const cluster::ProfileOptions& profile_opt,
    const estimators::MlpMemoryOptions& memory_opt,
    const estimators::ComputeProfileOptions& compute_opt) {
  const std::uint64_t pkey = profile_key(topo, profile_opt);
  const std::uint64_t mkey = memory_key(topo.spec(), memory_opt);
  const std::uint64_t ckey = compute_key(topo.spec(), compute_opt);
  std::shared_ptr<Cell<cluster::ProfileResult>> profile_cell;
  std::shared_ptr<Cell<estimators::MlpMemoryEstimator>> memory_cell;
  Entry entry;
  {
    std::lock_guard lk(mu_);
    ++stats_.lookups;
    m_lookups_.inc();
    int evicted = 0;
    const std::uint64_t seq = ++seq_;  // one recency stamp per lookup
    const auto [pcell, phit] = profiles_.acquire(pkey, opt_.max_profiles, seq, &evicted);
    const auto [mcell, mhit] = estimators_.acquire(mkey, opt_.max_estimators, seq, &evicted);
    if (phit && mhit) {
      ++stats_.hits;
      m_hits_.inc();
    }
    entry.profile_was_cached = phit;
    entry.memory_was_cached = mhit;
    profile_cell = pcell;
    memory_cell = mcell;
    // The shape cache starts empty and fills lazily inside requests, so it
    // is minted right here under the cache mutex.
    auto& slot = compute_[ckey];
    entry.compute_was_cached = static_cast<bool>(slot.cache);
    if (!slot.cache) {
      slot.cache = std::make_shared<estimators::ComputeProfileCache>(ckey);
      ++stats_.compute_caches_created;
      m_compute_created_.inc();
      compute_order_.push_back(ckey);
      while (static_cast<int>(compute_.size()) > opt_.max_compute_caches &&
             compute_order_.front() != ckey) {
        erase_compute_locked(compute_order_.front());
        ++evicted;
      }
    }
    entry.compute = slot.cache;
    entry.compute_from_disk = slot.from_disk;
    compute_last_used_[ckey] = seq;
    enforce_total_cap_locked(seq, &evicted);
    stats_.evictions += evicted;
    if (evicted > 0) m_evictions_.add(evicted);
  }

  auto fill_profile = [&] {  // caller holds profile_cell->mu
    if (!profile_cell->value) {
      const common::Stopwatch sw;
      profile_cell->value = std::make_shared<const cluster::ProfileResult>(
          cluster::profile_network(topo, profile_opt));
      m_profile_s_.observe(sw.seconds());
      m_profiles_run_.inc();
      if (persister_) persister_->enqueue_profile(pkey, profile_cell->value);
      std::lock_guard slk(mu_);
      ++stats_.profiles_run;
    }
    entry.profile = profile_cell->value;
    entry.profile_from_disk = profile_cell->from_disk;
  };
  auto fill_memory = [&] {  // caller holds memory_cell->mu
    if (!memory_cell->value) {
      const common::Stopwatch sw;
      memory_cell->value = std::make_shared<const estimators::MlpMemoryEstimator>(
          estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(), memory_opt));
      m_train_s_.observe(sw.seconds());
      m_trainings_run_.inc();
      if (persister_) persister_->enqueue_memory(mkey, memory_cell->value);
      std::lock_guard slk(mu_);
      ++stats_.trainings_run;
    }
    entry.memory = memory_cell->value;
    entry.memory_from_disk = memory_cell->from_disk;
  };

  // The two artifacts are independent; when another request is already
  // profiling this fabric, do the training half first instead of queueing —
  // concurrent first requests then split the work (max, not sum, latency).
  // At most one cell mutex is held at a time, so the opposite orders cannot
  // deadlock.
  std::unique_lock plk(profile_cell->mu, std::defer_lock);
  if (plk.try_lock()) {
    fill_profile();
    plk.unlock();
    std::lock_guard mlk(memory_cell->mu);
    fill_memory();
  } else {
    {
      std::lock_guard mlk(memory_cell->mu);
      fill_memory();
    }
    std::lock_guard plk2(profile_cell->mu);
    fill_profile();
  }
  return entry;
}

persist::LoadReport ClusterCache::load() { return load(opt_.snapshot_dir); }

persist::LoadReport ClusterCache::load(const std::string& dir) {
  if (dir.empty()) return {};
  persist::LoadSinks sinks;
  // Lock order discipline: the sinks take mu_ to place the cell, release it,
  // then take the cell mutex to install the value — the same mu_-before-cell
  // never-nested order get_or_compute uses, so a load racing live requests
  // cannot deadlock. A cell that already has a value (a request beat the
  // loader to it) keeps the live artifact.
  sinks.profile = [this](std::uint64_t key, std::shared_ptr<const cluster::ProfileResult> p) {
    std::shared_ptr<Cell<cluster::ProfileResult>> cell;
    {
      std::lock_guard lk(mu_);
      int evicted = 0;
      const std::uint64_t seq = ++seq_;
      cell = profiles_.acquire(key, opt_.max_profiles, seq, &evicted).first;
      enforce_total_cap_locked(seq, &evicted);
      stats_.evictions += evicted;
      if (evicted > 0) m_evictions_.add(evicted);
    }
    std::lock_guard clk(cell->mu);
    if (!cell->value) {
      cell->value = std::move(p);
      cell->from_disk = true;
    }
  };
  sinks.memory = [this](std::uint64_t key,
                        std::shared_ptr<const estimators::MlpMemoryEstimator> est) {
    std::shared_ptr<Cell<estimators::MlpMemoryEstimator>> cell;
    {
      std::lock_guard lk(mu_);
      int evicted = 0;
      const std::uint64_t seq = ++seq_;
      cell = estimators_.acquire(key, opt_.max_estimators, seq, &evicted).first;
      enforce_total_cap_locked(seq, &evicted);
      stats_.evictions += evicted;
      if (evicted > 0) m_evictions_.add(evicted);
    }
    std::lock_guard clk(cell->mu);
    if (!cell->value) {
      cell->value = std::move(est);
      cell->from_disk = true;
    }
  };
  sinks.compute = [this](std::uint64_t key, std::shared_ptr<estimators::ComputeProfileCache> c) {
    std::lock_guard lk(mu_);
    auto& slot = compute_[key];
    if (slot.cache) return;  // a live cache (already filling) wins the tie
    slot.cache = std::move(c);
    slot.from_disk = true;
    compute_order_.push_back(key);
    int evicted = 0;
    while (static_cast<int>(compute_.size()) > opt_.max_compute_caches &&
           compute_order_.front() != key) {
      erase_compute_locked(compute_order_.front());
      ++evicted;
    }
    const std::uint64_t seq = ++seq_;
    compute_last_used_[key] = seq;
    enforce_total_cap_locked(seq, &evicted);
    stats_.evictions += evicted;
    if (evicted > 0) m_evictions_.add(evicted);
  };
  persist::LoadReport report = persist::load_directory(dir, sinks);
  m_records_loaded_.add(report.loaded());
  m_records_skipped_.add(report.skipped_count());
  return report;
}

void ClusterCache::flush() {
  if (!persister_) return;
  // Compute-shape caches fill lazily on the request path, so they are
  // snapshotted here (and at shutdown) rather than on creation. Profiles and
  // estimators were enqueued the moment they were computed.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const estimators::ComputeProfileCache>>>
      caches;
  {
    std::lock_guard lk(mu_);
    caches.reserve(compute_.size());
    for (const auto& [key, slot] : compute_) {
      if (slot.cache) caches.emplace_back(key, slot.cache);
    }
  }
  for (auto& [key, cache] : caches) {
    if (!cache->snapshot().empty()) persister_->enqueue_compute(key, cache);
  }
  persister_->flush();
}

ClusterCacheStats ClusterCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

int ClusterCache::cached_profiles() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(profiles_.cells.size());
}

int ClusterCache::cached_estimators() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(estimators_.cells.size());
}

int ClusterCache::cached_compute_caches() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(compute_.size());
}

}  // namespace pipette::engine
