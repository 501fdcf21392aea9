#include "engine/cluster_cache.h"

#include <algorithm>
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
  // The fixed probe shape keeps the slots it had as options: old keys match.
  h = hash_combine(h, cluster::kProbeBytes);
  h = hash_combine(h, static_cast<std::uint64_t>(cluster::kProbeRounds));
  h = hash_combine(h, cluster::kProbeSetupS);
  h = hash_combine(h, cluster::kNodeInitS);
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
    m_evictions_ = opt_.metrics->counter("engine.cluster_cache.evictions");
    m_records_loaded_ = opt_.metrics->counter("pipette.persist.records_loaded");
    m_records_skipped_ = opt_.metrics->counter("pipette.persist.records_skipped");
    m_profile_s_ = opt_.metrics->histogram("engine.cluster_cache.profile_s",
                                           obs::Registry::latency_bounds_s());
    m_train_s_ = opt_.metrics->histogram("engine.cluster_cache.train_s",
                                         obs::Registry::latency_bounds_s());
  }
  if (!opt_.snapshot_dir.empty()) {
    // A NaN or infinite delay would reach sleep_for's integer conversion.
    if (!std::isfinite(opt_.persist_write_delay_s) || opt_.persist_write_delay_s < 0.0) {
      throw std::invalid_argument(
          "ClusterCacheOptions::persist_write_delay_s must be finite and >= 0");
    }
    persist::PersisterOptions popt;
    popt.dir = opt_.snapshot_dir;
    popt.write_delay_s = opt_.persist_write_delay_s;
    popt.metrics = opt_.metrics;
    persister_ = std::make_unique<persist::Persister>(std::move(popt));
  }
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

std::shared_ptr<ClusterCache::Cell> ClusterCache::acquire_locked(const CellKey& k) {
  const auto it =
      std::find_if(lru_.begin(), lru_.end(), [&](const auto& e) { return e.first == k; });
  if (it != lru_.end()) {
    std::rotate(it, it + 1, lru_.end());
  } else {
    lru_.emplace_back(k, std::make_shared<Cell>());
  }
  return lru_.back().second;
}

void ClusterCache::evict_locked(int keep) {
  const int excess = static_cast<int>(lru_.size()) - std::max(opt_.max_entries, keep);
  if (excess <= 0) return;
  lru_.erase(lru_.begin(), lru_.begin() + excess);
  stats_.evictions += excess;
  m_evictions_.add(excess);
}

ClusterCache::Entry ClusterCache::get_or_compute(const cluster::Topology& topo,
                                                 const cluster::ProfileOptions& profile_opt,
                                                 const estimators::MlpMemoryOptions& memory_opt) {
  using persist::RecordKind;
  const std::uint64_t pkey = profile_key(topo, profile_opt);
  const std::uint64_t mkey = memory_key(topo.spec(), memory_opt);
  std::shared_ptr<Cell> profile_cell, memory_cell;
  Entry entry;
  {
    std::lock_guard lk(mu_);
    ++stats_.lookups;
    m_lookups_.inc();
    profile_cell = acquire_locked({RecordKind::kProfile, pkey});
    memory_cell = acquire_locked({RecordKind::kMemory, mkey});
    evict_locked(2);  // never this lookup's own two cells
  }

  // Each fill runs with its cell's mutex held, and takes mu_ only to count.
  // Provenance is read there too: a cell can exist yet be empty, when an
  // earlier attempt failed before filling it.
  auto fill_profile = [&] {
    entry.profile_was_cached = profile_cell->profile != nullptr;
    if (!entry.profile_was_cached) {
      const common::Stopwatch sw;
      profile_cell->profile = std::make_shared<const cluster::ProfileResult>(
          cluster::profile_network(topo, profile_opt));
      m_profile_s_.observe(sw.seconds());
      m_profiles_run_.inc();
      if (persister_) persister_->enqueue_profile(pkey, profile_cell->profile);
      std::lock_guard slk(mu_);
      ++stats_.profiles_run;
    }
    entry.profile = profile_cell->profile;
    entry.profile_from_disk = profile_cell->from_disk;
  };
  auto fill_memory = [&] {
    entry.memory_was_cached = memory_cell->memory != nullptr;
    if (!entry.memory_was_cached) {
      const common::Stopwatch sw;
      memory_cell->memory = std::make_shared<const estimators::MlpMemoryEstimator>(
          estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(), memory_opt));
      m_train_s_.observe(sw.seconds());
      m_trainings_run_.inc();
      if (persister_) persister_->enqueue_memory(mkey, memory_cell->memory);
      std::lock_guard slk(mu_);
      ++stats_.trainings_run;
    }
    entry.memory = memory_cell->memory;
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
  if (entry.profile_was_cached && entry.memory_was_cached) {
    std::lock_guard lk(mu_);
    ++stats_.hits;
    m_hits_.inc();
  }
  return entry;
}

template <typename P>
void ClusterCache::install(persist::RecordKind kind, std::uint64_t key, P Cell::*field, P value) {
  // Lock order discipline: mu_ places the cell and is released before the
  // cell mutex is taken. No path takes a cell mutex while holding mu_ (a
  // fill takes mu_ inside its cell's lock only to count), so a load racing
  // live requests cannot deadlock.
  std::shared_ptr<Cell> cell;
  {
    std::lock_guard lk(mu_);
    cell = acquire_locked({kind, key});
    evict_locked(1);
  }
  std::lock_guard clk(cell->mu);
  if ((*cell).*field) return;  // a request beat the loader to it: the live artifact wins
  (*cell).*field = std::move(value);
  cell->from_disk = true;
}

persist::LoadReport ClusterCache::load() { return load(opt_.snapshot_dir); }

persist::LoadReport ClusterCache::load(const std::string& dir) {
  if (dir.empty()) return {};
  persist::LoadSinks sinks;
  sinks.profile = [this](std::uint64_t key, std::shared_ptr<const cluster::ProfileResult> p) {
    install(persist::RecordKind::kProfile, key, &Cell::profile, std::move(p));
  };
  sinks.memory = [this](std::uint64_t key,
                        std::shared_ptr<const estimators::MlpMemoryEstimator> est) {
    install(persist::RecordKind::kMemory, key, &Cell::memory, std::move(est));
  };
  persist::LoadReport report = persist::load_directory(dir, sinks);
  m_records_loaded_.add(report.loaded());
  m_records_skipped_.add(report.skipped_count());
  return report;
}

void ClusterCache::flush() {
  // Profiles and estimators were enqueued the moment they were computed.
  if (persister_) persister_->flush();
}

ClusterCacheStats ClusterCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

int ClusterCache::count_cells(persist::RecordKind kind) const {
  std::lock_guard lk(mu_);
  return static_cast<int>(
      std::count_if(lru_.begin(), lru_.end(), [&](const auto& e) { return e.first.kind == kind; }));
}

int ClusterCache::cached_profiles() const { return count_cells(persist::RecordKind::kProfile); }

int ClusterCache::cached_estimators() const { return count_cells(persist::RecordKind::kMemory); }

}  // namespace pipette::engine
