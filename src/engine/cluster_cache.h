// Cluster-fingerprint cache. Algorithm 1 pays two per-cluster costs that do
// not depend on the job being configured: profiling the bandwidth matrix
// (line 1) and training the MLP memory estimator (§VI). A stream of configure
// requests against the same fabric — the realistic serving workload — should
// pay them once. This cache memoizes both, each under the narrowest key that
// determines it:
//
//   * the bandwidth profile on Topology::fingerprint() (spec + the attained
//     link state of the current day) mixed with the profiling options — a new
//     day or heterogeneity universe means a new profile;
//   * the trained estimator on MlpMemoryEstimator::training_digest() — its
//     training data is simulated on sub-clusters of up to max_profile_nodes
//     from the spec alone, so it survives day drift, is shared across
//     same-spec fabrics, and survives elastic resizes above the clamp.
//
// Nothing cheaper is cached here: a request's compute shapes and memory
// estimates cost a few milliseconds, under 1% of a warm request, so each
// request computes its own (PipetteConfigurator::filter / score).
//
// Thread-safe: concurrent first requests for the same key compute the
// artifact exactly once (the rest block on its cell), and distinct keys
// compute concurrently.
//
// Bounded: day drift mints a fresh profile key per day, so a long-running
// service would otherwise accumulate stale bandwidth matrices forever. Both
// kinds share one cell type under one LRU bound, `max_entries`: past it the
// least recently used cells are evicted, never the two the current lookup
// touched. In-flight users keep evicted artifacts alive through their
// shared_ptrs, and an evicted key simply recomputes on its next request.
//
// Persistent: with `snapshot_dir` set, every computed profile and estimator
// is serialized by the persister's background thread (persist/persister.h)
// — atomic per-record files, jittered retries, the request path never
// touches disk. load() warm-starts the cells from such a directory,
// tolerating any corruption per record (typed persist::LoadReport), and tags
// warmed entries so requests can report `from_disk` provenance.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/profiler.h"
#include "estimators/mlp_memory.h"
#include "obs/registry.h"
#include "persist/persister.h"
#include "persist/store.h"

namespace pipette::engine {

struct ClusterCacheStats {
  int lookups = 0;
  int hits = 0;           ///< lookups that computed neither artifact (see Entry)
  int profiles_run = 0;   ///< actual profile_network invocations
  int trainings_run = 0;  ///< actual MlpMemoryEstimator trainings
  int evictions = 0;      ///< cells dropped by the max_entries bound
};

struct ClusterCacheOptions {
  /// Cells kept across both artifact kinds (profiles and estimators); past
  /// it the least recently used are evicted.
  int max_entries = 96;
  /// Mirrors every ClusterCacheStats field into engine.cluster_cache.*
  /// registry counters, and times every computed artifact into the
  /// engine.cluster_cache.profile_s / train_s histograms (not owned, must
  /// outlive the cache). Null keeps the historical stats_-only accounting.
  obs::Registry* metrics = nullptr;

  // --- persistent tier (inert while snapshot_dir is empty) ---
  std::string snapshot_dir;  ///< record-per-file snapshot directory
  /// Widens the torn-write window (crash-recovery CI); 0 in production.
  double persist_write_delay_s = 0.0;
};

class ClusterCache {
 public:
  struct Entry {
    std::shared_ptr<const cluster::ProfileResult> profile;
    std::shared_ptr<const estimators::MlpMemoryEstimator> memory;
    // Per-artifact provenance of *this* lookup: true when the artifact was
    // already in its cell once the lookup held the cell's mutex — computed by
    // another request (perhaps while this one waited on it) or loaded from
    // disk. A cell a failed attempt left empty does not count.
    bool profile_was_cached = false;
    bool memory_was_cached = false;
    // True when the artifact was warm-started from a snapshot directory by
    // load() rather than computed in this process.
    bool profile_from_disk = false;
    bool memory_from_disk = false;
  };

  /// With a snapshot_dir set, throws std::invalid_argument naming the field
  /// for a persist_write_delay_s that is not finite and >= 0.
  explicit ClusterCache(ClusterCacheOptions opt = {});

  /// Returns the memoized artifacts for this cluster/options tuple, computing
  /// them (profile + estimator training on the gpt zoo) on first request.
  Entry get_or_compute(const cluster::Topology& topo, const cluster::ProfileOptions& profile_opt,
                       const estimators::MlpMemoryOptions& memory_opt);

  /// Warm-starts the cache from a snapshot directory. Every record is
  /// independently verified; corrupt, truncated, version-skewed, or foreign
  /// files are skipped into the returned report and the rest load — a fully
  /// corrupt directory simply leaves the cache empty. Never throws on bad
  /// data. Safe to call while requests are in flight (live cells win ties).
  persist::LoadReport load(const std::string& dir);
  /// load() from the configured snapshot_dir (no-op report when unset).
  persist::LoadReport load();

  /// Blocks until every enqueued record is on disk (or exhausted its
  /// retries). The warm-restart handshake: flush(), then start the next
  /// service on the same directory. Destruction drains the queue too.
  void flush();

  /// Key of the memoized bandwidth profile.
  static std::uint64_t profile_key(const cluster::Topology& topo,
                                   const cluster::ProfileOptions& profile_opt);
  /// Key of the memoized trained estimator (the clamped training digest, so
  /// resizes above max_profile_nodes share the artifact).
  static std::uint64_t memory_key(const cluster::ClusterSpec& spec,
                                  const estimators::MlpMemoryOptions& memory_opt);

  ClusterCacheStats stats() const;
  int cached_profiles() const;
  int cached_estimators() const;
  long persisted_records() const { return persister_ ? persister_->records_written() : 0; }
  long persist_failures() const { return persister_ ? persister_->write_failures() : 0; }

 private:
  /// One artifact of either kind. Only the pointer of the key's kind is
  /// used; it is null until the artifact is computed or loaded, and is read
  /// and written under `mu`.
  struct Cell {
    std::mutex mu;
    std::shared_ptr<const cluster::ProfileResult> profile;
    std::shared_ptr<const estimators::MlpMemoryEstimator> memory;
    bool from_disk = false;  ///< installed by load(), not computed
  };
  struct CellKey {
    persist::RecordKind kind;
    std::uint64_t key;
    bool operator==(const CellKey&) const = default;
  };

  /// The cell for `k`, created if absent; marks it most recently used.
  /// Caller must hold mu_.
  std::shared_ptr<Cell> acquire_locked(const CellKey& k);
  /// Evicts least recently used cells past max_entries, never the `keep`
  /// most recent (the caller's own). Caller must hold mu_.
  void evict_locked(int keep);
  /// load()'s one install path: places `value` in its cell unless a live
  /// artifact (computed, or still being computed) is already there.
  template <typename P>
  void install(persist::RecordKind kind, std::uint64_t key, P Cell::*field, P value);
  int count_cells(persist::RecordKind kind) const;

  ClusterCacheOptions opt_;
  mutable std::mutex mu_;  // guards lru_ and stats_
  /// Every cell, least recently used first. A linear scan finds a key: the
  /// bound is tens of cells, each a profile or an estimator.
  std::vector<std::pair<CellKey, std::shared_ptr<Cell>>> lru_;
  ClusterCacheStats stats_;
  /// Background snapshot writer; null while snapshot_dir is empty.
  std::unique_ptr<persist::Persister> persister_;
  // Registry mirrors of stats_ (inert without ClusterCacheOptions::metrics).
  obs::Counter m_lookups_, m_hits_, m_profiles_run_, m_trainings_run_, m_evictions_;
  obs::Counter m_records_loaded_, m_records_skipped_;
  // Wall time of each profile_network / train_for_cluster this cache ran: on
  // the service path these run inside get_or_compute, so the requests that
  // waited on them report zero profile/training time of their own.
  obs::Histogram m_profile_s_, m_train_s_;
};

}  // namespace pipette::engine
