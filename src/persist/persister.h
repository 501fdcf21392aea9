// Snapshot persister: the hot path (a configure request that just computed
// an artifact) enqueues a shared_ptr and returns; one background thread
// serializes and writes. Disk latency, a full filesystem, or a flaky volume
// therefore never blocks a request — the worst a sick disk can do is leave
// the cache cold on the next restart.
//
// Failure policy: each write retries kRetries times with jittered
// exponential backoff from kBackoffS (pipette.persist.write_retries); a
// record that exhausts its retries is dropped and counted
// (pipette.persist.write_failures) — persistence is an optimization, and an
// optimization must never take the service down.
// Ordering: the queue is FIFO per enqueue order, and records for the same
// key atomically replace the same file, so the last enqueued state wins on
// disk regardless of retry interleaving (writes are single-threaded).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <variant>

#include "obs/registry.h"
#include "persist/store.h"

namespace pipette::persist {

struct PersisterOptions {
  std::string dir;  ///< snapshot directory (created on first write)
  /// Widened torn-write window for the crash-recovery CI (see
  /// persist::write_file_atomic); 0 in production.
  double write_delay_s = 0.0;
  /// pipette.persist.* counters (not owned; may be null).
  obs::Registry* metrics = nullptr;
};

class Persister {
 public:
  /// Extra write attempts per record on I/O failure.
  static constexpr int kRetries = 3;
  /// Base of the jittered exponential backoff between attempts; each sleep
  /// is capped at common::kMaxBackoffS.
  static constexpr double kBackoffS = 0.01;

  explicit Persister(PersisterOptions opt);
  /// Drains the queue (final flush), then joins the thread.
  ~Persister();

  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  // Enqueue one artifact for persistence. Cheap: moves a shared_ptr under a
  // mutex; serialization happens on the persister thread. The artifact is
  // kept alive by the queue until written.
  void enqueue_profile(std::uint64_t key, std::shared_ptr<const cluster::ProfileResult> profile);
  void enqueue_memory(std::uint64_t key,
                      std::shared_ptr<const estimators::MlpMemoryEstimator> estimator);

  /// Blocks until every record enqueued before the call has been written (or
  /// has exhausted its retries). The warm-restart handshake: flush(), then
  /// start the next service on the directory.
  void flush();

  long records_written() const;
  long write_failures() const;

 private:
  using Artifact = std::variant<std::shared_ptr<const cluster::ProfileResult>,
                                std::shared_ptr<const estimators::MlpMemoryEstimator>>;
  struct Job {
    RecordKind kind;
    std::uint64_t key;
    Artifact artifact;
  };

  void enqueue(Job job);
  /// Serialize + write one record with the retry/backoff loop.
  void write_one(const Job& job);
  void run();

  PersisterOptions opt_;
  obs::Counter m_written_, m_retries_, m_failures_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< wakes the worker
  std::condition_variable idle_cv_;  ///< wakes flush() waiters
  std::deque<Job> queue_;
  bool in_flight_ = false;  ///< worker is writing a popped job
  bool stop_ = false;
  long written_ = 0;
  long failures_ = 0;
  std::thread worker_;  ///< last member: joins while the rest is alive
};

}  // namespace pipette::persist
