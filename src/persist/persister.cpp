#include "persist/persister.h"

#include <chrono>
#include <utility>

#include "common/backoff.h"
#include "common/rng.h"

namespace pipette::persist {

namespace {

/// Seed of the retry-jitter stream, forked per record key.
constexpr std::uint64_t kJitterSeed = 0x5eed;

}  // namespace

Persister::Persister(PersisterOptions opt) : opt_(std::move(opt)) {
  if (opt_.metrics != nullptr) {
    m_written_ = opt_.metrics->counter("pipette.persist.records_written");
    m_retries_ = opt_.metrics->counter("pipette.persist.write_retries");
    m_failures_ = opt_.metrics->counter("pipette.persist.write_failures");
  }
  worker_ = std::thread([this] { run(); });
}

Persister::~Persister() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void Persister::enqueue_profile(std::uint64_t key,
                                std::shared_ptr<const cluster::ProfileResult> profile) {
  if (profile == nullptr) return;
  enqueue({RecordKind::kProfile, key, std::move(profile)});
}

void Persister::enqueue_memory(std::uint64_t key,
                               std::shared_ptr<const estimators::MlpMemoryEstimator> estimator) {
  if (estimator == nullptr) return;
  enqueue({RecordKind::kMemory, key, std::move(estimator)});
}

void Persister::enqueue(Job job) {
  if (opt_.dir.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void Persister::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !in_flight_; });
}

long Persister::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

long Persister::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void Persister::write_one(const Job& job) {
  // Serialize here, off the hot path. Artifacts are immutable once published
  // (shared_ptr<const>), so encoding outside any Persister lock is safe.
  std::vector<unsigned char> payload;
  try {
    switch (job.kind) {
      case RecordKind::kProfile:
        payload = encode_profile(
            *std::get<std::shared_ptr<const cluster::ProfileResult>>(job.artifact));
        break;
      case RecordKind::kMemory:
        payload = encode_memory(
            *std::get<std::shared_ptr<const estimators::MlpMemoryEstimator>>(job.artifact));
        break;
    }
  } catch (const std::exception&) {
    // An unencodable artifact (should not happen) is a failure, not a crash.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++failures_;
    }
    m_failures_.inc();
    return;
  }

  auto rng = common::Rng(kJitterSeed).fork(job.key);
  for (int attempt = 0; attempt <= kRetries; ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff: transient failures (NFS hiccup, fd
      // pressure) get time to clear without the retries synchronizing.
      const double sleep_s = common::backoff_s(kBackoffS, attempt - 1, rng.uniform(0.5, 1.5));
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      m_retries_.inc();
    }
    try {
      write_record(opt_.dir, job.kind, job.key, payload, opt_.write_delay_s);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++written_;
      }
      m_written_.inc();
      return;
    } catch (const std::exception&) {
      // fall through to retry
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++failures_;
  }
  m_failures_.inc();
}

void Persister::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Job job = std::move(queue_.front());
    queue_.pop_front();
    in_flight_ = true;
    lock.unlock();
    write_one(job);
    lock.lock();
    in_flight_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace pipette::persist
