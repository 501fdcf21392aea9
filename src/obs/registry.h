// Counter/timer registry — the metrics half of the observability layer.
// Named monotonic counters, gauges, and fixed-bucket histograms, designed so
// the hot paths of the configuration engine can be instrumented without
// perturbing them:
//
//   * every counter, gauge and histogram bucket is one atomic cell, written
//     with a relaxed fetch_add (or store); no mutex is ever taken on the
//     write path. The engine writes a few thousand times a second at most
//     (SA's per-proposal counts stay in its chain-local AnnealTelemetry), so
//     threads sharing a cell cost nothing measurable;
//   * handles point straight at their cells and default to null, so an
//     uninstrumented call site compiles to one predictable branch. Cells
//     never move, so a handle stays valid for its registry's lifetime, and
//     must not outlive it;
//   * nothing here feeds back into any cost, seed, or rng stream, so
//     attaching a registry cannot change a recommendation (tests lock the
//     bit-identity in at 1/4/16 threads).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pipette::obs {

namespace detail {

/// One histogram's cells: a count per bucket and the running sum.
struct HistCells {
  explicit HistCells(std::vector<double> upper_bounds);
  std::vector<double> bounds;               ///< ascending `le` upper bounds
  std::vector<std::atomic<long>> buckets;   ///< bounds.size()+1, last = overflow
  std::atomic<double> sum{0.0};
};

}  // namespace detail

/// Monotonic named counter. Default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void add(long n = 1) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  void inc() const { add(1); }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::atomic<long>* cell) : cell_(cell) {}
  std::atomic<long>* cell_ = nullptr;
};

/// Up/down gauge (queue depths, pool sizes): a current level. Default-
/// constructed handles are inert.
class Gauge {
 public:
  Gauge() = default;
  void set(long v) const {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(long n) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<long>* cell) : cell_(cell) {}
  std::atomic<long>* cell_ = nullptr;
};

/// Fixed-bucket histogram (phase latencies). observe() is one bucket
/// increment plus an atomic add into the sum. Default-constructed handles
/// are inert.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistCells* cells) : cells_(cells) {}
  detail::HistCells* cells_ = nullptr;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name. Handles stay valid for the registry's lifetime;
  /// re-registering an existing name returns the same metric (a histogram's
  /// bounds are fixed by its first registration).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, const std::vector<double>& upper_bounds);

  /// Default latency buckets (seconds): 1 ms .. ~100 s, exponential.
  static const std::vector<double>& latency_bounds_s();

  struct CounterSample {
    std::string name;
    long value = 0;
  };
  struct GaugeSample {
    std::string name;
    long value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> bounds;
    std::vector<long> buckets;  ///< bounds.size()+1 entries, last = overflow
    long count = 0;
    double sum = 0.0;
  };
  /// Point-in-time view, each section sorted by name.
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
    /// Lookup helpers for tests and report code; 0 when absent.
    long counter(std::string_view name) const;
    long gauge(std::string_view name) const;
  };
  Snapshot snapshot() const;

  /// Prometheus text exposition (names sanitized to [a-zA-Z0-9_:]).
  std::string prometheus_text() const;

  /// Zeroes every metric (tests). Racing writers are not corrupted, merely
  /// partially reset.
  void reset();

 private:
  /// Guards the maps' structure (registration, snapshot, reset); the cells
  /// themselves are written without it. Map nodes never move, so neither do
  /// the cells handles point at.
  mutable std::mutex mu_;
  std::map<std::string, std::atomic<long>, std::less<>> counters_;
  std::map<std::string, std::atomic<long>, std::less<>> gauges_;
  std::map<std::string, detail::HistCells, std::less<>> histograms_;
};

}  // namespace pipette::obs
