#include "obs/registry.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace pipette::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:] (no leading digit); the
/// registry's dotted names map '.' and friends to '_'.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

/// The entry named `name`, created from `args` on first use. Caller holds
/// the registry mutex.
template <typename Map, typename... Args>
typename Map::mapped_type& get_or_add(Map& map, std::string_view name, Args&&... args) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name), std::forward<Args>(args)...).first;
  return it->second;
}

}  // namespace

namespace detail {

HistCells::HistCells(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), buckets(bounds.size() + 1) {
  std::sort(bounds.begin(), bounds.end());
}

}  // namespace detail

void Histogram::observe(double v) const {
  if (!cells_) return;
  const auto& bounds = cells_->bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);  // le semantics
  cells_->buckets[static_cast<std::size_t>(it - bounds.begin())].fetch_add(
      1, std::memory_order_relaxed);
  cells_->sum.fetch_add(v, std::memory_order_relaxed);
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  return Counter(&get_or_add(counters_, name, 0L));
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  return Gauge(&get_or_add(gauges_, name, 0L));
}

Histogram Registry::histogram(std::string_view name, const std::vector<double>& upper_bounds) {
  std::lock_guard lk(mu_);
  return Histogram(&get_or_add(histograms_, name, upper_bounds));
}

const std::vector<double>& Registry::latency_bounds_s() {
  static const std::vector<double> bounds = {0.001, 0.003, 0.01, 0.03, 0.1, 0.3,
                                             1.0,   3.0,   10.0, 30.0, 100.0};
  return bounds;
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard lk(mu_);
  // The maps iterate in name order, which is the order the sections report.
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back({name, cell.load(std::memory_order_relaxed)});
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back({name, cell.load(std::memory_order_relaxed)});
  }
  for (const auto& [name, cells] : histograms_) {
    HistogramSample h;
    h.name = name;
    h.bounds = cells.bounds;
    for (const auto& bucket : cells.buckets) {
      h.buckets.push_back(bucket.load(std::memory_order_relaxed));
      h.count += h.buckets.back();
    }
    h.sum = cells.sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

long Registry::Snapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

long Registry::Snapshot::gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

std::string Registry::prometheus_text() const {
  const Snapshot snap = snapshot();
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string n = sanitize(c.name);
    out += "# TYPE " + n + " counter\n" + n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string n = sanitize(g.name);
    out += "# TYPE " + n + " gauge\n" + n + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string n = sanitize(h.name);
    out += "# TYPE " + n + " histogram\n";
    long cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.buckets[b];
      std::string le;
      json_append_double(le, h.bounds[b]);
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    std::string sum;
    json_append_double(sum, h.sum);
    out += n + "_sum " + sum + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  for (auto& [name, cell] : counters_) cell.store(0, std::memory_order_relaxed);
  for (auto& [name, cell] : gauges_) cell.store(0, std::memory_order_relaxed);
  for (auto& [name, cells] : histograms_) {
    for (auto& bucket : cells.buckets) bucket.store(0, std::memory_order_relaxed);
    cells.sum.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace pipette::obs
