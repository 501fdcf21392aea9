// In-memory span recorder for the traced benchmark run. Spans are kept in a
// vector while the workload runs and written out once at the end; self times
// (a span's duration minus the part of it its children cover) are derived
// from the recorded tree. Disabled recorders cost one branch per call.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the workload started
  double end_s = 0.0;
  int parent = -1;       ///< index of the parent span, -1 for roots
  int request = -1;      ///< request id, -1 for layer-pass spans
};

class Spans {
 public:
  Spans(bool enabled, const pipette::common::Stopwatch& clock) : on_(enabled), clock_(clock) {}

  bool enabled() const { return on_; }
  double now() const { return clock_.seconds(); }

  /// Records a span whose interval is already known (requests and their
  /// phase timers are attached after the fact). Returns its index, or -1.
  int add(std::string name, double start_s, double end_s, int parent = -1, int request = -1) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), start_s, end_s, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span at the current time; close it with end().
  int begin(std::string name, int parent = -1) {
    const double t = now();
    return add(std::move(name), t, t, parent);
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the union of its children.
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start_s, s.end_s});
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, lo = 0.0, hi = -1.0;
      for (const auto& [a, b] : iv) {
        const double ca = std::max(a, spans_[i].start_s), cb = std::min(b, spans_[i].end_s);
        if (cb <= ca) continue;
        if (ca > hi) {
          if (hi > lo) covered += hi - lo;
          lo = ca;
          hi = cb;
        } else {
          hi = std::max(hi, cb);
        }
      }
      if (hi > lo) covered += hi - lo;
      self[i] = (spans_[i].end_s - spans_[i].start_s) - covered;
    }
    return self;
  }

  /// Total self time per span name.
  std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> out;
    const auto self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  /// Writes every span as a Chrome trace-event array (open in Perfetto).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%d}}%s\n",
                   s.name.c_str(), s.request >= 0 ? s.request + 1 : 0, s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, s.parent, s.request,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  const pipette::common::Stopwatch& clock_;
  std::vector<Span> spans_;
};

/// Scoped layer-pass span.
class SpanScope {
 public:
  SpanScope(Spans& spans, std::string name, int parent = -1)
      : spans_(spans), id_(spans.begin(std::move(name), parent)) {}
  ~SpanScope() { spans_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

}  // namespace perfbench
