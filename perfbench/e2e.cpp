// End-to-end configure benchmark: serves a seeded workload through
// engine::ConfigService, checks the recommendations, and prints every metric
// by name; the last stdout line is one JSON object.
//
//   perfbench_e2e --workload warm_mix|large_fabric|cold_restart --seed N
//                 --seconds S --trace 0|1 --state-dir DIR [--digest-tag T]
//
// Workloads:
//   warm_mix      4 clients, closed loop, against one warm service: weak-scaled
//                 zoo models x global batch {128,256,512,1024} on mid-range and
//                 high-end fabrics of 4, 8 and 16 nodes.
//   large_fabric  1 client, sequential warm requests on mid-range and
//                 high-end fabrics of 64 and 128 nodes (global batch 256).
//   cold_restart  per 8-node fabric, mid-range and high-end in turn: a fresh
//                 service with a snapshot directory serves one request cold
//                 and flushes; a second fresh service over the directory
//                 serves the same request, then the fabric's other batches.
//
// The timed window serves whole rounds (every kind once, in seeded order;
// cold_restart: one fabric of each tier), as many as fit --seconds on a
// 4-core x86-64 box and at least two, so every run serves the same mix and
// only the order changes with --seed. Each fabric's link heterogeneity is
// fixed per fabric class. The service only sees the generated Topology and
// TrainingJob values.
//
// Trace 0 prints the end-to-end metrics; trace 1 records spans, runs the
// layer pass and prints the per-layer metrics. DIR holds snapshots, the span
// dump, the cross-run plan digests (keyed by --digest-tag) and the untraced
// p50 the traced run compares against.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/cli.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "model/gpt_zoo.h"

namespace perfbench {

pp::core::PipetteOptions pipette_options() {
  pp::core::PipetteOptions o;
  o.sa.max_iters = kSaIters;
  o.sa.time_limit_s = 1e9;  // the iteration cap is the budget
  o.memory_training.hidden = {200, 200, 200, 200};
  o.memory_training.train.iters = kTrainIters;
  o.memory_training.soft_margin = 0.07;
  return o;
}

Fabric make_fabric(bool high, int nodes, std::uint64_t het_seed) {
  const auto spec = high ? pp::cluster::high_end_cluster(nodes) : pp::cluster::mid_range_cluster(nodes);
  return {std::string(high ? "high-" : "mid-") + std::to_string(nodes) + "n", high, nodes,
          pp::cluster::Topology(spec, pp::cluster::HeterogeneityOptions{}, het_seed)};
}

namespace {

namespace fs = std::filesystem;
using pp::common::Stopwatch;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;
  std::string digest_tag = "untagged";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Persistence costs: flushes of services that computed artifacts, and
/// restarts (a fresh service over a flushed snapshot directory).
struct Persistence {
  std::vector<double> flush_ms, records_written;
  std::vector<double> load_ms, records_loaded;
  std::vector<double> first_plan_s;  ///< service construction to first plan
};

/// Input generations timed on cold_restart (median reported as setup_s).
constexpr int kSetupRepeats = 21;

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Bench {
 public:
  explicit Bench(Args a) : args_(std::move(a)), spans_(args_.trace, clock_) {}

  int run();

 private:
  // --- inputs ---
  /// Link heterogeneity is fixed per fabric class, not drawn from --seed:
  /// seeded fabrics moved the fidelity metrics between seeds by more than any
  /// bound the benchmark could keep. The seed orders the requests.
  static std::uint64_t fabric_seed(const std::string& what, int nodes) {
    return pp::common::hash_string(pp::common::hash_combine(0x5eed2024ull, static_cast<std::uint64_t>(nodes)), what);
  }
  int add_fabric(bool high, int nodes, std::uint64_t het_seed) {
    fabrics_.push_back(make_fabric(high, nodes, het_seed));
    return static_cast<int>(fabrics_.size()) - 1;
  }
  /// One kind per global batch on fabric `f` with its weak-scaled model.
  std::vector<int> add_kinds(int f, const std::vector<int>& batches) {
    std::vector<int> ids;
    const Fabric& fab = fabrics_[static_cast<std::size_t>(f)];
    for (const int gb : batches) {
      kinds_.push_back({f, {pp::model::weak_scaled_model(fab.topo.num_gpus(), fab.high), gb}});
      ids.push_back(static_cast<int>(kinds_.size()) - 1);
    }
    return ids;
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(i) - 1))]);
    }
  }

  pp::engine::ConfigServiceOptions service_options(const std::string& snapshot_dir) const {
    pp::engine::ConfigServiceOptions so;
    so.threads = kPoolThreads;
    so.pipette = pipette_options();
    so.cache.snapshot_dir = snapshot_dir;
    return so;
  }

  // --- serving ---
  std::future<pp::engine::ServiceResult> submit(pp::engine::ConfigService& svc, int kind) {
    const RequestKind& k = kinds_[static_cast<std::size_t>(kind)];
    return svc.submit_request(fabrics_[static_cast<std::size_t>(k.fabric)].topo, k.job);
  }
  Served& record(int kind, double submit_s, double done_s, pp::engine::ServiceResult sr, bool timed) {
    Served s;
    s.id = static_cast<int>(served_.size());
    s.kind = kind;
    s.submit_s = submit_s;
    s.done_s = done_s;
    s.timed = timed;
    s.status = sr.status;
    s.result = std::move(sr.result);
    served_.push_back(std::move(s));
    return served_.back();
  }
  /// Closed loop: keeps `clients` requests outstanding, drawn in order from
  /// `seq`, until all of it has been served; records each request as its
  /// future resolves and returns the served ids in `seq` order.
  std::vector<int> closed_loop(pp::engine::ConfigService& svc, const std::vector<int>& seq,
                               std::size_t clients, bool timed);
  /// Rounds of timed work sized to --seconds at `nominal_s` per round on a
  /// 4-core x86-64 box: every run of a workload serves the same mix.
  int rounds(double nominal_s) const {
    return std::max(2, static_cast<int>(std::lround(args_.seconds / nominal_s)));
  }
  /// Flushes and drops `svc` (timing the flush when `fresh_artifacts`), then
  /// times a fresh service over `dir` up to its first plan for `kind`; `svc`
  /// is left holding the restarted service. Returns the served request id.
  int restart(std::unique_ptr<pp::engine::ConfigService>& svc, const std::string& dir, int kind,
              bool timed, bool fresh_artifacts);

  // --- workloads ---
  /// A warm workload: one service, set-up fill, closed-loop window, then
  /// `restarts` fresh services over its flushed snapshots.
  void warm(const std::vector<std::pair<bool, int>>& classes, const std::vector<int>& batches,
            std::size_t clients, int restarts, double nominal_round_s);
  void cold_restart();
  /// The restarted service's plan must equal the kind's earlier plan.
  void check_restart(int kind, int restart_id);

  // --- checks and metrics ---
  void check_digests();
  std::vector<Metric> end_to_end(const Quality& q) const;
  LayerMetrics per_layer(const Quality& q) const;
  /// Requests that did not end kOk with a plan.
  int failed_requests() const {
    return static_cast<int>(std::count_if(served_.begin(), served_.end(), [](const Served& s) { return !s.ok(); }));
  }
  int emit(const std::vector<Metric>& metrics);

  Args args_;
  Stopwatch clock_;  ///< workload clock; declared before spans_, which reads it
  Spans spans_;
  pp::common::Rng rng_{0};
  Checks checks_;
  std::vector<Fabric> fabrics_;
  std::vector<RequestKind> kinds_;
  std::vector<Served> served_;
  std::vector<double> cold_s_;  ///< first request of a fresh service per fabric
  Persistence persist_;
  double setup_s_ = 0.0;
  double window_t0_ = 0.0;
  double window_t1_ = 0.0;
  pp::engine::ClusterCacheStats window_stats_;
  std::string snap_root_;
};

std::vector<int> Bench::closed_loop(pp::engine::ConfigService& svc, const std::vector<int>& seq,
                                    std::size_t clients, bool timed) {
  struct Slot {
    std::future<pp::engine::ServiceResult> fut;
    std::size_t pos = 0;  ///< index into seq
    double submit_s = 0.0;
  };
  std::vector<int> ids(seq.size(), -1);
  std::vector<Slot> slots;
  std::size_t next = 0;
  auto send = [&](Slot& s) {
    s.pos = next++;
    s.submit_s = clock_.seconds();
    s.fut = submit(svc, seq[s.pos]);
  };
  while (slots.size() < clients && next < seq.size()) send(slots.emplace_back());
  while (!slots.empty()) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (s.fut.wait_for(std::chrono::microseconds(200)) != std::future_status::ready) continue;
      const double done = clock_.seconds();
      ids[s.pos] = record(seq[s.pos], s.submit_s, done, s.fut.get(), timed).id;
      if (next < seq.size()) {
        send(s);
      } else {
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i--));
      }
    }
  }
  return ids;
}

int Bench::restart(std::unique_ptr<pp::engine::ConfigService>& svc, const std::string& dir,
                   int kind, bool timed, bool fresh_artifacts) {
  {
    const SpanScope sp(spans_, "persist.flush");
    const Stopwatch sw;
    svc->flush_snapshots();
    if (fresh_artifacts) {
      persist_.flush_ms.push_back(sw.seconds() * 1e3);
      persist_.records_written.push_back(static_cast<double>(svc->persisted_records()));
    }
  }
  svc.reset();

  const double t0 = clock_.seconds();
  {
    const SpanScope sp(spans_, "persist.load");
    svc = std::make_unique<pp::engine::ConfigService>(service_options(dir));
  }
  persist_.load_ms.push_back((clock_.seconds() - t0) * 1e3);
  const auto& lr = svc->load_report();
  persist_.records_loaded.push_back(lr.loaded());
  if (!lr.clean() || lr.loaded() == 0) {
    checks_.fail("restart load report for " + dir + " is not clean: " + lr.str());
  }
  const double submit_s = clock_.seconds();
  auto sr = submit(*svc, kind).get();
  const double done = clock_.seconds();
  persist_.first_plan_s.push_back(done - t0);
  return record(kind, submit_s, done, std::move(sr), timed).id;
}

void Bench::warm(const std::vector<std::pair<bool, int>>& classes, const std::vector<int>& batches,
                 std::size_t clients, int restarts, double nominal_round_s) {
  // Fabrics in (nodes, tier) order, so the set-up fill interleaves the two
  // tiers' estimator trainings on the pool whatever the seed.
  std::vector<std::vector<int>> fabric_kinds;
  for (const auto& [high, nodes] : classes) {
    const int f = add_fabric(high, nodes, fabric_seed(high ? "high" : "mid", nodes));
    fabric_kinds.push_back(add_kinds(f, batches));
  }
  // Request order: rounds, each a seeded permutation of every kind.
  std::vector<int> seq;
  for (int round = 0; round < rounds(nominal_round_s); ++round) {
    std::vector<int> perm(kinds_.size());
    std::iota(perm.begin(), perm.end(), 0);
    shuffle(perm);
    seq.insert(seq.end(), perm.begin(), perm.end());
  }
  // Set-up: one request per fabric (its middle batch), all submitted at
  // once; they profile, train and start the shape caches.
  std::vector<int> setup_kinds;
  for (const auto& ks : fabric_kinds) setup_kinds.push_back(ks[ks.size() / 2]);
  const std::string dir = snap_root_ + "/warm";
  auto svc = std::make_unique<pp::engine::ConfigService>(service_options(dir));
  const auto setup_ids = closed_loop(*svc, setup_kinds, setup_kinds.size(), /*timed=*/false);
  for (const int id : setup_ids) cold_s_.push_back(served_[static_cast<std::size_t>(id)].latency());
  setup_s_ = clock_.seconds();

  window_t0_ = clock_.seconds();
  const auto before = svc->cache_stats();
  closed_loop(*svc, seq, clients, /*timed=*/true);
  window_t1_ = clock_.seconds();
  const auto after = svc->cache_stats();
  window_stats_.lookups = after.lookups - before.lookups;
  window_stats_.hits = after.hits - before.hits;
  window_stats_.profiles_run = after.profiles_run - before.profiles_run;
  window_stats_.trainings_run = after.trainings_run - before.trainings_run;

  // Restarts: the first fabric's set-up kind, served by fresh services over
  // the flushed snapshots, must reproduce its plan.
  const int kind = setup_kinds.front();
  for (int i = 0; i < restarts; ++i) {
    const int id = restart(svc, dir, kind, /*timed=*/false, /*fresh_artifacts=*/i == 0);
    check_restart(kind, id);
  }
  svc.reset();
}

void Bench::check_restart(int kind, int restart_id) {
  for (const Served& s : served_) {
    if (s.kind != kind || s.id == restart_id) continue;
    if (recommendation_digest(s.result) != recommendation_digest(served_[static_cast<std::size_t>(restart_id)].result)) {
      checks_.fail("restart plan differs from the plan before the restart on " +
                   fabrics_[static_cast<std::size_t>(kinds_[static_cast<std::size_t>(kind)].fabric)].label);
    }
    return;
  }
}

void Bench::cold_restart() {
  // Set-up is generating the run's inputs: one 8-node fabric per tier, and
  // units in (mid, high) pairs in seeded order. A unit's cold and restart
  // request is its middle batch; the other batches follow in seeded order.
  // Done several times; the median counts.
  const int units = 2 * rounds(/*nominal_s=*/14.0);
  const std::vector<int> batches = {128, 256, 512, 1024};
  std::vector<std::vector<int>> unit_kinds;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = clock_.seconds();
    fabrics_.clear();
    kinds_.clear();
    unit_kinds.clear();
    rng_ = pp::common::Rng(pp::common::hash_string(args_.seed, "request-order"));
    const std::vector<int> tier_kinds[2] = {
        add_kinds(add_fabric(false, 8, fabric_seed("cold-mid", 8)), batches),
        add_kinds(add_fabric(true, 8, fabric_seed("cold-high", 8)), batches)};
    bool high = false;
    for (int unit = 0; unit < units; ++unit) {
      high = unit % 2 == 0 ? rng_.uniform_int(0, 1) == 1 : !high;
      std::vector<int> ks = tier_kinds[high ? 1 : 0];
      std::swap(ks.front(), ks[ks.size() / 2]);
      std::vector<int> rest(ks.begin() + 1, ks.end());
      shuffle(rest);
      std::copy(rest.begin(), rest.end(), ks.begin() + 1);
      unit_kinds.push_back(std::move(ks));
    }
    setups.push_back(clock_.seconds() - t0);
  }
  setup_s_ = median(setups);

  window_t0_ = clock_.seconds();
  for (int unit = 0; unit < units; ++unit) {
    const auto& ks = unit_kinds[static_cast<std::size_t>(unit)];
    const int f = kinds_[static_cast<std::size_t>(ks.front())].fabric;
    const std::string dir = snap_root_ + "/unit" + std::to_string(unit);

    // Cold: a fresh service, which has seen no fabric.
    auto svc = std::make_unique<pp::engine::ConfigService>(service_options(dir));
    const double submit_s = clock_.seconds();
    auto sr = submit(*svc, ks.front()).get();
    const double done = clock_.seconds();
    cold_s_.push_back(done - submit_s);
    record(ks.front(), submit_s, done, std::move(sr), /*timed=*/true);
    const auto cold_stats = svc->cache_stats();

    // Restart over the flushed directory: same request, then the rest.
    check_restart(ks.front(), restart(svc, dir, ks.front(), /*timed=*/true, /*fresh_artifacts=*/true));
    for (std::size_t i = 1; i < ks.size(); ++i) {
      const double s0 = clock_.seconds();
      auto r = submit(*svc, ks[i]).get();
      record(ks[i], s0, clock_.seconds(), std::move(r), /*timed=*/true);
    }
    const auto warm_stats = svc->cache_stats();
    if (warm_stats.profiles_run != 0 || warm_stats.trainings_run != 0) {
      checks_.fail("restarted service on " + fabrics_[static_cast<std::size_t>(f)].label + " re-ran " +
                   std::to_string(warm_stats.profiles_run) + " profiles and " +
                   std::to_string(warm_stats.trainings_run) + " trainings");
    }
    window_stats_.lookups += cold_stats.lookups + warm_stats.lookups;
    window_stats_.hits += cold_stats.hits + warm_stats.hits;
    window_stats_.profiles_run += cold_stats.profiles_run + warm_stats.profiles_run;
    window_stats_.trainings_run += cold_stats.trainings_run + warm_stats.trainings_run;
    svc.reset();
    fs::remove_all(dir);
  }
  window_t1_ = clock_.seconds();
}

void Bench::check_digests() {
  // Within the run: every repeat of a kind reproduces its first plan.
  std::map<int, std::uint64_t> first;
  for (const Served& s : served_) {
    if (!s.ok()) continue;
    const std::uint64_t d = recommendation_digest(s.result);
    const auto [it, fresh] = first.emplace(s.kind, d);
    if (!fresh && it->second != d) {
      const RequestKind& k = kinds_[static_cast<std::size_t>(s.kind)];
      checks_.fail("request " + std::to_string(s.id) + " (" +
                   fabrics_[static_cast<std::size_t>(k.fabric)].label + " " + k.job.model.name + " gb" +
                   std::to_string(k.job.global_batch) + ") differs from the first plan of its kind");
    }
  }
  // Across runs of one build: the record keyed by (fabric, job).
  const std::string path = args_.state_dir + "/digests-" + args_.digest_tag + ".txt";
  std::map<std::uint64_t, std::uint64_t> known;
  {
    std::ifstream in(path);
    std::string key, dig;
    while (in >> key >> dig) known[std::stoull(key, nullptr, 16)] = std::stoull(dig, nullptr, 16);
  }
  std::ofstream app(path, std::ios::app);
  for (const auto& [kind, d] : first) {
    const RequestKind& k = kinds_[static_cast<std::size_t>(kind)];
    const std::uint64_t key = pp::common::hash_combine(
        fabrics_[static_cast<std::size_t>(k.fabric)].topo.fingerprint(), pp::model::job_digest(k.job));
    const auto it = known.find(key);
    if (it == known.end()) {
      known.emplace(key, d);
      char line[64];
      std::snprintf(line, sizeof line, "%016llx %016llx\n", static_cast<unsigned long long>(key),
                    static_cast<unsigned long long>(d));
      app << line;
    } else if (it->second != d) {
      checks_.fail("plan for " + fabrics_[static_cast<std::size_t>(k.fabric)].label + " " +
                   k.job.model.name + " gb" + std::to_string(k.job.global_batch) +
                   " differs from an earlier run of this build");
    }
  }
}

/// Latency of the highest percentile with at least ten requests beyond it
/// (the maximum below eleven samples), and that percentile.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

std::vector<Metric> Bench::end_to_end(const Quality& q) const {
  std::vector<double> lat;
  for (const Served& s : served_) {
    if (!s.timed) continue;
    lat.push_back(s.latency());
  }
  const auto [tail_s, tail_pct] = tail(lat);
  // served_ is never empty: every workload serves at least two rounds.
  const double fail_frac = static_cast<double>(failed_requests()) / static_cast<double>(served_.size());
  std::printf("timed requests: %zu, tail percentile p%.1f, plans judged: %d\n", lat.size(), tail_pct,
              q.plans);
  std::printf("oom_recs: %d (paper: 0)   fail_frac: %.4f\n", q.oom_recs, fail_frac);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", setup_s_, "s"},
      {"req_p50_s", median(lat), "s"},
      {"req_tail_s", tail_s, "s"},
      {"req_per_s", static_cast<double>(lat.size()) / (window_t1_ - window_t0_), "1/s"},
      {"cold_req_s", median(cold_s_), "s"},
      {"restart_req_s", median(persist_.first_plan_s), "s"},
      {"plan_speedup_vs_mlm", geomean(q.speedup_vs_mlm), "x"},
      {"oom_free_frac", q.plans ? 1.0 - static_cast<double>(q.oom_recs) / q.plans : 0.0, "ratio"},
      {"ok_frac", 1.0 - fail_frac, "ratio"},
      {"lat_mape_pct", mape_pct(q.lat_pred, q.lat_actual), "%"},
      {"mem_mape_pct", mape_pct(q.mem_est, q.mem_actual), "%"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

LayerMetrics Bench::per_layer(const Quality& q) const {
  LayerMetrics m;
  double lat = 0, filter = 0, score = 0, sa = 0, sa_cpu = 0, iters = 0, evaluated = 0, rejected = 0;
  double reused = 0, profiled = 0;
  std::vector<double> filter_us, score_us, sa_wall, iters_v, cands;
  for (const Served& s : served_) {
    if (!s.timed || !s.ok()) continue;
    const auto& r = s.result;
    lat += s.latency();
    filter += r.mem_est_wall_s;
    score += r.score_wall_s;
    sa += r.search_wall_s;
    sa_cpu += r.search_cpu_s;
    iters += static_cast<double>(r.sa_iters);
    evaluated += r.candidates_evaluated;
    rejected += r.candidates_rejected_oom;
    reused += r.shapes_reused;
    profiled += r.shapes_profiled;
    filter_us.push_back(r.mem_est_wall_s / std::max(1, r.candidates_evaluated) * 1e6);
    score_us.push_back(r.score_wall_s / std::max(1, r.candidates_evaluated - r.candidates_rejected_oom) * 1e6);
    sa_wall.push_back(r.search_wall_s);
    iters_v.push_back(static_cast<double>(r.sa_iters));
    cands.push_back(r.candidates_evaluated);
  }
  // Request spans: self time is what the phase timers do not cover (queue
  // wait, cache lookups, and any profiling or training the request waited on).
  std::vector<double> wait;
  const auto self = spans_.self_times();
  for (std::size_t i = 0; i < spans_.spans().size(); ++i) {
    const Span& sp = spans_.spans()[i];
    if (sp.name == "request" && served_[static_cast<std::size_t>(sp.request)].timed) wait.push_back(self[i]);
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["engine.wait_s"] = {median(wait), "s"};
  m["engine.wait_share"] = {ratio(lat - filter - score - sa, lat), "ratio"};
  m["engine.cache_hit_ratio"] = {ratio(window_stats_.hits, window_stats_.lookups), "ratio"};
  m["engine.profiles_run"] = {static_cast<double>(window_stats_.profiles_run), "count"};
  m["engine.trainings_run"] = {static_cast<double>(window_stats_.trainings_run), "count"};
  m["estimators.filter_us_per_plan"] = {median(filter_us), "us"};
  m["estimators.filter_share"] = {ratio(filter, lat), "ratio"};
  m["estimators.score_us_per_cand"] = {median(score_us), "us"};
  m["estimators.score_share"] = {ratio(score, lat), "ratio"};
  m["estimators.shape_reuse_ratio"] = {ratio(reused, reused + profiled), "ratio"};
  m["search.sa_wall_s"] = {median(sa_wall), "s"};
  m["search.sa_share"] = {ratio(sa, lat), "ratio"};
  m["search.iters_per_req"] = {median(iters_v), "count"};
  m["search.decided_per_s"] = {ratio(iters, sa_cpu), "1/s"};
  m["search.parallelism"] = {ratio(sa_cpu, sa), "ratio"};
  m["search.dedication_gain"] = {geomean(q.dedication_gain), "x"};
  m["core.candidates"] = {median(cands), "count"};
  m["core.oom_rejected_ratio"] = {ratio(rejected, evaluated), "ratio"};
  m["persist.load_ms"] = {median(persist_.load_ms), "ms"};
  m["persist.records_loaded"] = {median(persist_.records_loaded), "count"};
  m["persist.flush_ms"] = {median(persist_.flush_ms), "ms"};
  m["persist.records_written"] = {median(persist_.records_written), "count"};
  return m;
}

int Bench::emit(const std::vector<Metric>& metrics) {
  const int attempted = static_cast<int>(served_.size());
  const int failed = failed_requests();
  for (const auto& f : checks_.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::ostringstream js;
  js << "{\"correct\": " << (checks_.ok() ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << fmt_g(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return checks_.ok() ? 0 : 1;
}

int Bench::run() {
  rng_ = pp::common::Rng(pp::common::hash_string(args_.seed, "request-order"));
  snap_root_ = args_.state_dir + "/snapshots-" + std::to_string(getpid());
  fs::remove_all(snap_root_);
  fs::create_directories(snap_root_);

  if (args_.workload == "warm_mix") {
    warm({{false, 4}, {true, 4}, {false, 8}, {true, 8}, {false, 16}, {true, 16}},
         {128, 256, 512, 1024}, /*clients=*/4, /*restarts=*/9, /*nominal_round_s=*/7.0);
  } else if (args_.workload == "large_fabric") {
    warm({{false, 64}, {true, 64}, {false, 128}, {true, 128}}, {256}, /*clients=*/1, /*restarts=*/3,
         /*nominal_round_s=*/10.0);
  } else {
    cold_restart();
  }
  fs::remove_all(snap_root_);
  std::printf("workload %s seed %llu: %zu requests, window %.1f s, set-up %.2f s\n",
              args_.workload.c_str(), static_cast<unsigned long long>(args_.seed), served_.size(),
              window_t1_ - window_t0_, setup_s_);

  // Attach each request's phase timers as child spans, laid back to back
  // ending at the result (configure runs filter, score, then SA).
  for (const Served& s : served_) {
    const int id = spans_.add("request", s.submit_s, s.done_s, -1, s.id);
    if (id < 0) break;
    double t = s.done_s;
    const auto& r = s.result;
    for (const auto& [name, dur] : {std::pair<const char*, double>{"phase.sa", r.search_wall_s},
                                    {"phase.score", r.score_wall_s},
                                    {"phase.mem_filter", r.mem_est_wall_s}}) {
      spans_.add(name, t - dur, t, id, s.id);
      t -= dur;
    }
  }

  check_digests();
  RunInputs in{fabrics_, kinds_, std::vector<const Served*>(kinds_.size(), nullptr)};
  for (const Served& s : served_) {
    if (s.ok() && !in.first_ok[static_cast<std::size_t>(s.kind)]) in.first_ok[static_cast<std::size_t>(s.kind)] = &s;
  }
  // Pool-size check on the cheapest kind: the smallest fabric's smallest batch.
  int cheapest = -1;
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    if (!in.first_ok[k]) continue;
    auto cost = [&](std::size_t i) {
      return std::pair(fabrics_[static_cast<std::size_t>(kinds_[i].fabric)].topo.num_gpus(),
                       kinds_[i].job.global_batch);
    };
    if (cheapest < 0 || cost(k) < cost(static_cast<std::size_t>(cheapest))) cheapest = static_cast<int>(k);
  }
  // large_fabric skips it: its cheapest request is 512 GPUs (~5 s serially).
  if (cheapest >= 0 && args_.workload != "large_fabric") serial_check(in, cheapest, checks_);
  const Quality q = quality_pass(in, spans_);
  auto metrics = end_to_end(q);

  const std::string base_name = args_.workload == "cold_restart" ? "cold_req_s" : "req_p50_s";
  const double p50 =
      std::find_if(metrics.begin(), metrics.end(), [&](const Metric& m) { return m.name == base_name; })
          ->value;
  const std::string untraced = args_.state_dir + "/untraced-" + args_.workload + ".txt";
  if (!args_.trace) {
    std::ofstream(untraced, std::ios::app) << args_.seed << " " << fmt_g(p50) << "\n";
    return emit(metrics);
  }

  LayerMetrics layers = per_layer(q);
  layer_pass(in, spans_, checks_, layers);
  // Trace overhead against the untraced run of this seed (else the latest).
  double base = 0.0;
  {
    std::ifstream rec(untraced);
    std::uint64_t seed = 0;
    double v = 0.0;
    bool exact = false;
    while (rec >> seed >> v) {
      if (!exact) base = v;
      if (seed == args_.seed) {
        base = v;
        exact = true;
      }
    }
  }
  layers["obs.trace_overhead_frac"] = {base > 0.0 ? p50 / base - 1.0 : 0.0, "ratio"};

  std::printf("\nself time by span (s):\n");
  for (const auto& [name, t] : spans_.self_by_name()) std::printf("  %-34s %10.4f\n", name.c_str(), t);
  const std::string trace_path =
      args_.state_dir + "/trace-" + args_.workload + "-" + std::to_string(args_.seed) + ".json";
  if (!spans_.write_chrome_json(trace_path)) checks_.fail("could not write " + trace_path);
  std::printf("%zu spans written to %s\n", spans_.spans().size(), trace_path.c_str());
  const double split = layers["estimators.dataset_gen_s"].value + layers["mlp.fit_s"].value +
                       layers["estimators.mape_pass_s"].value;
  std::printf("cold split: dataset %.3f s + fit %.3f s + MAPE pass %.3f s = %.3f s vs train_for_cluster %.3f s\n",
              layers["estimators.dataset_gen_s"].value, layers["mlp.fit_s"].value,
              layers["estimators.mape_pass_s"].value, split, layers["estimators.mem_train_s"].value);
  std::printf("decided/s in configure(): %.0f, SA kernel alone: %.0f\n",
              layers["search.decided_per_s"].value, layers["search.kernel_decided_per_s"].value);
  std::vector<Metric> out;
  for (const auto& [name, lm] : layers) out.push_back({name, lm.value, lm.unit});
  return emit(out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const pipette::common::Cli cli(argc, argv);
  if (const auto bad = cli.first_unknown({"workload", "seed", "seconds", "trace", "state-dir", "digest-tag"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad->c_str());
    return 2;
  }
  perfbench::Args a;
  a.workload = cli.get_string("workload", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.seconds = cli.get_double("seconds", 10.0);
  a.trace = cli.get_int("trace", 0) != 0;
  a.state_dir = cli.get_string("state-dir", ".bench_build/perfbench");
  a.digest_tag = cli.get_string("digest-tag", "untagged");
  if (a.workload != "warm_mix" && a.workload != "large_fabric" && a.workload != "cold_restart") {
    std::fprintf(stderr, "--workload must be warm_mix, large_fabric or cold_restart\n");
    return 2;
  }
  if (!(a.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::filesystem::create_directories(a.state_dir);
  return perfbench::Bench(std::move(a)).run();
}
