#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/profiler.h"
#include "engine/config_service.h"
#include "engine/thread_pool.h"
#include "estimators/compute_profile.h"
#include "estimators/latency_models.h"
#include "mlp/matrix.h"
#include "model/gpt_zoo.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "search/mapping_search.h"

using namespace pipette;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validity scanner — enough grammar to reject anything a broken
// writer could emit (unbalanced structure, unterminated strings, trailing
// garbage). Returns the position after the value, or nullptr on error.

const char* skip_ws(const char* p, const char* e) {
  while (p < e && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  return p;
}

const char* scan_string(const char* p, const char* e) {
  if (p >= e || *p != '"') return nullptr;
  for (++p; p < e; ++p) {
    if (*p == '\\') {
      ++p;
    } else if (*p == '"') {
      return p + 1;
    }
  }
  return nullptr;
}

const char* scan_value(const char* p, const char* e);

const char* scan_container(const char* p, const char* e, char open, char close) {
  p = skip_ws(p + 1, e);
  if (p < e && *p == close) return p + 1;
  for (;;) {
    if (open == '{') {
      p = scan_string(skip_ws(p, e), e);
      if (!p) return nullptr;
      p = skip_ws(p, e);
      if (p >= e || *p != ':') return nullptr;
      ++p;
    }
    p = scan_value(p, e);
    if (!p) return nullptr;
    p = skip_ws(p, e);
    if (p < e && *p == ',') {
      p = skip_ws(p + 1, e);
      continue;
    }
    if (p < e && *p == close) return p + 1;
    return nullptr;
  }
}

const char* scan_value(const char* p, const char* e) {
  p = skip_ws(p, e);
  if (p >= e) return nullptr;
  if (*p == '{') return scan_container(p, e, '{', '}');
  if (*p == '[') return scan_container(p, e, '[', ']');
  if (*p == '"') return scan_string(p, e);
  const char* q = p;  // number / true / false / null
  while (q < e && (std::isalnum(static_cast<unsigned char>(*q)) || *q == '-' || *q == '+' ||
                   *q == '.')) {
    ++q;
  }
  return q > p ? q : nullptr;
}

bool valid_json(const std::string& s) {
  const char* e = s.data() + s.size();
  const char* p = scan_value(s.data(), e);
  return p && skip_ws(p, e) == e;
}

cluster::Topology small_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, seed);
}

/// Mirrors engine_test's fast_options: iteration-capped budgets so the
/// bit-identity guarantees hold at any thread count.
engine::ConfigServiceOptions service_options(int threads) {
  engine::ConfigServiceOptions so;
  so.threads = threads;
  so.pipette.sa.max_iters = 1200;
  so.pipette.memory_training.hidden = {48, 48};
  so.pipette.memory_training.train.iters = 2500;
  so.pipette.memory_training.max_profile_nodes = 2;
  so.pipette.memory_training.profile_global_batches = {128};
  so.pipette.memory_training.soft_margin = 0.2;
  return so;
}

void expect_identical(const core::ConfiguratorResult& a, const core::ConfiguratorResult& b) {
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.predicted_s, b.predicted_s);
  EXPECT_EQ(a.mapping.has_value(), b.mapping.has_value());
  if (a.mapping && b.mapping) {
    EXPECT_EQ(*a.mapping, *b.mapping);
  }
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].cand, b.ranking[i].cand) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.ranking[i].predicted_s, b.ranking[i].predicted_s) << "rank " << i;
  }
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  EXPECT_EQ(a.candidates_rejected_oom, b.candidates_rejected_oom);
  EXPECT_EQ(a.sa_iters, b.sa_iters);
  EXPECT_EQ(a.sa_rungs, b.sa_rungs);
}

/// Chrome trace invariants: per thread, B/E events nest like a well-formed
/// bracket sequence with matching names, and timestamps never go backwards.
void expect_trace_well_formed(const std::vector<obs::TraceSink::Event>& events) {
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (const auto& ev : events) {
    const auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ev.ts_us, it->second) << "ts went backwards on tid " << ev.tid;
    }
    last_ts[ev.tid] = ev.ts_us;
    if (!ev.args.empty()) {
      EXPECT_TRUE(valid_json(ev.args)) << ev.name << " args: " << ev.args;
    }
    switch (ev.ph) {
      case 'B':
        stacks[ev.tid].push_back(ev.name);
        break;
      case 'E': {
        auto& stack = stacks[ev.tid];
        ASSERT_FALSE(stack.empty()) << "E without B: " << ev.name << " tid " << ev.tid;
        EXPECT_EQ(stack.back(), ev.name) << "mis-nested span on tid " << ev.tid;
        stack.pop_back();
        break;
      }
      case 'i':
      case 'C':
        break;
      default:
        FAIL() << "unknown phase '" << ev.ph << "'";
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span " << (stack.empty() ? "" : stack.back())
                               << " on tid " << tid;
  }
}

bool has_event(const std::vector<obs::TraceSink::Event>& events, char ph, std::string_view name) {
  return std::any_of(events.begin(), events.end(), [&](const obs::TraceSink::Event& ev) {
    return ev.ph == ph && ev.name == name;
  });
}

}  // namespace

TEST(JsonWriter, EscapesAndStructures) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("text");
  w.value(std::string_view("a\"b\\c\n\t"));
  w.key("nan");
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.key("n");
  w.value(42L);
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(false);
  w.end_array();
  w.end_object();
  const std::string s = w.str();
  EXPECT_TRUE(valid_json(s)) << s;
  EXPECT_NE(s.find("\"a\\\"b\\\\c\\n\\t\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"nan\":null"), std::string::npos) << "non-finite must be null, " << s;
}

TEST(Registry, CountersMergeAcrossAndOutliveThreads) {
  obs::Registry reg;
  const auto c = reg.counter("test.ops");
  c.add(5);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&reg] {
        const auto mine = reg.counter("test.ops");
        const auto depth = reg.gauge("test.depth");
        const auto lat = reg.histogram("test.lat", {1.0, 2.0});
        for (int i = 0; i < 1000; ++i) {
          mine.inc();
          depth.add(2);
          lat.observe(static_cast<double>(i % 3));  // 0, 1, 2: buckets le=1, le=1, le=2
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  // The writer threads are dead; everything they wrote must still be counted.
  EXPECT_EQ(reg.snapshot().counter("test.ops"), 4005);
  EXPECT_EQ(reg.snapshot().counter("test.ops"), 4005) << "reading must not double-count";
  EXPECT_EQ(reg.snapshot().counter("test.missing"), 0);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("test.depth"), 8000);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms.front();
  EXPECT_EQ(h.count, 4000);
  // Per thread, i % 3 is 0 on 334 values of i, and 1 and 2 on 333 each.
  EXPECT_EQ(h.buckets, (std::vector<long>{4 * (334 + 333), 4 * 333, 0}));
  EXPECT_EQ(h.sum, 4.0 * (333 + 2 * 333)) << "sums of small integers are exact";
}

TEST(Registry, GaugesHistogramsAndReset) {
  obs::Registry reg;
  const auto g = reg.gauge("test.depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(reg.snapshot().gauge("test.depth"), 4);

  const auto h = reg.histogram("test.latency", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 3.0, 100.0}) h.observe(v);
  // Same name returns the same histogram, bounds fixed by first registration.
  reg.histogram("test.latency", {9.0}).observe(2.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hs = snap.histograms.front();
  EXPECT_EQ(hs.name, "test.latency");
  ASSERT_EQ(hs.buckets.size(), 4u) << "3 bounds + overflow";
  EXPECT_EQ(hs.buckets[0], 1);  // 0.5 <= 1
  EXPECT_EQ(hs.buckets[1], 2);  // 1.5, 2.0 <= 2
  EXPECT_EQ(hs.buckets[2], 1);  // 3.0 <= 4
  EXPECT_EQ(hs.buckets[3], 1);  // 100 overflow
  EXPECT_EQ(hs.count, 5);
  EXPECT_DOUBLE_EQ(hs.sum, 107.0);

  // Inert default-constructed handles are safe no-ops.
  obs::Counter().inc();
  obs::Gauge().set(9);
  obs::Histogram().observe(1.0);

  reg.reset();
  const auto zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.gauge("test.depth"), 0);
  ASSERT_EQ(zeroed.histograms.size(), 1u);
  EXPECT_EQ(zeroed.histograms.front().count, 0);
  EXPECT_DOUBLE_EQ(zeroed.histograms.front().sum, 0.0);
}

TEST(Registry, PrometheusTextIsSanitizedAndComplete) {
  obs::Registry reg;
  reg.counter("pipette.sa.iters").add(12);
  reg.gauge("engine.pool.threads").set(4);
  reg.histogram("pipette.configure.wall_s", {0.1, 1.0}).observe(0.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE pipette_sa_iters counter\npipette_sa_iters 12\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE engine_pool_threads gauge\nengine_pool_threads 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pipette_configure_wall_s histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("pipette_configure_wall_s_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("pipette_configure_wall_s_bucket{le=\"+Inf\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pipette_configure_wall_s_count 1\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("pipette.sa.iters"), std::string::npos) << "dotted names must be sanitized";
}

TEST(TraceSink, EventsAreWellFormedChromeTraceJson) {
  obs::TraceSink sink;
  {
    obs::Span outer(&sink, "outer", "{\"k\":1}");
    sink.instant("tick", "{\"hit\":true}");
    { obs::Span inner(&sink, "inner"); }
    sink.counter("temp", 1.5);
  }
  std::thread other([&sink] {
    obs::Span s(&sink, "other-thread");
    sink.instant("from-other");
  });
  other.join();

  const auto events = sink.events();
  EXPECT_EQ(events.size(), 9u);
  expect_trace_well_formed(events);
  EXPECT_TRUE(has_event(events, 'B', "outer"));
  EXPECT_TRUE(has_event(events, 'E', "inner"));
  EXPECT_TRUE(has_event(events, 'i', "tick"));
  EXPECT_TRUE(has_event(events, 'C', "temp"));
  // The two threads must carry distinct tids.
  const auto tid_of = [&](std::string_view name) {
    for (const auto& ev : events) {
      if (ev.name == name) return ev.tid;
    }
    return -1;
  };
  EXPECT_NE(tid_of("outer"), tid_of("other-thread"));

  const std::string json = sink.json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Null-sink emitters are free no-ops.
  obs::Span null_span(nullptr, "ignored");
  EXPECT_EQ(sink.size(), 9u);
}

TEST(MappingSearch, TelemetryReconcilesAndDoesNotPerturbSa) {
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 6);
  const model::TrainingJob job{model::gpt_774m(), 64};
  const parallel::TrainPlan plan{{2, 2, 4}, 2};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  search::SaOptions opt;
  opt.max_iters = 3000;
  opt.time_limit_s = 1e9;

  auto m_off = parallel::Mapping::megatron_default(plan.pc);
  const auto r_off = search::optimize_mapping(m_off, model, topo.gpus_per_node(), opt);

  search::AnnealTelemetry telem;
  auto m_on = parallel::Mapping::megatron_default(plan.pc);
  const auto r_on = search::optimize_mapping(m_on, model, topo.gpus_per_node(), opt, {}, &telem);

  EXPECT_EQ(m_off, m_on) << "telemetry must not perturb the trajectory";
  EXPECT_DOUBLE_EQ(r_off.best_cost, r_on.best_cost);
  EXPECT_EQ(telem.total_proposed(), r_on.iters);
  EXPECT_EQ(telem.total_accepted(), r_on.accepted);
  EXPECT_GT(telem.dirty.groups, 0) << "proposals must report their dirty sets";
}

TEST(ConfigService, TelemetryIsBitIdenticalAcrossThreadCountsAndExplains) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};

  // Baseline: no trace sink, no external registry.
  engine::ConfigService bare(service_options(1));
  const auto r_bare = bare.submit_request(topo, job).get().result;
  ASSERT_TRUE(r_bare.found);
  EXPECT_GT(r_bare.sa_rungs, 1) << "the halving race must actually run rungs";

  for (const int threads : {1, 4, 16}) {
    obs::TraceSink sink;
    auto so = service_options(threads);
    so.trace = &sink;
    engine::ConfigService traced(so);
    const auto r = traced.submit_request(topo, job).get().result;
    expect_identical(r_bare, r);

    // The whole request renders as a well-formed single timeline.
    const auto events = sink.events();
    expect_trace_well_formed(events);
    EXPECT_TRUE(has_event(events, 'B', "request"));
    EXPECT_TRUE(has_event(events, 'B', "phase.mem_filter"));
    EXPECT_TRUE(has_event(events, 'B', "phase.score"));
    EXPECT_TRUE(has_event(events, 'B', "phase.sa"));
    EXPECT_TRUE(has_event(events, 'B', "sa.rung"));
    EXPECT_TRUE(has_event(events, 'B', "sa.chain"));
    EXPECT_TRUE(has_event(events, 'i', "cluster_cache"));
    EXPECT_TRUE(has_event(events, 'C', "sa.alive"));
    EXPECT_TRUE(valid_json(sink.json()));

    // Registry totals reconcile with the result's own accounting.
    const auto snap = traced.metrics().snapshot();
    EXPECT_EQ(snap.counter("pipette.requests"), 1);
    EXPECT_EQ(snap.counter("pipette.sa.iters"), r.sa_iters);
    EXPECT_EQ(snap.counter("pipette.candidates.evaluated"), r.candidates_evaluated);
    EXPECT_EQ(snap.counter("pipette.shapes.profiled"), r.shapes_profiled);
    EXPECT_EQ(snap.counter("pipette.shapes.reused"), r.shapes_reused);
    long proposals = 0, accepts = 0;
    for (const auto& c : snap.counters) {
      if (c.name.rfind("pipette.sa.proposals.", 0) == 0) proposals += c.value;
      if (c.name.rfind("pipette.sa.accepts.", 0) == 0) accepts += c.value;
    }
    EXPECT_EQ(proposals, r.sa_iters) << "per-kind proposals must sum to the SA iterations";
    EXPECT_LE(accepts, proposals);
    EXPECT_GT(snap.counter("pipette.sa.dirty.groups"), 0);
    EXPECT_EQ(snap.gauge("engine.pool.threads"), threads);
    EXPECT_GE(snap.counter("engine.pool.tasks"), 1) << "submit_request() itself runs on the pool";

    if (threads == 1) {
      // The structured report: valid JSON carrying the run's accounting.
      const std::string report = r.explain();
      EXPECT_TRUE(valid_json(report)) << report;
      for (const char* key :
           {"\"winner\"", "\"runner_ups\"", "\"phases\"", "\"candidates\"", "\"cache\"",
            "\"search\"", "\"provenance\"", "\"topo_fingerprint\":\"0x"}) {
        EXPECT_NE(report.find(key), std::string::npos) << "missing " << key << " in " << report;
      }
      EXPECT_NE(report.find("\"sa_iters_spent\":" + std::to_string(r.sa_iters)),
                std::string::npos)
          << report;
      EXPECT_GE(r.sa_iters_granted, r.sa_iters) << "granted budget can never be exceeded";
      EXPECT_FALSE(r.profile_cache_hit) << "first request on a fresh service";
      EXPECT_FALSE(r.memory_cache_hit);

      // A second request hits every cluster-cache artifact, and the engine's
      // provenance flags say so.
      const auto r2 = traced.submit_request(topo, {model::gpt_774m(), 256}).get().result;
      ASSERT_TRUE(r2.found);
      EXPECT_TRUE(r2.profile_cache_hit);
      EXPECT_TRUE(r2.memory_cache_hit);
      const auto snap2 = traced.metrics().snapshot();
      EXPECT_EQ(snap2.counter("pipette.requests"), 2);
      EXPECT_EQ(snap2.counter("engine.cluster_cache.lookups"), 2);
      EXPECT_EQ(snap2.counter("engine.cluster_cache.hits"), 1);
      EXPECT_EQ(snap2.counter("engine.cluster_cache.profiles_run"), 1);
      EXPECT_EQ(snap2.counter("engine.cluster_cache.trainings_run"), 1);

      // Prometheus exposition of the same registry.
      const std::string text = traced.metrics_text();
      EXPECT_NE(text.find("# TYPE pipette_requests counter\npipette_requests 2\n"),
                std::string::npos)
          << text;
      EXPECT_NE(text.find("pipette_configure_wall_s_count 2\n"), std::string::npos) << text;
      expect_trace_well_formed(sink.events());
    }
  }
}

TEST(ConfigService, PhaseAndQueueWaitHistogramsCountEveryServedRequest) {
  // Every served request observes its queue wait and one sample per phase it
  // ran. On the service path the cluster cache profiles and trains, so the
  // configurator's profile and mem_train phases never run: their histograms
  // exist with count 0.
  const auto topo = small_cluster();
  engine::ConfigService service(service_options(2));
  const std::vector<int> batches = {128, 256, 128};
  for (const int batch : batches) {
    const auto sr = service.submit_request(topo, {model::gpt_774m(), batch}).get();
    ASSERT_TRUE(sr.ok()) << sr.error;
  }
  const auto snap = service.metrics().snapshot();
  auto count = [&](const std::string& name) -> long {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.count;
    }
    return -1;
  };
  const long n = static_cast<long>(batches.size());
  EXPECT_EQ(count("pipette.service.queue_wait_s"), n);
  for (const char* phase : {"mem_filter", "score", "sa"}) {
    EXPECT_EQ(count(std::string("pipette.phase.") + phase + ".seconds"), n) << phase;
  }
  for (const char* phase : {"profile", "mem_train"}) {
    EXPECT_EQ(count(std::string("pipette.phase.") + phase + ".seconds"), 0) << phase;
  }
}

TEST(ConfigService, GaugesTheMlpKernelLaneWidthAtConstruction) {
  // Set before any request: the width every estimator this service trains
  // runs at (4 where the CPU has AVX2, else 2 on x86-64).
  engine::ConfigService service(service_options(1));
  EXPECT_EQ(service.metrics().snapshot().gauge("pipette.mlp.simd_lanes"), mlp::kernels().lanes);
}

TEST(ConfigService, CountsBoundedStopsBesideProposals) {
  // An 8-node request anneals shapes whose rejected proposals mostly stop on
  // their Metropolis bound: the per-kind stop counters must be flushed next
  // to the proposal counters, and reconcile with them.
  const cluster::Topology topo(cluster::mid_range_cluster(8), cluster::HeterogeneityOptions{},
                               2024);
  engine::ConfigService service(service_options(2));
  const auto sr = service.submit_request(topo, {model::gpt_3_1b(), 512}).get();
  ASSERT_TRUE(sr.ok()) << sr.error;
  const auto snap = service.metrics().snapshot();
  long stops = 0;
  for (int k = 0; k < search::AnnealTelemetry::kKinds; ++k) {
    const std::string kind = search::AnnealTelemetry::kind_name(k);
    const long bounded = snap.counter("pipette.sa.bounded_stops." + kind);
    EXPECT_LE(bounded + snap.counter("pipette.sa.accepts." + kind),
              snap.counter("pipette.sa.proposals." + kind))
        << kind << ": a stopped proposal is never accepted";
    stops += bounded;
  }
  EXPECT_GT(stops, 0) << "no proposal stopped on its bound";
  EXPECT_LE(stops, snap.counter("pipette.sa.rollbacks")) << "every stop is rolled back";
}

TEST(ThreadPool, ReportsTaskAndIndexAccounting) {
  obs::Registry reg;
  {
    engine::ThreadPool pool(2, &reg);
    pool.submit([] { return 1; }).get();
    pool.parallel_for(100, [](int) {});
    // n == 1 enqueues no helpers, so the lone index is the caller's.
    pool.parallel_for(1, [](int) {});
  }  // joins the workers
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("engine.pool.threads"), 2);
  EXPECT_GE(snap.counter("engine.pool.tasks"), 1);
  EXPECT_EQ(snap.counter("engine.pool.parallel_for.calls"), 2);
  EXPECT_EQ(snap.counter("engine.pool.parallel_for.caller_indices") +
                snap.counter("engine.pool.parallel_for.worker_indices"),
            101)
      << "every index is attributed to exactly one drainer";
  EXPECT_GE(snap.counter("engine.pool.parallel_for.caller_indices"), 1)
      << "the caller always participates";
}
