#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cluster_cache.h"
#include "engine/config_service.h"
#include "engine/thread_pool.h"
#include "model/gpt_zoo.h"

using namespace pipette;

namespace {

cluster::Topology small_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, seed);
}

/// Fast budgets with an iteration-capped SA pass: the determinism guarantees
/// hold for any thread count only when SA stops on iterations, not wall time.
core::PipetteOptions fast_options() {
  core::PipetteOptions opt;
  opt.sa.max_iters = 1200;
  opt.memory_training.hidden = {48, 48};
  opt.memory_training.train.iters = 2500;
  opt.memory_training.max_profile_nodes = 2;
  opt.memory_training.profile_global_batches = {128};
  opt.memory_training.soft_margin = 0.2;
  return opt;
}

engine::ConfigServiceOptions service_options(int threads) {
  engine::ConfigServiceOptions so;
  so.threads = threads;
  so.pipette = fast_options();
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
}

}  // namespace

TEST(ThreadPool, SubmitDeliversResultsAndExceptions) {
  engine::ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_THROW(f2.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedThrowingTasks) {
  // Queue a pile of tasks that all throw behind a parked worker, then destroy
  // the pool: every queued task must still run (delivering its exception into
  // its future) and the destructor must join cleanly — no hang, no drop.
  std::vector<std::future<int>> futs;
  {
    engine::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker = pool.submit([f = gate.get_future().share()] {
      f.wait();
      return 0;
    });
    for (int i = 0; i < 16; ++i) {
      futs.push_back(pool.submit([]() -> int { throw std::runtime_error("queued task failure"); }));
    }
    gate.set_value();
    EXPECT_EQ(blocker.get(), 0);
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_THROW(f.get(), std::runtime_error);
  }
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  engine::ThreadPool pool(4);
  constexpr int n = 500;
  std::vector<std::atomic<int>> counts(n);
  pool.parallel_for(n, [&](int i) { counts[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << i;
  pool.parallel_for(0, [&](int) { FAIL() << "n == 0 must run nothing"; });
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Saturate a tiny pool with tasks that each fan out on the same pool; the
  // caller-participation rule must keep everything progressing.
  engine::ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futs;
  for (int t = 0; t < 6; ++t) {
    futs.push_back(pool.submit([&pool, &total] {
      pool.parallel_for(40, [&](int) { total.fetch_add(1); });
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(total.load(), 6 * 40);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  engine::ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](int i) {
                                   ran.fetch_add(1);
                                   if (i == 13) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64) << "all indices still run; the error surfaces after the barrier";
}

TEST(SerialExecutor, MatchesPoolExceptionSemantics) {
  common::SerialExecutor exec;
  int ran = 0;
  EXPECT_THROW(exec.parallel_for(8,
                                 [&](int i) {
                                   ++ran;
                                   if (i == 2) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran, 8) << "serial and pooled executors must agree: run all, rethrow after";
}

TEST(ClusterCache, KeysAreStableAndSensitive) {
  const auto topo = small_cluster();
  const cluster::ProfileOptions po;
  const estimators::MlpMemoryOptions mo;
  EXPECT_EQ(engine::ClusterCache::profile_key(topo, po),
            engine::ClusterCache::profile_key(small_cluster(), po));
  EXPECT_EQ(topo.fingerprint(), small_cluster().fingerprint());

  EXPECT_NE(engine::ClusterCache::profile_key(small_cluster(7), po),
            engine::ClusterCache::profile_key(topo, po))
      << "different heterogeneity universe, different attained bandwidths";
  auto other_day = small_cluster();
  other_day.advance_day();
  EXPECT_NE(other_day.fingerprint(), topo.fingerprint()) << "AR(1) day must change the profile key";
  cluster::ProfileOptions po2 = po;
  po2.seed += 1;
  EXPECT_NE(engine::ClusterCache::profile_key(topo, po2), engine::ClusterCache::profile_key(topo, po));

  // The estimator trains from the spec alone: same spec shares the artifact
  // across universes and days; any option change invalidates it.
  EXPECT_EQ(engine::ClusterCache::memory_key(small_cluster(7).spec(), mo),
            engine::ClusterCache::memory_key(topo.spec(), mo));
  estimators::MlpMemoryOptions mo2 = mo;
  mo2.hidden.push_back(32);
  EXPECT_NE(engine::ClusterCache::memory_key(topo.spec(), mo2),
            engine::ClusterCache::memory_key(topo.spec(), mo));
}

TEST(ClusterCache, OnDiskKeysArePinned) {
  // Snapshot directories are keyed by these values: an edit that moves one
  // (say, to a profiling or fault constant) silently turns every snapshot
  // written before it into a cold start. The fault-free key, the key under
  // the default enabled schedule (seed 1 resolves to kDegradedLink, so the
  // fingerprint folds the fault factors), and the estimator key at default
  // options, for one small fabric.
  const auto topo = small_cluster();
  EXPECT_EQ(engine::ClusterCache::profile_key(topo, cluster::ProfileOptions{}),
            0xda5cf19f170315a5ull);
  engine::FaultOptions fo;
  fo.enabled = true;
  engine::FaultInjector faults(fo);
  ASSERT_EQ(faults.kind(), engine::FaultKind::kDegradedLink);
  cluster::ProfileOptions po;
  po.faults = &faults;
  EXPECT_EQ(engine::ClusterCache::profile_key(topo, po), 0x92c061b89302aa3bull);
  EXPECT_EQ(engine::ClusterCache::memory_key(topo.spec(), estimators::MlpMemoryOptions{}),
            0x1b8085dfe3ee2342ull);
}

TEST(ClusterCache, DayDriftReprofilesButDoesNotRetrain) {
  engine::ClusterCache cache;
  cluster::ProfileOptions po;
  estimators::MlpMemoryOptions mo;
  mo.hidden = {48, 48};
  mo.train.iters = 1500;
  mo.max_profile_nodes = 2;
  mo.profile_global_batches = {128};

  auto topo = small_cluster();
  const auto day0 = cache.get_or_compute(topo, po, mo);
  topo.advance_day();
  const auto day1 = cache.get_or_compute(topo, po, mo);
  EXPECT_NE(day0.profile, day1.profile) << "yesterday's bandwidth snapshot must not be reused";
  EXPECT_EQ(day0.memory, day1.memory) << "the estimator depends on the spec, not the day";
  const auto stats = cache.stats();
  EXPECT_EQ(stats.profiles_run, 2);
  EXPECT_EQ(stats.trainings_run, 1);
  EXPECT_EQ(stats.hits, 0) << "day 1 missed on the profile half";
}

TEST(ClusterCache, EvictsOldestProfilesPastTheCap) {
  engine::ClusterCacheOptions co;
  co.max_entries = 3;  // one estimator and two profiles
  engine::ClusterCache cache(co);
  cluster::ProfileOptions po;
  estimators::MlpMemoryOptions mo;
  mo.hidden = {48, 48};
  mo.train.iters = 1500;
  mo.max_profile_nodes = 2;
  mo.profile_global_batches = {128};

  auto topo = small_cluster();
  const auto day0 = cache.get_or_compute(topo, po, mo);
  topo.advance_day();
  cache.get_or_compute(topo, po, mo);
  topo.advance_day();
  cache.get_or_compute(topo, po, mo);  // evicts the day-0 snapshot
  EXPECT_EQ(cache.cached_profiles(), 2);
  EXPECT_EQ(cache.stats().profiles_run, 3);
  EXPECT_EQ(cache.stats().trainings_run, 1) << "every lookup uses the estimator: never least recent";
  EXPECT_TRUE(day0.profile) << "in-flight users keep evicted artifacts alive";
}

TEST(ConfigService, RankingIsBitIdenticalAcrossThreadCounts) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  engine::ConfigService serial(service_options(1));
  engine::ConfigService wide(service_options(8));
  const auto r1 = serial.submit_request(topo, job).get().result;
  const auto r8 = wide.submit_request(topo, job).get().result;
  expect_identical(r1, r8);
}

TEST(ConfigService, MatchesStandalonePipetteConfigurator) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  core::PipetteConfigurator standalone(fast_options());
  const auto expect = standalone.configure(topo, job);
  engine::ConfigService service(service_options(4));
  const auto got = service.submit_request(topo, job).get().result;
  expect_identical(expect, got);
}

TEST(ConfigService, SecondSubmitHitsTheClusterCache) {
  const auto topo = small_cluster();
  engine::ConfigService service(service_options(2));
  const auto r1 = service.submit_request(topo, {model::gpt_774m(), 128}).get().result;
  const auto r2 = service.submit_request(topo, {model::gpt_774m(), 256}).get().result;
  ASSERT_TRUE(r1.found);
  ASSERT_TRUE(r2.found);
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.profiles_run, 1) << "bandwidth profiling must run once per cluster";
  EXPECT_EQ(stats.trainings_run, 1) << "MLP training must run once per cluster";
  EXPECT_DOUBLE_EQ(r1.mem_train_wall_s, 0.0) << "training is owned by the cache, not the request";
  EXPECT_DOUBLE_EQ(r2.mem_train_wall_s, 0.0);
  EXPECT_DOUBLE_EQ(r1.profile_wall_s, 0.0) << "profiling is owned by the cache, not the request";
  EXPECT_DOUBLE_EQ(r2.profile_wall_s, 0.0);
}

namespace {

/// Observation count and sum of a registry histogram; count -1 when absent.
std::pair<long, double> histogram_totals(const obs::Registry& reg, std::string_view name) {
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {-1, 0.0};
}

}  // namespace

TEST(ConfigService, CacheTimesEachComputedArtifactOnce) {
  const auto topo = small_cluster();
  engine::ConfigService service(service_options(2));
  const obs::Registry& reg = service.metrics();
  EXPECT_EQ(histogram_totals(reg, "engine.cluster_cache.train_s").first, 0);
  EXPECT_EQ(histogram_totals(reg, "engine.cluster_cache.profile_s").first, 0);

  const auto cold = service.submit_request(topo, {model::gpt_774m(), 128}).get().result;
  ASSERT_TRUE(cold.found);
  const auto [trains, train_s] = histogram_totals(reg, "engine.cluster_cache.train_s");
  const auto [profiles, profile_s] = histogram_totals(reg, "engine.cluster_cache.profile_s");
  EXPECT_EQ(trains, 1) << "the cold request trains the estimator once";
  EXPECT_EQ(profiles, 1) << "the cold request profiles the fabric once";
  EXPECT_GT(train_s, 0.0);
  EXPECT_GT(profile_s, 0.0);
  EXPECT_DOUBLE_EQ(cold.mem_train_wall_s, 0.0) << "the histogram, not the request, owns the time";

  const auto warm = service.submit_request(topo, {model::gpt_774m(), 256}).get().result;
  ASSERT_TRUE(warm.found);
  EXPECT_EQ(histogram_totals(reg, "engine.cluster_cache.train_s").first, 1)
      << "a warm request computes nothing";
  EXPECT_EQ(histogram_totals(reg, "engine.cluster_cache.profile_s").first, 1);
}

TEST(ConfigService, ConcurrentSubmitsTrainOnce) {
  const auto topo = small_cluster();
  engine::ConfigService service(service_options(4));
  constexpr int kClients = 4;
  std::vector<std::future<engine::ServiceResult>> futs(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        futs[static_cast<std::size_t>(c)] = service.submit_request(topo, {model::gpt_774m(), 128});
      });
    }
    for (auto& t : clients) t.join();
  }
  std::vector<core::ConfiguratorResult> results;
  for (auto& f : futs) results.push_back(f.get().result);
  for (const auto& r : results) {
    ASSERT_TRUE(r.found);
    expect_identical(results.front(), r);
  }
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.lookups, kClients);
  EXPECT_EQ(stats.trainings_run, 1);
  EXPECT_EQ(stats.profiles_run, 1);
  // Admissions and completions race across threads; the gauge must still
  // settle where the count does.
  EXPECT_EQ(service.pending(), 0);
  EXPECT_EQ(service.metrics().snapshot().gauge("pipette.service.pending"), 0);
}

TEST(ConfigService, SweepPreservesJobOrder) {
  const auto topo = small_cluster();
  engine::ConfigService service(service_options(4));
  const std::vector<model::TrainingJob> jobs = {
      {model::gpt_774m(), 128}, {model::gpt_774m(), 256}, {model::gpt_774m(), 512}};
  const auto results = service.sweep(topo, jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "job " << i << ": " << results[i].error;
    ASSERT_TRUE(results[i].result.found) << "job " << i;
    // dp can never exceed the job's global batch; distinguishes the jobs.
    EXPECT_LE(results[i].result.best.pc.dp, jobs[i].global_batch) << "job " << i;
  }
  EXPECT_EQ(service.cache_stats().trainings_run, 1);
}

TEST(ConfigService, ConcurrentRequestsProfileTheirOwnShapes) {
  // Each request profiles the distinct compute shapes of its own candidates
  // and shares nothing with other requests, so however concurrent requests
  // interleave on the pool, every count matches a serial configure().
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  core::PipetteConfigurator serial(fast_options());
  const auto ref = serial.configure(topo, job);
  ASSERT_TRUE(ref.found);
  ASSERT_GT(ref.shapes_profiled, 0);

  constexpr int kClients = 4;
  for (int round = 0; round < 5; ++round) {
    engine::ConfigService service(service_options(4));  // a fresh service each round
    std::vector<std::future<engine::ServiceResult>> futs(kClients);
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          futs[static_cast<std::size_t>(c)] = service.submit_request(topo, job);
        });
      }
      for (auto& t : clients) t.join();
    }
    long profiled = 0;
    for (auto& f : futs) {
      const auto r = f.get().result;
      expect_identical(ref, r);
      EXPECT_EQ(r.shapes_profiled, ref.shapes_profiled) << "round " << round;
      EXPECT_EQ(r.shapes_profiled + r.shapes_reused,
                r.candidates_evaluated - r.candidates_rejected_oom)
          << "every kept candidate is scored with its own shape's profile or a sibling's";
      profiled += r.shapes_profiled;
    }
    EXPECT_EQ(service.metrics().snapshot().counter("pipette.shapes.profiled"), profiled)
        << "round " << round;
  }
}

TEST(ConfigService, HalvingIsBitIdenticalAcrossThreadCounts) {
  // The successive-halving race (fast_options is iteration-capped, so halving
  // is the active SA path) must be a pure function of the request at 1, 4,
  // and 16 threads.
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  const auto so = service_options(1);
  engine::ConfigService serial(so);
  const auto r1 = serial.submit_request(topo, job).get().result;
  EXPECT_GT(r1.sa_rungs, 1) << "the race must actually run rungs";
  for (const int threads : {4, 16}) {
    auto wide_opt = so;
    wide_opt.threads = threads;
    engine::ConfigService wide(wide_opt);
    const auto rn = wide.submit_request(topo, job).get().result;
    expect_identical(r1, rn);
    EXPECT_EQ(r1.sa_iters, rn.sa_iters) << threads;
    EXPECT_EQ(r1.sa_rungs, rn.sa_rungs) << threads;
  }
}

TEST(ConfigService, ResizeAboveTheClampSharesTheEstimator) {
  const cluster::Topology full(cluster::mid_range_cluster(3), cluster::HeterogeneityOptions{},
                               2024);
  const auto old_topo = full.sub_cluster(2);
  const model::TrainingJob job{model::gpt_774m(), 128};
  engine::ConfigService service(service_options(4));
  const auto prev = service.submit_request(old_topo, job).get().result;
  ASSERT_TRUE(prev.found);
  const auto res = service.submit_request(full, job).get().result;
  ASSERT_TRUE(res.found);
  ASSERT_TRUE(res.mapping.has_value());
  EXPECT_EQ(res.mapping->config().ways(), full.num_gpus());
  EXPECT_TRUE(res.mapping->is_valid_permutation());
  EXPECT_EQ(service.cache_stats().trainings_run, 1)
      << "the resize must reuse the clamped-digest estimator, not retrain";

  // What a caller compares to tell an unchanged fabric and job.
  EXPECT_EQ(res.topo_fingerprint, full.fingerprint());
  EXPECT_EQ(res.job_digest, model::job_digest(job));
  EXPECT_EQ(prev.topo_fingerprint, old_topo.fingerprint());
  EXPECT_NE(res.topo_fingerprint, prev.topo_fingerprint);

  // A resize is answered exactly as a fresh service answers the new fabric.
  engine::ConfigService fresh(service_options(4));
  const auto cold = fresh.submit_request(full, job).get().result;
  ASSERT_TRUE(cold.found);
  EXPECT_EQ(res.best, cold.best);
  EXPECT_EQ(res.predicted_s, cold.predicted_s);
  ASSERT_TRUE(cold.mapping.has_value());
  EXPECT_EQ(res.mapping->raw(), cold.mapping->raw());
  EXPECT_EQ(res.sa_iters, cold.sa_iters);
}

TEST(ConfigService, RejectsDegenerateJobsWithATypedStatus) {
  // Each job zeroes or negates one size. Before validation these either got
  // a plan for a degenerate model (hidden_size / num_heads / seq_len 0) or a
  // misleading no_feasible_plan (global_batch <= 0, num_layers 0).
  struct Case {
    const char* field;
    void (*corrupt)(model::TrainingJob&);
  };
  const Case cases[] = {
      {"model.hidden_size", [](model::TrainingJob& j) { j.model.hidden_size = 0; }},
      {"model.num_heads", [](model::TrainingJob& j) { j.model.num_heads = 0; }},
      {"model.seq_len", [](model::TrainingJob& j) { j.model.seq_len = 0; }},
      {"global_batch", [](model::TrainingJob& j) { j.global_batch = 0; }},
      {"global_batch", [](model::TrainingJob& j) { j.global_batch = -5; }},
      {"model.num_layers", [](model::TrainingJob& j) { j.model.num_layers = 0; }},
  };
  const cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{},
                               2024);
  const model::TrainingJob good{model::gpt_774m(), 128};
  ASSERT_EQ(model::validate(good), "");
  engine::ConfigService service(service_options(2));
  core::PipetteConfigurator standalone(fast_options());
  std::vector<model::TrainingJob> jobs;
  for (const Case& c : cases) {
    model::TrainingJob job = good;
    c.corrupt(job);
    jobs.push_back(job);
    const auto sr = service.submit_request(topo, job).get();
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest) << c.field;
    EXPECT_STREQ(engine::to_string(sr.status), "invalid_request");
    EXPECT_EQ(sr.error.rfind(c.field, 0), 0u) << "error must name the field: " << sr.error;
    EXPECT_EQ(sr.error, model::validate(job));
    try {
      standalone.configure(topo, job);
      ADD_FAILURE() << c.field << ": configure() accepted a degenerate job";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), sr.error);
    }
  }
  for (const auto& sr : service.sweep(topo, jobs)) {
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest) << sr.error;
  }
  EXPECT_EQ(service.cache_stats().lookups, 0) << "rejected before any profiling";
  EXPECT_EQ(service.pending(), 0);
}

TEST(ConfigService, RejectsMalformedClusterSpecsBeforeProfiling) {
  // Each case breaks one field of a 2-node mid-range spec. Before
  // validation, gpus_per_node = 0 crashed the service process; a NaN, zero
  // or negative inter-node bandwidth, an infinite intra-node bandwidth and a
  // zero peak FLOP rate returned ok plans (the last with predicted_s NaN);
  // the memory and count cases failed as internal_error after profiling.
  using limits = std::numeric_limits<double>;
  struct Case {
    const char* field;
    void (*corrupt)(cluster::ClusterSpec&);
  };
  const Case cases[] = {
      {"gpus_per_node", [](cluster::ClusterSpec& s) { s.gpus_per_node = 0; }},
      {"inter_node.bandwidth_Bps",
       [](cluster::ClusterSpec& s) { s.inter_node.bandwidth_Bps = limits::quiet_NaN(); }},
      {"inter_node.bandwidth_Bps", [](cluster::ClusterSpec& s) { s.inter_node.bandwidth_Bps = 0; }},
      {"inter_node.bandwidth_Bps",
       [](cluster::ClusterSpec& s) { s.inter_node.bandwidth_Bps = -1e9; }},
      {"intra_node.bandwidth_Bps",
       [](cluster::ClusterSpec& s) { s.intra_node.bandwidth_Bps = limits::infinity(); }},
      {"gpu_peak_flops", [](cluster::ClusterSpec& s) { s.gpu_peak_flops = 0; }},
      {"gpu_memory_bytes", [](cluster::ClusterSpec& s) { s.gpu_memory_bytes = 0; }},
      {"gpu_memory_bytes",
       [](cluster::ClusterSpec& s) { s.gpu_memory_bytes = limits::quiet_NaN(); }},
      {"num_nodes", [](cluster::ClusterSpec& s) { s.num_nodes = 0; }},
      {"gpus_per_node", [](cluster::ClusterSpec& s) { s.gpus_per_node = -8; }},
  };
  ASSERT_EQ(cluster::validate(cluster::mid_range_cluster(2)), "");
  ASSERT_EQ(cluster::validate(cluster::high_end_cluster(16)), "");
  const model::TrainingJob job{model::gpt_774m(), 128};
  engine::ConfigService service(service_options(2));
  for (const Case& c : cases) {
    cluster::ClusterSpec spec = cluster::mid_range_cluster(2);
    c.corrupt(spec);
    const cluster::Topology topo(spec, cluster::HeterogeneityOptions{}, 2024);
    const auto sr = service.submit_request(topo, job).get();
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest)
        << c.field << ": " << engine::to_string(sr.status) << " (" << sr.error << ")";
    EXPECT_EQ(sr.error.rfind(std::string(c.field) + " ", 0), 0u)
        << "error must name the field: " << sr.error;
    EXPECT_EQ(sr.error, cluster::validate(spec));
    for (const auto& swept : service.sweep(topo, {job})) {
      EXPECT_EQ(swept.status, engine::ServiceStatus::kInvalidRequest) << c.field;
    }
  }
  EXPECT_EQ(service.cache_stats().lookups, 0) << "rejected before any profiling";
  EXPECT_EQ(service.pending(), 0);
}

TEST(ConfigService, RejectsDegenerateMemoryTrainingOptionsBeforeProfiling) {
  // Each case breaks one memory-training option of the service. Admitted,
  // such a request would profile the fabric and then fail in the cluster
  // cache's Regressor as an internal_error.
  using limits = std::numeric_limits<double>;
  using Mem = estimators::MlpMemoryOptions;
  struct Case {
    const char* field;
    void (*corrupt)(Mem&);
  };
  const Case cases[] = {
      {"hidden", [](Mem& m) { m.hidden = {0}; }},
      {"hidden", [](Mem& m) { m.hidden = {48, -4}; }},
      {"batch_size", [](Mem& m) { m.train.batch_size = 0; }},
      {"iters", [](Mem& m) { m.train.iters = -1; }},
      {"lr", [](Mem& m) { m.train.lr = 0.0; }},
      {"lr", [](Mem& m) { m.train.lr = limits::quiet_NaN(); }},
      {"lr_decay", [](Mem& m) { m.train.lr_decay = -0.5; }},
      {"lr_decay", [](Mem& m) { m.train.lr_decay = limits::infinity(); }},
  };
  const model::TrainingJob job{model::gpt_774m(), 128};
  for (const Case& c : cases) {
    engine::ConfigServiceOptions so = service_options(1);
    c.corrupt(so.pipette.memory_training);
    engine::ConfigService service(so);
    const auto sr = service.submit_request(small_cluster(), job).get();
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest)
        << c.field << ": " << engine::to_string(sr.status) << " (" << sr.error << ")";
    // The named field, as a whole word: "lr" must not be satisfied by "lr_decay".
    const std::string field = c.field;
    bool named = false;
    for (std::size_t pos = sr.error.find(field); pos != std::string::npos;
         pos = sr.error.find(field, pos + 1)) {
      const std::size_t end = pos + field.size();
      named |= end == sr.error.size() || sr.error[end] == ' ';
    }
    EXPECT_TRUE(named) << c.field << ": " << sr.error;
    EXPECT_EQ(service.cache_stats().lookups, 0) << c.field << ": rejected before any profiling";
    EXPECT_EQ(service.pending(), 0);
  }
}

TEST(ConfigService, RejectsUnusableRequestOptionsBeforeProfiling) {
  // Each case breaks one per-request option. Admitted, a NaN deadline would
  // silently mean "no deadline", and an infinite backoff would sleep forever
  // on the first transient profiling failure.
  using limits = std::numeric_limits<double>;
  using Ro = engine::RequestOptions;
  struct Case {
    const char* field;
    void (*corrupt)(Ro&);
  };
  const Case cases[] = {
      {"deadline_s", [](Ro& r) { r.deadline_s = limits::quiet_NaN(); }},
      {"profile_retries", [](Ro& r) { r.profile_retries = -1; }},
      {"retry_backoff_s", [](Ro& r) { r.retry_backoff_s = -0.5; }},
      {"retry_backoff_s", [](Ro& r) { r.retry_backoff_s = limits::infinity(); }},
      {"retry_backoff_s", [](Ro& r) { r.retry_backoff_s = limits::quiet_NaN(); }},
  };
  const model::TrainingJob job{model::gpt_774m(), 128};
  engine::ConfigService service(service_options(1));
  for (const Case& c : cases) {
    Ro ro;
    c.corrupt(ro);
    const auto sr = service.submit_request(small_cluster(), job, ro).get();
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest)
        << c.field << ": " << engine::to_string(sr.status) << " (" << sr.error << ")";
    EXPECT_EQ(sr.error.rfind(std::string(c.field) + " ", 0), 0u)
        << "error must name the field: " << sr.error;
  }
  EXPECT_EQ(service.cache_stats().lookups, 0) << "rejected before any profiling";
  EXPECT_EQ(service.pending(), 0);
}

TEST(ConfigService, RejectsUnusableSaBudgetsBeforeProfiling) {
  // Each case breaks one SA option of the service. Admitted, such a request
  // would profile the fabric and train the estimator before the configurator
  // refused it (or, before validation, return an ok plan with SA silently
  // skipped).
  using limits = std::numeric_limits<double>;
  using Opt = core::PipetteOptions;
  struct Case {
    const char* field;
    void (*corrupt)(Opt&);
  };
  const Case cases[] = {
      {"sa.max_iters", [](Opt& o) { o.sa.max_iters = -5; }},
      {"sa.max_iters", [](Opt& o) { o.sa.max_iters = std::numeric_limits<long>::max(); }},
      {"sa_halving.rung0_iters", [](Opt& o) { o.sa_halving.rung0_iters = -1; }},
      {"deadline_s", [](Opt& o) { o.deadline_s = limits::quiet_NaN(); }},
      // Profiling and memory-training options that reached ok with a NaN or
      // floored-fabric plan, or failed after admission.
      {"profile.noise_sigma", [](Opt& o) { o.profile.noise_sigma = limits::quiet_NaN(); }},
      {"memory_training.soft_margin", [](Opt& o) { o.memory_training.soft_margin = -2.0; }},
      {"memory_training.soft_margin",
       [](Opt& o) { o.memory_training.soft_margin = limits::quiet_NaN(); }},
      {"memory_training.max_profile_nodes",
       [](Opt& o) { o.memory_training.max_profile_nodes = 0; }},
      {"memory_training.profile_global_batches",
       [](Opt& o) { o.memory_training.profile_global_batches.clear(); }},
      {"memory_training.profile_global_batches",
       [](Opt& o) { o.memory_training.profile_global_batches = {128, 0}; }},
  };
  const model::TrainingJob job{model::gpt_774m(), 128};
  for (const Case& c : cases) {
    engine::ConfigServiceOptions so = service_options(1);
    c.corrupt(so.pipette);
    engine::ConfigService service(so);
    const auto sr = service.submit_request(small_cluster(), job).get();
    EXPECT_EQ(sr.status, engine::ServiceStatus::kInvalidRequest)
        << c.field << ": " << engine::to_string(sr.status) << " (" << sr.error << ")";
    EXPECT_EQ(sr.error.rfind(c.field, 0), 0u) << "error must name the field: " << sr.error;
    EXPECT_EQ(sr.error, core::validate(so.pipette));
    EXPECT_EQ(service.cache_stats().lookups, 0) << c.field << ": rejected before any profiling";
    EXPECT_EQ(service.pending(), 0);
  }
}
