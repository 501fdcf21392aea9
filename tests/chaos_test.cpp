// Chaos suite — the robustness contract of the configure pipeline. Under any
// single-fault schedule (engine/faults.h taxonomy x seeds), every request
// must terminate with either a valid plan or a typed error: no crash, no
// hang, no NaN ever escapes. With faults off, the robust surface must be
// bit-identical to the plain service.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <tuple>
#include <vector>

#include "engine/config_service.h"
#include "engine/faults.h"
#include "model/gpt_zoo.h"

using namespace pipette;

namespace {

cluster::Topology small_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, seed);
}

cluster::Topology four_node_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, seed);
}

/// Fast budgets with an iteration-capped SA pass (see engine_test.cpp).
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
}

constexpr engine::FaultKind kAllKinds[] = {
    engine::FaultKind::kDeadLink,       engine::FaultKind::kDegradedLink,
    engine::FaultKind::kNanLink,        engine::FaultKind::kNegativeLink,
    engine::FaultKind::kPartialCoverage, engine::FaultKind::kDeadNode,
    engine::FaultKind::kTransientProfileFailure, engine::FaultKind::kStragglerRound,
};

/// Profiles through a transient-fault schedule the way the service does:
/// retry until the schedule lets a run through.
cluster::ProfileResult profile_with_retries(const cluster::Topology& t,
                                            const cluster::ProfileOptions& opt,
                                            int max_attempts = 8) {
  for (int attempt = 0;; ++attempt) {
    try {
      return cluster::profile_network(t, opt);
    } catch (const cluster::ProfileTransientError&) {
      if (attempt + 1 >= max_attempts) throw;
    }
  }
}

void expect_finite_positive(const cluster::BandwidthMatrix& bw, const std::string& ctx) {
  for (int g1 = 0; g1 < bw.num_gpus(); ++g1) {
    for (int g2 = 0; g2 < bw.num_gpus(); ++g2) {
      if (g1 == g2) continue;
      ASSERT_TRUE(std::isfinite(bw.at(g1, g2))) << ctx << " at " << g1 << "->" << g2;
      ASSERT_GT(bw.at(g1, g2), 0.0) << ctx << " at " << g1 << "->" << g2;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Profiler-level chaos: every (kind, seed) schedule yields a usable snapshot.

class ProfilerChaos
    : public testing::TestWithParam<std::tuple<engine::FaultKind, std::uint64_t>> {};

TEST_P(ProfilerChaos, EveryScheduleYieldsAFinitePositiveSnapshot) {
  const auto [kind, seed] = GetParam();
  const auto t = four_node_cluster(11);
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = seed;
  fo.kind = kind;
  engine::FaultInjector inj(fo);
  EXPECT_EQ(inj.kind(), kind);
  cluster::ProfileOptions po;
  po.faults = &inj;
  const auto res = profile_with_retries(t, po);
  const std::string ctx =
      std::string(engine::to_string(kind)) + " seed " + std::to_string(seed);
  expect_finite_positive(res.bw, ctx);
  EXPECT_GT(res.wall_time_s, 0.0) << ctx;
  EXPECT_GT(res.num_measurements, 0) << ctx;

  // Same schedule, same snapshot — chaos runs are regression tests, never
  // flake generators.
  engine::FaultInjector inj2(fo);
  cluster::ProfileOptions po2 = po;
  po2.faults = &inj2;
  const auto res2 = profile_with_retries(t, po2);
  for (int g1 = 0; g1 < res.bw.num_gpus(); ++g1) {
    for (int g2 = 0; g2 < res.bw.num_gpus(); ++g2) {
      if (g1 != g2) {
        ASSERT_EQ(res.bw.at(g1, g2), res2.bw.at(g1, g2)) << ctx;
      }
    }
  }
  EXPECT_EQ(res.sanitize.repaired_readings(), res2.sanitize.repaired_readings()) << ctx;
  EXPECT_EQ(res.sanitize.quarantined_nodes, res2.sanitize.quarantined_nodes) << ctx;
}

INSTANTIATE_TEST_SUITE_P(KindsBySeeds, ProfilerChaos,
                         testing::Combine(testing::ValuesIn(kAllKinds),
                                          testing::Values(1, 2, 3, 17, 2024)));

TEST(FaultInjector, SeedDerivesTheKindDeterministically) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    engine::FaultOptions fo;
    fo.enabled = true;
    fo.seed = seed;
    engine::FaultInjector a(fo);
    engine::FaultInjector b(fo);
    EXPECT_NE(a.kind(), engine::FaultKind::kNone) << seed;
    EXPECT_NE(a.kind(), engine::FaultKind::kCount) << seed;
    EXPECT_EQ(a.kind(), b.kind()) << seed;
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << seed;
    EXPECT_STRNE(engine::to_string(a.kind()), "none") << seed;
    EXPECT_STRNE(engine::to_string(a.kind()), "unknown") << seed;
  }
}

TEST(FaultInjector, FingerprintSeparatesSchedules) {
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = 7;
  fo.kind = engine::FaultKind::kDeadLink;
  const engine::FaultInjector base(fo);
  auto other_seed = fo;
  other_seed.seed = 8;
  EXPECT_NE(base.fingerprint(), engine::FaultInjector(other_seed).fingerprint());
  auto other_kind = fo;
  other_kind.kind = engine::FaultKind::kNanLink;
  EXPECT_NE(base.fingerprint(), engine::FaultInjector(other_kind).fingerprint());
  auto other_frac = fo;
  other_frac.partial_drop_frac = 0.5;
  EXPECT_NE(base.fingerprint(), engine::FaultInjector(other_frac).fingerprint());
}

TEST(FaultInjector, DeadNodeIsQuarantinedAndFloored) {
  const auto t = four_node_cluster(11);
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = 9;
  fo.kind = engine::FaultKind::kDeadNode;
  engine::FaultInjector inj(fo);
  cluster::ProfileOptions po;
  po.faults = &inj;
  const auto res = cluster::profile_network(t, po);
  const int dead = static_cast<int>(inj.target_a() % 4);
  ASSERT_EQ(res.sanitize.quarantined_nodes, std::vector<int>{dead});
  EXPECT_GT(res.sanitize.repaired_nonpositive, 0);
  for (int n = 0; n < 4; ++n) {
    if (n == dead) continue;
    EXPECT_DOUBLE_EQ(res.bw.at(dead * 8, n * 8), cluster::kFloorBw);
    EXPECT_DOUBLE_EQ(res.bw.at(n * 8, dead * 8), cluster::kFloorBw);
  }
}

TEST(FaultInjector, StragglerInflatesWallTimeOnly) {
  const auto t = four_node_cluster(11);
  const cluster::ProfileOptions healthy_opt;
  const auto healthy = cluster::profile_network(t, healthy_opt);
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = 4;
  fo.kind = engine::FaultKind::kStragglerRound;
  engine::FaultInjector inj(fo);
  cluster::ProfileOptions po;
  po.faults = &inj;
  const auto slow = cluster::profile_network(t, po);
  EXPECT_NEAR(slow.wall_time_s / healthy.wall_time_s, engine::kStragglerFactor, 1e-9);
  EXPECT_TRUE(slow.sanitize.clean());
  for (int g1 = 0; g1 < 32; g1 += 3) {
    for (int g2 = 0; g2 < 32; g2 += 5) {
      if (g1 != g2) {
        EXPECT_EQ(slow.bw.at(g1, g2), healthy.bw.at(g1, g2));
      }
    }
  }
}

TEST(FaultInjector, TransientFailuresThrowThenSucceed) {
  const auto t = small_cluster();
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = 6;
  fo.kind = engine::FaultKind::kTransientProfileFailure;
  fo.transient_failures = 2;
  engine::FaultInjector inj(fo);
  cluster::ProfileOptions po;
  po.faults = &inj;
  EXPECT_THROW(cluster::profile_network(t, po), cluster::ProfileTransientError);
  EXPECT_THROW(cluster::profile_network(t, po), cluster::ProfileTransientError);
  const auto res = cluster::profile_network(t, po);  // third run survives
  EXPECT_EQ(inj.transient_fired(), 2);
  EXPECT_TRUE(res.sanitize.clean()) << "a surviving run under a transient schedule is pristine";
}

TEST(FaultInjector, PartialCoverageIsRepairedBySanitizer) {
  const auto t = four_node_cluster(11);
  obs::Registry metrics;
  engine::FaultOptions fo;
  fo.enabled = true;
  fo.seed = 3;
  fo.kind = engine::FaultKind::kPartialCoverage;
  fo.partial_drop_frac = 0.5;
  fo.metrics = &metrics;
  engine::FaultInjector inj(fo);
  cluster::ProfileOptions po;
  po.faults = &inj;
  const auto res = cluster::profile_network(t, po);
  expect_finite_positive(res.bw, "partial coverage");
  EXPECT_GT(res.sanitize.repaired_nonpositive, 0) << "seed 3 at 50% must drop at least one pair";
  // Every dropped pair is exactly one unmeasured (zero-filled) block reading.
  EXPECT_EQ(metrics.snapshot().counter("pipette.faults.dropped_pairs"),
            res.sanitize.repaired_nonpositive);
}

// ---------------------------------------------------------------------------
// Service-level chaos: typed outcomes, retries, deadlines, admission.

TEST(ServiceChaos, EveryKindTerminatesWithAPlanOrTypedError) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  for (const engine::FaultKind kind : kAllKinds) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      auto so = service_options(2);
      so.faults.enabled = true;
      so.faults.seed = seed;
      so.faults.kind = kind;
      engine::RequestOptions ro;
      ro.profile_retries = 3;
      ro.retry_backoff_s = 1e-4;
      engine::ConfigService service(so);
      const auto sr = service.submit_request(topo, job, ro).get();
      const std::string ctx =
          std::string(engine::to_string(kind)) + " seed " + std::to_string(seed);
      ASSERT_EQ(sr.status, engine::ServiceStatus::kOk) << ctx << ": " << sr.error;
      ASSERT_TRUE(sr.result.found) << ctx;
      EXPECT_TRUE(std::isfinite(sr.result.predicted_s)) << ctx;
      EXPECT_GT(sr.result.predicted_s, 0.0) << ctx;
      ASSERT_TRUE(sr.result.mapping.has_value()) << ctx;
      EXPECT_TRUE(sr.result.mapping->is_valid_permutation()) << ctx;
      EXPECT_NE(sr.result.explain().find("\"health\""), std::string::npos) << ctx;
    }
  }
}

TEST(ServiceChaos, RobustSurfaceWithSlackDeadlineIsBitIdenticalToLegacy) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  engine::ConfigService legacy(service_options(2));
  const auto want = legacy.submit_request(topo, job).get().result;

  auto so = service_options(2);
  so.max_pending = 4;
  engine::RequestOptions ro;
  ro.deadline_s = 3600.0;  // finite, never trips
  engine::ConfigService robust(so);
  const auto sr = robust.submit_request(topo, job, ro).get();
  ASSERT_TRUE(sr.ok()) << sr.error;
  expect_identical(want, sr.result);
  EXPECT_FALSE(sr.result.health.deadline_exceeded);
  EXPECT_FALSE(sr.result.health.degraded());
  EXPECT_EQ(sr.result.health.repaired_readings, 0);
  EXPECT_DOUBLE_EQ(sr.result.health.confidence, 1.0);
}

TEST(ServiceChaos, BlownDeadlineStillReturnsAValidPlan) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(2);
  engine::ConfigService service(so);
  engine::RequestOptions ro;
  ro.deadline_s = 1e-6;  // blown before profiling even finishes
  const auto sr = service.submit_request(topo, job, ro).get();
  ASSERT_EQ(sr.status, engine::ServiceStatus::kOk) << sr.error;
  ASSERT_TRUE(sr.result.found) << "a blown deadline degrades the plan, never the answer";
  EXPECT_TRUE(sr.result.health.deadline_exceeded);
  EXPECT_TRUE(sr.result.health.degraded());
  EXPECT_GT(sr.result.health.overrun_s, 0.0);
  EXPECT_DOUBLE_EQ(sr.result.health.deadline_s, 1e-6);
  EXPECT_NE(sr.result.explain().find("\"deadline_exceeded\":true"), std::string::npos);
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("pipette.deadline.requests"), 1);
  EXPECT_EQ(snap.counter("pipette.deadline.overruns"), 1);
  EXPECT_GE(snap.counter("pipette.deadline.sa_truncated"), 1);
}

TEST(ServiceChaos, TransientProfileFailureRetriesThenSucceeds) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(2);
  so.faults.enabled = true;
  so.faults.kind = engine::FaultKind::kTransientProfileFailure;
  so.faults.transient_failures = 1;
  so.faults.seed = 5;
  engine::RequestOptions ro;
  ro.profile_retries = 2;
  ro.retry_backoff_s = 1e-4;
  engine::ConfigService service(so);
  const auto sr = service.submit_request(topo, job, ro).get();
  ASSERT_TRUE(sr.ok()) << sr.error;
  ASSERT_TRUE(sr.result.found);
  EXPECT_EQ(sr.result.health.profile_retries, 1);
  EXPECT_TRUE(sr.result.health.degraded());
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("pipette.service.profile_retries"), 1);
  EXPECT_EQ(snap.counter("pipette.faults.transient_failures"), 1);
  // The failed first attempt leaves both cache cells in place but empty; the
  // retry computed both artifacts, so neither is a cache hit. The next
  // request on the fabric reuses both.
  EXPECT_FALSE(sr.result.profile_cache_hit);
  EXPECT_FALSE(sr.result.memory_cache_hit);
  EXPECT_EQ(service.cache_stats().hits, 0);
  const auto again = service.submit_request(topo, job, ro).get();
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_TRUE(again.result.profile_cache_hit);
  EXPECT_TRUE(again.result.memory_cache_hit);
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.profiles_run, 1);
  EXPECT_EQ(stats.trainings_run, 1);
}

TEST(ServiceChaos, ExhaustedRetriesAreATypedProfileFailure) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(2);
  so.faults.enabled = true;
  so.faults.kind = engine::FaultKind::kTransientProfileFailure;
  so.faults.transient_failures = 100;  // never lets a run through
  so.faults.seed = 5;
  engine::RequestOptions ro;
  ro.profile_retries = 1;
  ro.retry_backoff_s = 1e-4;
  engine::ConfigService service(so);
  const auto sr = service.submit_request(topo, job, ro).get();
  EXPECT_EQ(sr.status, engine::ServiceStatus::kProfileFailed);
  EXPECT_FALSE(sr.error.empty());
  EXPECT_FALSE(sr.result.found);
  EXPECT_EQ(service.metrics().snapshot().counter("pipette.service.profile_failed"), 1);
}

TEST(ServiceChaos, RetryBackoffNeverSleepsPastTheDeadline) {
  // A transient failure that never clears, and a backoff far past the
  // deadline: unclamped, the first sleep alone is 10 * uniform(0.5, 1) >= 5 s.
  // Each sleep is clamped to what remains of the budget, so the typed failure
  // comes back near the 0.2 s deadline.
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(2);
  so.faults.enabled = true;
  so.faults.kind = engine::FaultKind::kTransientProfileFailure;
  so.faults.transient_failures = 100;  // never lets a run through
  so.faults.seed = 5;
  engine::ConfigService service(so);
  engine::RequestOptions ro;
  ro.deadline_s = 0.2;
  ro.profile_retries = 3;
  ro.retry_backoff_s = 10.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto sr = service.submit_request(topo, job, ro).get();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(sr.status, engine::ServiceStatus::kProfileFailed) << sr.error;
  EXPECT_LT(wall.count(), 2.0) << "a retry backoff slept past the 0.2 s deadline";
}

TEST(ServiceChaos, AdmissionBoundRejectsWithATypedStatus) {
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(1);
  so.max_pending = 1;
  engine::ConfigService service(so);

  // Park the lone worker so the first admitted request stays pending.
  std::promise<void> gate;
  auto blocker = service.pool().submit([f = gate.get_future().share()] { f.wait(); });
  auto first = service.submit_request(topo, job);
  EXPECT_EQ(service.pending(), 1);
  auto second = service.submit_request(topo, job);
  ASSERT_EQ(second.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "a rejection must resolve immediately, not wait for capacity";
  const auto rejected = second.get();
  EXPECT_EQ(rejected.status, engine::ServiceStatus::kRejectedQueueFull);
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_FALSE(rejected.result.found);

  gate.set_value();
  blocker.get();
  const auto sr = first.get();
  EXPECT_TRUE(sr.ok()) << sr.error;
  EXPECT_EQ(service.pending(), 0);
  EXPECT_EQ(service.metrics().snapshot().counter("pipette.service.rejected_queue_full"), 1);
}

TEST(ServiceChaos, SweepSurvivesAProfileFailedJob) {
  const auto topo = small_cluster();
  const std::vector<model::TrainingJob> jobs = {
      {model::gpt_774m(), 128}, {model::gpt_774m(), 256}, {model::gpt_774m(), 512}};
  auto so = service_options(1);  // sequential: job 0 deterministically eats the fault
  so.faults.enabled = true;
  so.faults.kind = engine::FaultKind::kTransientProfileFailure;
  so.faults.transient_failures = 1;
  so.faults.seed = 5;
  engine::RequestOptions ro;
  ro.profile_retries = 0;

  engine::ConfigService service(so);
  const auto rs = service.sweep(topo, jobs, ro);
  ASSERT_EQ(rs.size(), jobs.size());
  EXPECT_EQ(rs[0].status, engine::ServiceStatus::kProfileFailed);
  EXPECT_FALSE(rs[0].result.found);
  EXPECT_TRUE(rs[1].ok()) << rs[1].error;
  EXPECT_TRUE(rs[2].ok()) << rs[2].error;
  EXPECT_EQ(service.cache_stats().profiles_run, 1)
      << "the failed attempt leaves the cache cell empty; the next job recomputes";

  // Under default RequestOptions the sweep retries twice, so the schedule
  // fails one more run: the failed slot is still typed, found == false, and
  // the survivors return normally.
  so.faults.transient_failures = 1 + engine::RequestOptions{}.profile_retries;
  engine::ConfigService service2(so);
  const auto results = service2.sweep(topo, jobs);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_EQ(results[0].status, engine::ServiceStatus::kProfileFailed);
  EXPECT_FALSE(results[0].result.found);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(ServiceChaos, DeadNodeSurfacesInPlanHealthAndExplain) {
  const auto topo = four_node_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  auto so = service_options(4);
  so.faults.enabled = true;
  so.faults.kind = engine::FaultKind::kDeadNode;
  so.faults.seed = 13;
  engine::ConfigService service(so);
  const auto sr = service.submit_request(topo, job).get();
  ASSERT_TRUE(sr.ok()) << sr.error;
  const auto& h = sr.result.health;
  ASSERT_EQ(h.quarantined_nodes.size(), 1u);
  EXPECT_EQ(h.quarantined_nodes[0],
            static_cast<int>(service.fault_injector()->target_a() % 4));
  EXPECT_TRUE(h.degraded());
  EXPECT_LT(h.confidence, 1.0);
  EXPECT_GT(h.repaired_readings, 0);
  const auto text = sr.result.explain();
  EXPECT_NE(text.find("\"health\""), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);
  const auto snap = service.metrics().snapshot();
  EXPECT_GE(snap.counter("pipette.faults.quarantined_nodes"), 1);
  EXPECT_EQ(snap.counter("pipette.faults.degraded_requests"), 1);
}
