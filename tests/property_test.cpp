// Property-style sweeps over seeds and configuration space: invariants that
// must hold for *every* point, not just the hand-picked unit-test cases.
#include <gtest/gtest.h>

#include <set>

#include "cluster/profiler.h"
#include "core/evaluation.h"
#include "estimators/latency_models.h"
#include "model/gpt_zoo.h"
#include "parallel/groups.h"
#include "search/mapping_search.h"
#include "sim/memory_sim.h"
#include "sim/pipeline_sim.h"

using namespace pipette;

// ---------------------------------------------------------------------------
// Batch geometry: for every enumerated configuration and admissible
// microbatch, dp * n_microbatches * micro == global batch exactly.
class BatchGeometry : public testing::TestWithParam<int> {};

TEST_P(BatchGeometry, PartitionIsExact) {
  const int global_batch = GetParam();
  for (const auto& pc : parallel::enumerate_parallel_configs(64, 8, 48, {})) {
    for (int micro : parallel::micro_batch_options(global_batch, pc, {})) {
      const int nmb = parallel::num_microbatches(global_batch, pc, micro);
      EXPECT_EQ(pc.dp * nmb * micro, global_batch) << pc.str() << " mb" << micro;
      EXPECT_GE(nmb, pc.pp);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GlobalBatches, BatchGeometry, testing::Values(64, 128, 256, 512, 1024));

// ---------------------------------------------------------------------------
// Group structure: under any valid mapping, the TP groups over (stage, dpr)
// partition the GPU set exactly; same for DP groups over (stage, tpr).
class GroupPartition : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupPartition, TpAndDpGroupsPartitionTheCluster) {
  common::Rng rng(GetParam());
  parallel::Mapping m = parallel::Mapping::megatron_default({4, 2, 4});
  for (int i = 0; i < 64; ++i) {
    parallel::apply_move(m, search::draw_mapping_move(m, rng, {}, 8), 8);
  }
  ASSERT_TRUE(m.is_valid_permutation());

  std::set<int> seen;
  for (int x = 0; x < 4; ++x) {
    for (int z = 0; z < 4; ++z) {
      for (int g : parallel::tp_group_gpus(m, x, z)) {
        EXPECT_TRUE(seen.insert(g).second) << "GPU " << g << " in two TP groups";
      }
    }
  }
  EXPECT_EQ(seen.size(), 32u);

  seen.clear();
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int g : parallel::dp_group_gpus(m, x, y)) {
        EXPECT_TRUE(seen.insert(g).second) << "GPU " << g << " in two DP groups";
      }
    }
  }
  EXPECT_EQ(seen.size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupPartition, testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// 1F1B schedule invariant: replaying any stage's op list, the number of
// in-flight microbatches (forwarded but not yet backwarded) never exceeds
// min(pp - stage, nmb) — the memory-efficiency property the memory model and
// the paper's Fig. 2b rely on.
class OneFOneBWindow : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OneFOneBWindow, InflightNeverExceedsWindow) {
  const auto [pp, nmb] = GetParam();
  for (int stage = 0; stage < pp; ++stage) {
    const auto ops = sim::stage_schedule(parallel::PipeSchedule::k1F1B, pp, stage, nmb);
    int inflight = 0, peak = 0;
    for (const auto& op : ops) {
      inflight += op.fwd ? 1 : -1;
      peak = std::max(peak, inflight);
      ASSERT_GE(inflight, 0);
    }
    EXPECT_EQ(inflight, 0) << "schedule did not drain";
    EXPECT_LE(peak, std::min(pp - stage, nmb)) << "stage " << stage << " of pp " << pp;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OneFOneBWindow,
                         testing::Values(std::tuple{2, 8}, std::tuple{4, 4}, std::tuple{4, 16},
                                         std::tuple{8, 8}, std::tuple{8, 64},
                                         std::tuple{16, 32}, std::tuple{3, 7},
                                         std::tuple{5, 13}));

// ---------------------------------------------------------------------------
// Simulator sanity across the whole configuration space of a small cluster:
// positive finite time, bubbles in [0,1), and the memory-efficient schedule
// never uses more activation memory than the memory-unaware one.
class SimulatorSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorSweep, AllConfigurationsSimulateSanely) {
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{},
                         GetParam());
  const model::TrainingJob job{model::gpt_774m(), 64};
  sim::SimOptions opt;
  opt.seed = GetParam();
  int count = 0;
  for (const auto& pc : parallel::enumerate_parallel_configs(16, 8, 36, {})) {
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, {})) {
      const parallel::TrainPlan plan{pc, micro};
      const auto mapping = parallel::Mapping::megatron_default(pc);
      const auto r = sim::simulate_iteration(topo, job, mapping, plan, opt);
      EXPECT_GT(r.total_s, 0.0) << pc.str();
      EXPECT_TRUE(std::isfinite(r.total_s)) << pc.str();
      EXPECT_GE(r.bubble_fraction, 0.0);
      EXPECT_LT(r.bubble_fraction, 1.0);
      EXPECT_GE(r.total_s, r.last_backward_s);

      parallel::TrainPlan unaware = plan;
      unaware.schedule = parallel::PipeSchedule::kMemoryUnaware;
      const auto eff = sim::simulate_peak_memory(topo.spec(), job, plan, 1);
      const auto una = sim::simulate_peak_memory(topo.spec(), job, unaware, 1);
      EXPECT_LE(eff.activation_bytes, una.activation_bytes * 1.0001) << pc.str();
      ++count;
    }
  }
  EXPECT_GT(count, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorSweep, testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Estimator monotonicity: making every inter-node link slower can never make
// the Pipette latency estimate smaller.
TEST(EstimatorProperty, MonotoneInBandwidth) {
  cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 9);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{4, 2, 4}, 2};
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const auto mapping = parallel::Mapping::megatron_default(plan.pc);

  auto fast = topo.true_matrix();
  const int nn = fast.num_nodes(), gpn = fast.gpus_per_node();
  cluster::BandwidthMatrix slow(nn, gpn);
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 != n2) slow.set_inter(n1, n2, fast.inter(n1, n2) * 0.5);
    }
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a != b) slow.set_intra(n1, a, b, fast.intra(n1, a, b) * 0.5);
      }
    }
  }
  estimators::PipetteLatencyModel m_fast(job, plan, prof, &fast, links);
  estimators::PipetteLatencyModel m_slow(job, plan, prof, &slow, links);
  EXPECT_GT(m_slow.estimate(mapping), m_fast.estimate(mapping));
}

// Estimator monotonicity: more microbatches (smaller microbatch size) never
// reduce the per-iteration pipeline communication volume on the critical path.
TEST(EstimatorProperty, PpTermGrowsWithMessageSize) {
  cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 9);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan1{{4, 2, 4}, 1};
  const parallel::TrainPlan plan4{{4, 2, 4}, 4};
  const auto bw = topo.true_matrix();
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto mapping = parallel::Mapping::megatron_default(plan1.pc);
  const auto prof1 = estimators::profile_compute(topo, job, plan1, {});
  const auto prof4 = estimators::profile_compute(topo, job, plan4, {});
  estimators::PipetteLatencyModel m1(job, plan1, prof1, &bw, links);
  estimators::PipetteLatencyModel m4(job, plan4, prof4, &bw, links);
  EXPECT_LT(m1.pp_comm_term(mapping), m4.pp_comm_term(mapping));
}

// ---------------------------------------------------------------------------
// OOM-fallback completeness: if any entry of a ranking is runnable, the
// fallback must find one (never report failure while a runnable config waits).
class FallbackCompleteness : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FallbackCompleteness, FindsRunnableIfOneExists) {
  cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{},
                         GetParam());
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  core::ConfiguratorResult rec;
  rec.found = true;
  bool any_runnable = false;
  // A ranking assembled from the raw enumeration, deliberately unfiltered.
  for (const auto& pc : parallel::enumerate_parallel_configs(32, 8, 48, {})) {
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, {})) {
      rec.ranking.push_back({core::Candidate{pc, micro}, 1.0});
      any_runnable |= !core::run_actual(topo, job, {pc, micro},
                                        parallel::Mapping::megatron_default(pc), {})
                           .oom;
    }
  }
  ASSERT_FALSE(rec.ranking.empty());
  rec.best = rec.ranking.front().cand;
  rec.mapping = parallel::Mapping::megatron_default(rec.best.pc);
  const auto out = core::execute_with_oom_fallback(topo, job, rec, {},
                                                   static_cast<int>(rec.ranking.size()));
  EXPECT_EQ(out.success, any_runnable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FallbackCompleteness, testing::Values(3, 14, 159));

// ---------------------------------------------------------------------------
// Day drift: the profiled matrix from day 0 stays within the clamp envelope
// of the fabric on any later day (the premise of profiling once per job).
TEST(ProfileStability, DriftStaysWithinClamp) {
  cluster::HeterogeneityOptions het;
  cluster::Topology topo(cluster::mid_range_cluster(4), het, 77);
  const auto day0 = cluster::profile_network(topo, {});
  for (int d = 0; d < 20; ++d) topo.advance_day();
  for (int n1 = 0; n1 < 4; ++n1) {
    for (int n2 = 0; n2 < 4; ++n2) {
      if (n1 == n2) continue;
      const double measured = day0.bw.at(n1 * 8, n2 * 8);
      const double now = topo.bandwidth(n1 * 8, n2 * 8);
      // Measurement noise (2 %) + max daily excursion (12 %) both ways.
      EXPECT_NEAR(measured / now, 1.0, 0.35);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan-space enumeration invariants (the satellite properties of the TrainPlan
// refactor): every enumerated point is unique, factorizes the cluster
// exactly, honours the full-round constraint, and fixed_micro_batch pins the
// microbatch across the entire space.
class PlanEnumeration : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanEnumeration, UniquenessDivisibilityAndFullRounds) {
  const auto [num_gpus, global_batch] = GetParam();
  parallel::ConfigConstraints c;
  const auto plans = parallel::enumerate_base_plans(num_gpus, 8, 48, global_batch, c);
  ASSERT_FALSE(plans.empty());
  std::set<std::uint64_t> hashes;
  for (const auto& p : plans) {
    EXPECT_TRUE(hashes.insert(p.hash()).second) << "duplicate plan " << p.str();
    EXPECT_EQ(p.pc.ways(), num_gpus) << p.str();
    EXPECT_EQ(global_batch % p.pc.dp, 0) << p.str();
    const int mini = global_batch / p.pc.dp;
    EXPECT_EQ(mini % p.micro_batch, 0) << p.str();
    const int nmb = parallel::num_microbatches(global_batch, p.pc, p.micro_batch);
    EXPECT_GE(nmb, p.pc.pp) << p.str() << " violates the full-round constraint";
    EXPECT_TRUE(p.valid_for(48, global_batch)) << p.str();
    if (p.schedule == parallel::PipeSchedule::kInterleaved1F1B) {
      EXPECT_EQ(48 % p.total_stages(), 0) << p.str();
      EXPECT_EQ(nmb % p.pc.pp, 0) << p.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlanEnumeration,
                         testing::Values(std::tuple{16, 128}, std::tuple{32, 256},
                                         std::tuple{64, 256}, std::tuple{128, 512}));

TEST(PlanEnumeration, FixedMicroBatchPinsTheWholeSpace) {
  parallel::ConfigConstraints c;
  c.fixed_micro_batch = 4;
  for (const auto& p : parallel::enumerate_base_plans(64, 8, 48, 512, c)) {
    EXPECT_EQ(p.micro_batch, 4) << p.str();
  }
}

// ---------------------------------------------------------------------------
// Interleaved schedule invariants: every (chunk, microbatch) pair runs
// exactly one forward and one backward on every GPU position, warmup depth
// follows Megatron's formula, and the schedule covers all virtual stages.
class InterleavedSchedule : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(InterleavedSchedule, EachChunkMicrobatchOnceAndAllChunksCovered) {
  const auto [pp, v, nmb] = GetParam();
  ASSERT_EQ(nmb % pp, 0);
  for (int position = 0; position < pp; ++position) {
    const auto ops = sim::interleaved_stage_schedule(pp, v, position, nmb);
    ASSERT_EQ(ops.size(), static_cast<std::size_t>(2 * v * nmb));
    std::vector<int> fwd(static_cast<std::size_t>(v * nmb), 0);
    std::vector<int> bwd(static_cast<std::size_t>(v * nmb), 0);
    std::set<int> chunks;
    int inflight = 0, peak = 0;
    for (const auto& op : ops) {
      ASSERT_GE(op.chunk, 0);
      ASSERT_LT(op.chunk, v);
      ASSERT_GE(op.microbatch, 0);
      ASSERT_LT(op.microbatch, nmb);
      chunks.insert(op.chunk);
      (op.fwd ? fwd : bwd)[static_cast<std::size_t>(op.chunk * nmb + op.microbatch)]++;
      inflight += op.fwd ? 1 : -1;
      peak = std::max(peak, inflight);
      ASSERT_GE(inflight, 0);
    }
    EXPECT_EQ(inflight, 0) << "schedule did not drain";
    EXPECT_EQ(static_cast<int>(chunks.size()), v) << "not all virtual stages covered";
    for (int s = 0; s < v * nmb; ++s) {
      EXPECT_EQ(fwd[static_cast<std::size_t>(s)], 1) << "position " << position;
      EXPECT_EQ(bwd[static_cast<std::size_t>(s)], 1) << "position " << position;
    }
    const int warmup = std::min(2 * (pp - position - 1) + (v - 1) * pp, v * nmb);
    EXPECT_EQ(peak, std::min(warmup + 1, v * nmb)) << "position " << position;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, InterleavedSchedule,
                         testing::Values(std::tuple{2, 2, 4}, std::tuple{2, 2, 8},
                                         std::tuple{4, 2, 8}, std::tuple{4, 3, 16},
                                         std::tuple{8, 2, 16}, std::tuple{8, 4, 32}));

// The interleaved simulator agrees with the schedule: it runs to completion
// (no deadlock) on every enumerated interleaved plan of a small cluster and
// the iteration is never faster than the busiest GPU's work.
TEST(InterleavedSchedule, SimulatorRunsEveryEnumeratedInterleavedPlan) {
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 3);
  const model::TrainingJob job{model::gpt_3_1b(), 64};
  int count = 0;
  for (const auto& p :
       parallel::enumerate_base_plans(16, 8, job.model.num_layers, job.global_batch, {})) {
    if (p.schedule != parallel::PipeSchedule::kInterleaved1F1B) continue;
    const auto mapping = parallel::Mapping::megatron_default(p.pc);
    const auto r = sim::simulate_iteration(topo, job, mapping, p, {});
    EXPECT_GT(r.total_s, 0.0) << p.str();
    EXPECT_TRUE(std::isfinite(r.total_s)) << p.str();
    EXPECT_GE(r.total_s, r.max_stage_busy_s * 0.999) << p.str();
    ++count;
  }
  EXPECT_GT(count, 3);
}
