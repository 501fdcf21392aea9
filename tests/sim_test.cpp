#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "estimators/analytic_memory.h"
#include "model/gpt_zoo.h"
#include "parallel/mapping.h"
#include "parallel/train_plan.h"
#include "search/mapping_search.h"
#include "sim/collectives.h"
#include "sim/memory_sim.h"
#include "sim/pipeline_sim.h"
#include "sim/stage_costs.h"

using namespace pipette;

namespace {
cluster::Topology mid4() {
  return cluster::Topology(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 77);
}
model::TrainingJob job_774m(int batch = 128) { return {model::gpt_774m(), batch}; }
}  // namespace

TEST(Collectives, RingAllReduceFormula) {
  // Thakur et al.: 2(n-1)/n * bytes/bw + 2(n-1) * lat.
  EXPECT_DOUBLE_EQ(sim::ring_allreduce_time(8e9, 4, 1e9, 1e-3),
                   2.0 * 3.0 / 4.0 * 8.0 + 6.0 * 1e-3);
  EXPECT_DOUBLE_EQ(sim::ring_allreduce_time(8e9, 1, 1e9, 1e-3), 0.0);
  EXPECT_DOUBLE_EQ(sim::ring_reduce_scatter_time(8e9, 4, 1e9, 0.0), 6.0);
}

TEST(Collectives, HierarchicalDegeneratesToIntraRing) {
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(2));
  const std::vector<int> one_node{0, 1, 2, 3};
  const double expect = 2.0 * sim::ring_reduce_scatter_time(
                            1e9, 4, t.spec().intra_node.bandwidth_Bps,
                            t.spec().intra_node.latency_s);
  EXPECT_NEAR(sim::hierarchical_allreduce_time(t, one_node, 1e9), expect, 1e-9);
}

TEST(Collectives, HierarchicalInterFlowsSlowdown) {
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(2));
  const std::vector<int> cross{0, 8};
  const double one = sim::hierarchical_allreduce_time(t, cross, 1e9, 1);
  const double four = sim::hierarchical_allreduce_time(t, cross, 1e9, 4);
  EXPECT_GT(four, 2.0 * one);
  EXPECT_DOUBLE_EQ(sim::hierarchical_allreduce_time(t, {3}, 1e9), 0.0);
}

TEST(Collectives, P2pUsesLinkClass) {
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(2));
  EXPECT_LT(sim::p2p_time(t, 0, 1, 1e8), sim::p2p_time(t, 0, 8, 1e8));
  EXPECT_DOUBLE_EQ(sim::p2p_time(t, 5, 5, 1e8), 0.0);
}

TEST(StageSchedule, OneFOneBWarmupPattern) {
  // pp=3, nmb=6, stage 0: warmup 2 forwards, steady 1F1B, drain 2 backwards.
  const auto ops = sim::stage_schedule(parallel::PipeSchedule::k1F1B, 3, 0, 6);
  ASSERT_EQ(ops.size(), 12u);
  EXPECT_TRUE(ops[0].fwd);
  EXPECT_TRUE(ops[1].fwd);
  EXPECT_TRUE(ops[2].fwd);   // F3
  EXPECT_FALSE(ops[3].fwd);  // B1
  EXPECT_EQ(ops[3].microbatch, 0);
  EXPECT_FALSE(ops.back().fwd);
  EXPECT_EQ(ops.back().microbatch, 5);
}

TEST(StageSchedule, LastStageStrictlyAlternates) {
  const auto ops = sim::stage_schedule(parallel::PipeSchedule::k1F1B, 3, 2, 6);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].fwd, i % 2 == 0);
  }
}

TEST(StageSchedule, MemoryUnawareAllForwardThenBackward) {
  const auto ops = sim::stage_schedule(parallel::PipeSchedule::kMemoryUnaware, 3, 1, 4);
  ASSERT_EQ(ops.size(), 8u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ops[static_cast<std::size_t>(i)].fwd);
  for (int i = 4; i < 8; ++i) EXPECT_FALSE(ops[static_cast<std::size_t>(i)].fwd);
  EXPECT_EQ(ops[4].microbatch, 3);  // backward drains in reverse
}

TEST(StageSchedule, EveryMicrobatchAppearsExactlyOncePerDirection) {
  for (int stage = 0; stage < 4; ++stage) {
    const auto ops = sim::stage_schedule(parallel::PipeSchedule::k1F1B, 4, stage, 8);
    std::vector<int> fwd(8, 0), bwd(8, 0);
    for (const auto& op : ops) {
      (op.fwd ? fwd : bwd)[static_cast<std::size_t>(op.microbatch)]++;
    }
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(fwd[static_cast<std::size_t>(j)], 1);
      EXPECT_EQ(bwd[static_cast<std::size_t>(j)], 1);
    }
  }
}

TEST(StageCosts, TensorParallelismSplitsComputeAddsComm) {
  auto t = mid4();
  const auto job = job_774m();
  const auto m1 = parallel::Mapping::megatron_default({1, 1, 32});
  const auto m8 = parallel::Mapping::megatron_default({1, 8, 4});
  const auto c1 = sim::stage_costs(t, job, m1, {{1, 1, 32}, 4}, 0, 0);
  const auto c8 = sim::stage_costs(t, job, m8, {{1, 8, 4}, 4}, 0, 0);
  EXPECT_GT(c1.compute_s, c8.compute_s);
  EXPECT_DOUBLE_EQ(c1.tp_comm_s, 0.0);
  EXPECT_GT(c8.tp_comm_s, 0.0);
  EXPECT_DOUBLE_EQ(c8.fwd_s, c8.fwd_compute_s + c8.tp_fwd_s);
}

TEST(StageCosts, GemmEfficiencySaturates) {
  const auto spec = cluster::mid_range_cluster();
  const double lo = sim::gemm_efficiency(spec, spec.gemm_efficiency_knee_flops / 10.0);
  const double mid = sim::gemm_efficiency(spec, spec.gemm_efficiency_knee_flops);
  const double hi = sim::gemm_efficiency(spec, spec.gemm_efficiency_knee_flops * 100.0);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
  EXPECT_NEAR(mid, spec.gemm_efficiency_max / 2.0, 1e-9);
  EXPECT_LE(hi, spec.gemm_efficiency_max);
}

TEST(StageCosts, StageParametersAccountEmbeddings) {
  const auto m = model::gpt_774m();
  const auto p0 = sim::stage_parameters(m, 4, 0);
  const auto p1 = sim::stage_parameters(m, 4, 1);
  const auto p3 = sim::stage_parameters(m, 4, 3);
  EXPECT_GT(p0, p1);  // first stage holds the embeddings
  EXPECT_GT(p3, p1);  // last stage holds the tied copy + final layernorm
  // Single stage holds everything exactly once.
  EXPECT_EQ(sim::stage_parameters(m, 1, 0), model::total_parameters(m));
}

TEST(PipelineSim, ThroughputBoundOnHomogeneousCluster) {
  // With zero jitter the iteration can never beat the busiest stage's work,
  // and 1F1B must be within ~2x of it for a well-fed pipeline.
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(4));
  const auto job = job_774m(256);
  const parallel::TrainPlan plan{{4, 2, 4}, 2};
  const auto mapping = parallel::Mapping::megatron_default(plan.pc);
  sim::SimOptions opt;
  opt.jitter_sigma = 0.0;
  const auto r = sim::simulate_iteration(t, job, mapping, plan, opt);
  EXPECT_GE(r.total_s, r.max_stage_busy_s);
  EXPECT_LT(r.total_s, 2.0 * r.max_stage_busy_s);
  EXPECT_GE(r.bubble_fraction, 0.0);
  EXPECT_LE(r.bubble_fraction, 0.6);
}

TEST(PipelineSim, MoreMicrobatchesAmortizeBubbles) {
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(4));
  const parallel::TrainPlan plan{{8, 1, 4}, 2};
  const auto mapping = parallel::Mapping::megatron_default(plan.pc);
  sim::SimOptions opt;
  opt.jitter_sigma = 0.0;
  const auto few = sim::simulate_iteration(t, {model::gpt_774m(), 64}, mapping, plan, opt);
  const auto many = sim::simulate_iteration(t, {model::gpt_774m(), 512}, mapping, plan, opt);
  EXPECT_GT(few.bubble_fraction, many.bubble_fraction);
}

TEST(PipelineSim, DpSyncCostsTime) {
  auto t = mid4();
  const auto job = job_774m(128);
  sim::SimOptions opt;
  const auto with_dp = sim::simulate_iteration(
      t, job, parallel::Mapping::megatron_default({4, 1, 8}), {{4, 1, 8}, 2}, opt);
  EXPECT_GT(with_dp.dp_sync_s, 0.0);
  const auto no_dp = sim::simulate_iteration(
      t, job, parallel::Mapping::megatron_default({4, 8, 1}), {{4, 8, 1}, 2}, opt);
  EXPECT_DOUBLE_EQ(no_dp.dp_sync_s, 0.0);
}

TEST(PipelineSim, DeterministicInSeedAndSensitiveToIt) {
  auto t = mid4();
  const auto job = job_774m();
  const auto mapping = parallel::Mapping::megatron_default({4, 2, 4});
  const parallel::TrainPlan plan{{4, 2, 4}, 4};
  sim::SimOptions a, b;
  a.seed = b.seed = 123;
  EXPECT_DOUBLE_EQ(sim::simulate_iteration(t, job, mapping, plan, a).total_s,
                   sim::simulate_iteration(t, job, mapping, plan, b).total_s);
  b.seed = 124;
  EXPECT_NE(sim::simulate_iteration(t, job, mapping, plan, a).total_s,
            sim::simulate_iteration(t, job, mapping, plan, b).total_s);
}

TEST(PipelineSim, MemoryUnawareSlowerWithExposedComm) {
  // The memory-unaware schedule overlaps P2P better, so on a *homogeneous*
  // cluster with zero jitter it is at least as fast — the 1F1B window is what
  // exposes the hidden critical path (paper Fig. 2).
  auto t = cluster::Topology::homogeneous(cluster::mid_range_cluster(4));
  const auto job = job_774m(256);
  const auto mapping = parallel::Mapping::megatron_default({8, 1, 4});
  sim::SimOptions opt;
  opt.jitter_sigma = 0.0;
  parallel::TrainPlan plan{{8, 1, 4}, 1};
  const auto efficient = sim::simulate_iteration(t, job, mapping, plan, opt);
  plan.schedule = parallel::PipeSchedule::kMemoryUnaware;
  const auto unaware = sim::simulate_iteration(t, job, mapping, plan, opt);
  EXPECT_LE(unaware.total_s, efficient.total_s * 1.02);
}

TEST(PipelineSim, RejectsBadBatchGeometry) {
  auto t = mid4();
  const auto mapping = parallel::Mapping::megatron_default({4, 2, 4});
  sim::SimOptions opt;
  EXPECT_THROW(
      sim::simulate_iteration(t, {model::gpt_774m(), 100}, mapping, {{4, 2, 4}, 3}, opt),
      std::invalid_argument);
}

TEST(PipelineSim, RejectsMappingLargerThanCluster) {
  auto t = mid4();  // 32 GPUs
  const auto mapping = parallel::Mapping::megatron_default({8, 2, 16});  // 256 workers
  sim::SimOptions opt;
  EXPECT_THROW(
      sim::simulate_iteration(t, {model::gpt_774m(), 256}, mapping, {{8, 2, 16}, 2}, opt),
      std::invalid_argument);
}

TEST(PipelineSim, RejectsInvalidChunkedPlans) {
  // Chunk counts other than one must form a valid interleaved plan: a flat
  // schedule with two chunks, or no chunks at all, is refused, not simulated.
  auto t = mid4();
  const auto mapping = parallel::Mapping::megatron_default({4, 2, 4});
  sim::SimOptions opt;
  for (const int v : {0, 2}) {
    parallel::TrainPlan plan{{4, 2, 4}, 2};
    plan.virtual_stages = v;
    EXPECT_THROW(sim::simulate_iteration(t, {model::gpt_2_2b(), 256}, mapping, plan, opt),
                 std::invalid_argument)
        << "virtual_stages " << v;
  }
}

TEST(MemorySim, OneFOneBBeatsMemoryUnaware) {
  const auto spec = cluster::mid_range_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  parallel::TrainPlan plan{{4, 4, 4}, 4};
  const auto eff = sim::simulate_peak_memory(spec, job, plan, 1);
  plan.schedule = parallel::PipeSchedule::kMemoryUnaware;
  const auto una = sim::simulate_peak_memory(spec, job, plan, 1);
  EXPECT_LT(eff.activation_bytes, una.activation_bytes);
  EXPECT_LT(eff.total_bytes, una.total_bytes);
}

TEST(MemorySim, MonotoneInMicrobatchAndTp) {
  const auto spec = cluster::mid_range_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  const auto m2 = sim::simulate_peak_memory(spec, job, {{4, 4, 8}, 2}, 1);
  const auto m8 = sim::simulate_peak_memory(spec, job, {{4, 4, 8}, 8}, 1);
  EXPECT_LT(m2.total_bytes, m8.total_bytes);
  const auto tp2 = sim::simulate_peak_memory(spec, job, {{4, 2, 16}, 2}, 1);
  EXPECT_GT(tp2.total_bytes, m2.total_bytes);  // fewer shards -> more per GPU
}

TEST(MemorySim, BreakdownSumsToTotal) {
  const auto spec = cluster::high_end_cluster();
  const model::TrainingJob job{model::gpt_11_1b(), 512};
  const auto b = sim::simulate_peak_memory(spec, job, {{8, 8, 2}, 8}, 1);
  EXPECT_NEAR(b.total_bytes,
              b.weights_optimizer_bytes + b.activation_bytes + b.framework_bytes,
              b.total_bytes * 1e-9);
  EXPECT_GT(b.framework_bytes, 0.0);
}

TEST(MemorySim, DeterministicPerConfigSeed) {
  const auto spec = cluster::mid_range_cluster();
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const auto a = sim::simulate_peak_memory(spec, job, {{2, 2, 8}, 4}, 42);
  const auto b = sim::simulate_peak_memory(spec, job, {{2, 2, 8}, 4}, 42);
  EXPECT_DOUBLE_EQ(a.total_bytes, b.total_bytes);
  const auto c = sim::simulate_peak_memory(spec, job, {{2, 2, 8}, 4}, 43);
  EXPECT_NE(a.total_bytes, c.total_bytes);
}

TEST(MemorySim, FitsInMemoryBoundary) {
  const auto spec = cluster::mid_range_cluster();
  // A giant memory-unaware configuration of GPT-3.1B cannot fit in 32 GB.
  const model::TrainingJob big{model::gpt_3_1b(), 512};
  parallel::TrainPlan giant{{1, 1, 1}, 8};
  giant.schedule = parallel::PipeSchedule::kMemoryUnaware;
  EXPECT_FALSE(sim::fits_in_memory(spec, big, giant, 1));
  // A small model with full sharding fits easily.
  const model::TrainingJob small{model::gpt_774m(), 128};
  EXPECT_TRUE(sim::fits_in_memory(spec, small, {{4, 8, 4}, 1}, 1));
}

TEST(PipelineSim, GoldenSimulatorAndMemoryDigests) {
  // Pins the two ground-truth judges bit for bit. Each row sweeps every plan
  // the configurator can reach on one fabric and batch — the enumerated base
  // space (plain and interleaved), the memory-unaware twin of each plain plan
  // and every memory-relief variant — on the Megatron-default mapping and on
  // a seeded scrambled one, with default and zero jitter. `iteration` digests
  // simulate_iteration's six fields; `memory` digests simulate_peak_memory's
  // byte fields and limiting stage, the analytic estimate, and per-position
  // dp_sync_bytes and layers_of_position. The values were recorded by running
  // this test. A change meant to keep both simulators bit-identical must
  // leave the table alone.
  struct Golden {
    bool high_end;
    int nodes;
    model::TransformerConfig (*model)();
    int global_batch;
    int plans;
    std::uint64_t iteration;
    std::uint64_t memory;
  };
  const Golden table[] = {
      {false, 2, model::gpt_774m, 64, 390, 0x139d69da1f76446cull, 0xe809760d3882397dull},
      {false, 2, model::gpt_774m, 256, 428, 0x5a60d54204e338bcull, 0x0818692d007a6217ull},
      {true, 4, model::gpt_2_2b, 64, 532, 0xd520a8320e03fdd3ull, 0x9eb01e2fd9ee60b3ull},
      {true, 4, model::gpt_2_2b, 256, 696, 0x38aefd1655c8c1b5ull, 0x2ebbeeb3439bd9bdull},
  };
  using common::hash_combine;
  sim::SimOptions noiseless;
  noiseless.jitter_sigma = 0.0;
  const sim::SimOptions options[] = {sim::SimOptions{}, noiseless};
  int interleaved = 0, unaware = 0, relief = 0;
  for (const Golden& g : table) {
    const cluster::ClusterSpec spec =
        g.high_end ? cluster::high_end_cluster(g.nodes) : cluster::mid_range_cluster(g.nodes);
    const cluster::Topology topo(spec, cluster::HeterogeneityOptions{}, 2024);
    const model::TrainingJob job{g.model(), g.global_batch};
    const int gpn = topo.gpus_per_node();
    const parallel::ConfigConstraints c;
    std::vector<parallel::TrainPlan> plans;
    for (const auto& base : parallel::enumerate_base_plans(
             topo.num_gpus(), gpn, job.model.num_layers, job.global_batch, c)) {
      plans.push_back(base);
      if (base.virtual_stages > 1) ++interleaved;
      if (base.is_plain()) {
        parallel::TrainPlan twin = base;
        twin.schedule = parallel::PipeSchedule::kMemoryUnaware;
        plans.push_back(twin);
        ++unaware;
      }
      for (const auto& variant : parallel::memory_relief_variants(base, c)) {
        plans.push_back(variant);
        ++relief;
      }
    }
    std::uint64_t iteration = 0, memory = 0;
    for (const auto& plan : plans) {
      const auto megatron = parallel::Mapping::megatron_default(plan.pc);
      auto moved = megatron;
      common::Rng rng(plan.hash());
      for (int i = 0; i < 40; ++i) {
        parallel::apply_move(moved, search::draw_mapping_move(moved, rng, {}, gpn), gpn);
      }
      const parallel::Mapping* const mappings[] = {&megatron, &moved};
      for (const parallel::Mapping* mapping : mappings) {
        for (const sim::SimOptions& opt : options) {
          const auto r = sim::simulate_iteration(topo, job, *mapping, plan, opt);
          for (const double x :
               {r.total_s, r.last_backward_s, r.dp_sync_s, r.max_stage_busy_s, r.bubble_fraction}) {
            iteration = hash_combine(iteration, x);
          }
          iteration = hash_combine(iteration, static_cast<std::uint64_t>(r.critical_stage));
        }
      }
      const auto mem = sim::simulate_peak_memory(spec, job, plan, 7);
      for (const double x : {mem.weights_optimizer_bytes, mem.activation_bytes,
                             mem.framework_bytes, mem.total_bytes,
                             estimators::analytic_memory_estimate(job, plan)}) {
        memory = hash_combine(memory, x);
      }
      memory = hash_combine(memory, static_cast<std::uint64_t>(mem.limiting_stage));
      for (int position = 0; position < plan.pc.pp; ++position) {
        memory = hash_combine(memory, sim::dp_sync_bytes(job.model, plan, position));
        memory = hash_combine(memory, static_cast<std::uint64_t>(parallel::layers_of_position(
                                          job.model.num_layers, plan, position)));
      }
    }
    // On a mismatch, print the row as it would be re-recorded.
    char row[256];
    std::snprintf(row, sizeof row, "%s x%d %s batch %d: %d, 0x%016llxull, 0x%016llxull",
                  spec.name.c_str(), g.nodes, job.model.name.c_str(), g.global_batch,
                  static_cast<int>(plans.size()), static_cast<unsigned long long>(iteration),
                  static_cast<unsigned long long>(memory));
    EXPECT_EQ(static_cast<int>(plans.size()), g.plans) << row;
    EXPECT_EQ(iteration, g.iteration) << row;
    EXPECT_EQ(memory, g.memory) << row;
  }
  EXPECT_GT(interleaved, 0) << "the sweep must reach interleaved plans";
  EXPECT_GT(unaware, 0) << "the sweep must reach memory-unaware plans";
  EXPECT_GT(relief, 0) << "the sweep must reach memory-relief variants";
}
