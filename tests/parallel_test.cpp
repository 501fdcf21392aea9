#include <gtest/gtest.h>

#include "common/rng.h"
#include "parallel/groups.h"
#include "parallel/mapping.h"
#include "parallel/parallel_config.h"
#include "search/mapping_search.h"

namespace pp = pipette::parallel;

TEST(ParallelConfig, WaysAndLabel) {
  pp::ParallelConfig c{4, 8, 2};
  EXPECT_EQ(c.ways(), 64);
  EXPECT_EQ(c.str(), "pp4-tp8-dp2");
}

class EnumerateConfigs : public testing::TestWithParam<int> {};

TEST_P(EnumerateConfigs, ProductsAndConstraintsHold) {
  const int gpus = GetParam();
  pp::ConfigConstraints cons;
  const auto configs = pp::enumerate_parallel_configs(gpus, 8, 48, cons);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.ways(), gpus) << c.str();
    EXPECT_LE(c.tp, cons.max_tp);
    EXPECT_EQ(8 % c.tp, 0) << "tp must divide the node width";
    EXPECT_LE(c.pp, 48);
    EXPECT_GE(c.dp, 1);
  }
  // No duplicates.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (std::size_t j = i + 1; j < configs.size(); ++j) {
      EXPECT_FALSE(configs[i] == configs[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, EnumerateConfigs, testing::Values(8, 16, 24, 32, 64, 128));

TEST(EnumerateConfigsLimits, PipelineBoundedByLayers) {
  const auto configs = pp::enumerate_parallel_configs(128, 8, 4, {});
  for (const auto& c : configs) EXPECT_LE(c.pp, 4);
}

TEST(MicroBatchOptions, DivisibilityAndFullRounds) {
  pp::ConfigConstraints cons;
  pp::ParallelConfig c{4, 2, 8};
  const auto micros = pp::micro_batch_options(512, c, cons);
  ASSERT_FALSE(micros.empty());
  const int mini = 512 / c.dp;
  for (int m : micros) {
    EXPECT_EQ(mini % m, 0);
    EXPECT_LE(m, cons.max_micro_batch);
    EXPECT_GE(mini / m, c.pp) << "n_microbatches >= pp required";
  }
}

TEST(MicroBatchOptions, EmptyWhenDpDoesNotDivide) {
  EXPECT_TRUE(pp::micro_batch_options(100, {1, 1, 3}, {}).empty());
}

TEST(MicroBatchOptions, NumMicrobatches) {
  EXPECT_EQ(pp::num_microbatches(512, {4, 2, 8}, 4), 16);
}

TEST(LayersOfStage, UnevenSplitFrontLoaded) {
  // 10 layers over 4 stages: 3 3 2 2.
  EXPECT_EQ(pp::layers_of_stage(10, 4, 0), 3);
  EXPECT_EQ(pp::layers_of_stage(10, 4, 1), 3);
  EXPECT_EQ(pp::layers_of_stage(10, 4, 2), 2);
  EXPECT_EQ(pp::layers_of_stage(10, 4, 3), 2);
  int total = 0;
  for (int s = 0; s < 4; ++s) total += pp::layers_of_stage(10, 4, s);
  EXPECT_EQ(total, 10);
}

TEST(Mapping, IdentityAndWorkerIndexing) {
  pp::Mapping m(pp::ParallelConfig{2, 2, 2});
  EXPECT_EQ(m.num_workers(), 8);
  EXPECT_TRUE(m.is_valid_permutation());
  // Identity: gpu == worker index.
  EXPECT_EQ(m.gpu_of(0, 0, 0), m.worker_index(0, 0, 0));
  EXPECT_EQ(m.gpu_of(1, 1, 1), m.worker_index(1, 1, 1));
}

TEST(Mapping, MegatronDefaultOrder) {
  const pp::ParallelConfig c{2, 2, 2};
  const auto m = pp::Mapping::megatron_default(c);
  // GPU = stage*(tp*dp) + dpr*tp + tpr.
  EXPECT_EQ(m.gpu_of(0, 0, 0), 0);
  EXPECT_EQ(m.gpu_of(0, 1, 0), 1);
  EXPECT_EQ(m.gpu_of(0, 0, 1), 2);
  EXPECT_EQ(m.gpu_of(1, 0, 0), 4);
  EXPECT_TRUE(m.is_valid_permutation());
}

TEST(Mapping, MovesBehave) {
  pp::Mapping m(pp::ParallelConfig{4, 1, 2});
  auto before = m.raw();
  m.swap(0, 7);
  EXPECT_EQ(m.raw()[0], before[7]);
  EXPECT_EQ(m.raw()[7], before[0]);
  m.swap(0, 7);
  m.reverse(2, 5);
  EXPECT_EQ(m.raw()[2], before[5]);
  EXPECT_EQ(m.raw()[5], before[2]);
  m.reverse(2, 5);
  m.migrate(0, 3);
  EXPECT_EQ(m.raw()[3], before[0]);
  EXPECT_EQ(m.raw()[0], before[1]);
  EXPECT_TRUE(m.is_valid_permutation());
}

TEST(Mapping, NodeSwapPreservesIntraNodeStructure) {
  pp::Mapping m = pp::Mapping::megatron_default({2, 4, 2});  // 16 workers, 2 nodes of 8
  const auto before = m.raw();
  m.swap_nodes(0, 1, 8);
  EXPECT_TRUE(m.is_valid_permutation());
  for (std::size_t w = 0; w < before.size(); ++w) {
    const int g = before[w];
    const int expected = g < 8 ? g + 8 : g - 8;
    EXPECT_EQ(m.raw()[w], expected);
  }
}

TEST(Mapping, ReverseNodesReversesBlockOrder) {
  pp::Mapping m(pp::ParallelConfig{4, 2, 4});  // 32 workers, 4 nodes of 8
  m.reverse_nodes(0, 3, 8);
  EXPECT_TRUE(m.is_valid_permutation());
  // Worker 0 held GPU 0 (node 0) and must now hold the same slot on node 3.
  EXPECT_EQ(m.raw()[0], 24);
}

TEST(Mapping, MigrateEdgeCases) {
  pp::Mapping m(pp::ParallelConfig{4, 1, 2});
  const auto ident = m.raw();
  m.migrate(3, 3);  // i == j: no-op
  EXPECT_EQ(m.raw(), ident);
  m.migrate(0, 7);  // front to back: left rotation
  EXPECT_EQ(m.raw(), (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 0}));
  EXPECT_TRUE(m.is_valid_permutation());
  m.migrate(7, 0);  // exact inverse
  EXPECT_EQ(m.raw(), ident);
}

TEST(Mapping, ReverseEdgeCases) {
  pp::Mapping m(pp::ParallelConfig{4, 1, 2});
  const auto ident = m.raw();
  m.reverse(5, 5);  // i == j: no-op
  EXPECT_EQ(m.raw(), ident);
  m.reverse(0, 7);  // full range
  EXPECT_EQ(m.raw(), (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_TRUE(m.is_valid_permutation());
  m.reverse(7, 0);  // operands in either order, self-inverse
  EXPECT_EQ(m.raw(), ident);
}

TEST(Mapping, ReverseNodesEdgeCases) {
  pp::Mapping m(pp::ParallelConfig{4, 2, 4});  // 32 workers, 4 nodes of 8
  const auto ident = m.raw();
  m.reverse_nodes(2, 2, 8);  // single node: no-op
  EXPECT_EQ(m.raw(), ident);
  m.reverse_nodes(0, 3, 8);  // full range; node 1 <-> node 2 as well
  EXPECT_TRUE(m.is_valid_permutation());
  EXPECT_EQ(m.raw()[0], 24);
  EXPECT_EQ(m.raw()[8], 16);
  m.reverse_nodes(3, 0, 8);  // self-inverse, either operand order
  EXPECT_EQ(m.raw(), ident);

  // Single-node cluster: the only legal node range is [0, 0], a no-op.
  pp::Mapping single(pp::ParallelConfig{2, 2, 2});
  const auto before = single.raw();
  single.reverse_nodes(0, 0, 8);
  EXPECT_EQ(single.raw(), before);
  single.swap_nodes(0, 0, 8);
  EXPECT_EQ(single.raw(), before);
}

TEST(Move, ApplyInverseRoundTripsAllKinds) {
  pipette::common::Rng rng(31);
  pp::Mapping m = pp::Mapping::megatron_default({4, 2, 4});
  for (int i = 0; i < 2000; ++i) {
    const auto mv = pipette::search::draw_mapping_move(m, rng, {}, 8);
    const auto before = m.raw();
    pp::apply_move(m, mv, 8);
    ASSERT_TRUE(m.is_valid_permutation());
    pp::apply_move(m, pp::inverse_move(mv), 8);
    ASSERT_EQ(m.raw(), before) << "inverse failed for kind " << static_cast<int>(mv.kind)
                               << " a=" << mv.a << " b=" << mv.b;
    pp::apply_move(m, mv, 8);  // keep walking the state space
  }
}

TEST(Mapping, SetRawValidates) {
  pp::Mapping m(pp::ParallelConfig{2, 1, 2});
  EXPECT_THROW(m.set_raw({0, 1, 2}), std::invalid_argument);       // wrong size
  EXPECT_THROW(m.set_raw({0, 1, 2, 2}), std::invalid_argument);    // not a bijection
  EXPECT_NO_THROW(m.set_raw({3, 2, 1, 0}));
}

class MoveFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveFuzz, RandomMoveSequencesPreserveBijection) {
  pipette::common::Rng rng(GetParam());
  pp::Mapping m = pp::Mapping::megatron_default({4, 2, 4});
  for (int i = 0; i < 500; ++i) {
    pp::apply_move(m, pipette::search::draw_mapping_move(m, rng, {}, 8), 8);
    ASSERT_TRUE(m.is_valid_permutation()) << "broken after move " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveFuzz, testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Groups, ExtractionMatchesMapping) {
  const pp::ParallelConfig c{3, 2, 2};
  const auto m = pp::Mapping::megatron_default(c);
  const auto tp = pp::tp_group_gpus(m, 1, 1);
  ASSERT_EQ(tp.size(), 2u);
  EXPECT_EQ(tp[0], m.gpu_of(1, 0, 1));
  EXPECT_EQ(tp[1], m.gpu_of(1, 1, 1));

  const auto dp = pp::dp_group_gpus(m, 2, 0);
  ASSERT_EQ(dp.size(), 2u);
  EXPECT_EQ(dp[1], m.gpu_of(2, 0, 1));

  const auto path = pp::pipeline_path_gpus(m, 0, 0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[2], m.gpu_of(2, 0, 0));
}

TEST(Groups, SplitByNode) {
  const auto split = pp::split_by_node({0, 3, 9, 11, 17}, 8);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(split[1], (std::vector<int>{9, 11}));
  EXPECT_EQ(split[2], (std::vector<int>{17}));
}
