#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "cluster/profiler.h"
#include "estimators/compute_profile.h"
#include "estimators/latency_models.h"
#include "model/gpt_zoo.h"
#include "search/mapping_search.h"
#include "search/sa.h"

using namespace pipette;

namespace {

/// Toy problem: sort a permutation; cost = sum of |v[i] - i|.
double displacement_cost(const std::vector<int>& v) {
  double c = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    c += std::abs(v[i] - static_cast<int>(i));
  }
  return c;
}

}  // namespace

TEST(SimulatedAnnealing, SolvesToyPermutationProblem) {
  std::vector<int> state(24);
  std::iota(state.begin(), state.end(), 0);
  std::reverse(state.begin(), state.end());

  search::SaOptions opt;
  opt.time_limit_s = 2.0;
  opt.max_iters = 200000;
  opt.seed = 4;
  const auto res = search::simulated_annealing(
      state, displacement_cost,
      [](std::vector<int>& s, common::Rng& rng) {
        const int i = rng.uniform_int(0, static_cast<int>(s.size()) - 1);
        const int j = rng.uniform_int(0, static_cast<int>(s.size()) - 1);
        std::swap(s[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(j)]);
      },
      opt);
  EXPECT_GT(res.initial_cost, 0.0);
  EXPECT_LT(res.best_cost, res.initial_cost * 0.1);
  EXPECT_DOUBLE_EQ(displacement_cost(state), res.best_cost);
}

TEST(SimulatedAnnealing, RespectsIterationCap) {
  std::vector<int> state{3, 2, 1, 0};
  search::SaOptions opt;
  opt.max_iters = 50;
  opt.time_limit_s = 100.0;
  const auto res = search::simulated_annealing(
      state, displacement_cost,
      [](std::vector<int>& s, common::Rng& rng) {
        std::swap(s[0], s[static_cast<std::size_t>(rng.uniform_int(1, 3))]);
      },
      opt);
  EXPECT_EQ(res.iters, 50);
}

TEST(SimulatedAnnealing, DeterministicUnderIterationCap) {
  auto run = [](std::uint64_t seed) {
    std::vector<int> state{5, 4, 3, 2, 1, 0};
    search::SaOptions opt;
    opt.max_iters = 2000;
    opt.time_limit_s = 100.0;
    opt.seed = seed;
    search::simulated_annealing(
        state, displacement_cost,
        [](std::vector<int>& s, common::Rng& rng) {
          const int i = rng.uniform_int(0, 5), j = rng.uniform_int(0, 5);
          std::swap(s[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(j)]);
        },
        opt);
    return state;
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(SimulatedAnnealing, NeverReturnsWorseThanInitial) {
  std::vector<int> state{0, 1, 2, 3};  // already optimal
  search::SaOptions opt;
  opt.max_iters = 5000;
  opt.time_limit_s = 100.0;
  const auto res = search::simulated_annealing(
      state, displacement_cost,
      [](std::vector<int>& s, common::Rng& rng) {
        const int i = rng.uniform_int(0, 3), j = rng.uniform_int(0, 3);
        std::swap(s[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(j)]);
      },
      opt);
  EXPECT_DOUBLE_EQ(res.best_cost, res.initial_cost);
  EXPECT_EQ(state, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Metropolis, MaxDeltaRejectsEveryLargerDelta) {
  // metropolis_max_delta turns the uniform a worsening move would be decided
  // by into the largest delta that draw could still accept. The SA chain
  // stops pricing a proposal once a lower bound on its delta exceeds it, so
  // every computed delta above it must be rejected with that u, whatever the
  // rounding of log, the division and exp — down to the schedule's 1e-300
  // temperature floor and into subnormal temperatures.
  using search::detail::metropolis_accepts_draw;
  using search::detail::metropolis_max_delta;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> temps;
  for (double t = 1e-300; t < 0.05 * 3.0; t *= 7.3) temps.push_back(t);
  temps.push_back(0.05 * 3.0);  // T0 of a 3-second plan
  const double subnormal_temps[] = {1e-310, 3e-320, std::numeric_limits<double>::denorm_min()};
  auto expect_rejects_above = [](double temp, double u) {
    const double md = metropolis_max_delta(temp, u);
    ASSERT_TRUE(std::isfinite(md)) << temp << " " << u;
    ASSERT_GT(md, 0.0) << temp << " " << u;
    double d = md;
    for (int k = 0; k < 4; ++k) {
      d = std::nextafter(d, kInf);
      EXPECT_FALSE(metropolis_accepts_draw(d, temp, u)) << "temp " << temp << " u " << u;
    }
    for (const double f : {1.0 + 1e-15, 1.0 + 1e-9, 1.001, 2.0, 1e3}) {
      EXPECT_FALSE(metropolis_accepts_draw(md * f, temp, u)) << "temp " << temp << " u " << u;
    }
  };
  for (const double u : {0x1p-53, 0.5, 1.0 - 0x1p-53}) {
    for (const double temp : temps) {
      expect_rejects_above(temp, u);
      // Not vacuous: where the cut is not dominated by the absolute margin,
      // a delta just under it is still accepted.
      if (u <= 0.5) {
        const double md = metropolis_max_delta(temp, u);
        EXPECT_TRUE(metropolis_accepts_draw(md * (1.0 - 1e-9), temp, u))
            << "temp " << temp << " u " << u;
      }
    }
    for (const double temp : subnormal_temps) expect_rejects_above(temp, u);
  }
  // The draws the chain actually makes: Rng::uniform's 53-bit grid.
  common::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    const double temp = temps[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(temps.size()) - 1))];
    if (u > 0.0) expect_rejects_above(temp, u);
  }
  // u = 0 accepts every delta up to exp()'s underflow: no bound.
  EXPECT_EQ(metropolis_max_delta(0.05, 0.0), kInf);
  EXPECT_EQ(metropolis_max_delta(1e-300, 0.0), kInf);
}

TEST(DeriveSeed, DeterministicAndKeySensitive) {
  EXPECT_EQ(search::derive_seed(13, "pp2·tp8·dp2-mb4"), search::derive_seed(13, "pp2·tp8·dp2-mb4"));
  EXPECT_NE(search::derive_seed(13, "pp2·tp8·dp2-mb4"), search::derive_seed(13, "pp2·tp8·dp2-mb2"));
  EXPECT_NE(search::derive_seed(13, "pp2·tp8·dp2-mb4"), search::derive_seed(14, "pp2·tp8·dp2-mb4"));
}

TEST(DeriveSeed, IndependentOfEvaluationOrder) {
  // The per-candidate seed is a pure function of (base, key): evaluating the
  // same candidates in any order — or on any thread — yields the same seeds,
  // hence the same annealing outcomes under an iteration cap.
  const std::vector<std::string> keys = {"a", "b", "c", "d"};
  std::vector<std::uint64_t> forward, backward;
  for (const auto& k : keys) forward.push_back(search::derive_seed(7, k));
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) backward.push_back(search::derive_seed(7, *it));
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(forward[i], forward[j]) << keys[i] << " vs " << keys[j];
    }
  }
}

namespace {

/// Draws one move, applies it to `m`, and returns its kind.
parallel::MoveKind draw_and_apply(parallel::Mapping& m, common::Rng& rng,
                                  const search::MoveSet& moves, int gpus_per_node) {
  const parallel::Move mv = search::draw_mapping_move(m, rng, moves, gpus_per_node);
  parallel::apply_move(m, mv, gpus_per_node);
  return mv.kind;
}

}  // namespace

TEST(MappingSearch, MovesCoverEnabledSetOnly) {
  common::Rng rng(3);
  parallel::Mapping m = parallel::Mapping::megatron_default({4, 2, 4});
  search::MoveSet only_swap;
  only_swap.migrate = only_swap.reverse = only_swap.node_swap = only_swap.node_reverse = false;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(draw_and_apply(m, rng, only_swap, 8), parallel::MoveKind::kSwap);
  }
  EXPECT_TRUE(m.is_valid_permutation());
}

TEST(MappingSearch, EmptyMoveSetFallsBackToSwap) {
  common::Rng rng(4);
  parallel::Mapping m(parallel::ParallelConfig{2, 2, 2});
  search::MoveSet none;
  none.migrate = none.swap = none.reverse = none.node_swap = none.node_reverse = false;
  EXPECT_EQ(draw_and_apply(m, rng, none, 8), parallel::MoveKind::kSwap);
  EXPECT_TRUE(m.is_valid_permutation());
}

TEST(MappingSearch, EndpointsAreDrawnOverTheWholeRange) {
  // Paper §IV: a move's endpoints may lie anywhere in the string, and a node
  // move's anywhere among the node labels. 32 workers on 4 nodes of 8.
  const parallel::Mapping m = parallel::Mapping::megatron_default({4, 2, 4});
  common::Rng rng(99);
  int widest_string = 0, widest_node = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto mv = search::draw_mapping_move(m, rng, {}, 8);
    const bool node_move =
        mv.kind == parallel::MoveKind::kNodeSwap || mv.kind == parallel::MoveKind::kNodeReverse;
    const int hi = node_move ? 3 : 31;
    ASSERT_GE(std::min(mv.a, mv.b), 0);
    ASSERT_LE(std::max(mv.a, mv.b), hi);
    int& widest = node_move ? widest_node : widest_string;
    widest = std::max(widest, std::abs(mv.a - mv.b));
  }
  EXPECT_EQ(widest_string, 31);
  EXPECT_EQ(widest_node, 3);
}

TEST(MappingSearch, NodeOnlyMovesOnSingleNodeClusterFallBackToSwap) {
  // Regression: with only node moves enabled and fewer than two nodes, the
  // retry loop used to spin forever — every draw landed on a disabled or
  // impossible case. It must fall back to swap like the empty set does.
  common::Rng rng(11);
  parallel::Mapping m(parallel::ParallelConfig{2, 2, 2});  // 8 workers, 1 node of 8
  search::MoveSet node_only;
  node_only.migrate = node_only.swap = node_only.reverse = false;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(draw_and_apply(m, rng, node_only, 8), parallel::MoveKind::kSwap);
  }
  EXPECT_TRUE(m.is_valid_permutation());
  // On a two-node cluster the same move set draws real node moves again.
  common::Rng rng2(12);
  parallel::Mapping m2 = parallel::Mapping::megatron_default({2, 2, 4});  // 16 workers
  bool saw_node_move = false;
  for (int i = 0; i < 50; ++i) {
    const auto kind = draw_and_apply(m2, rng2, node_only, 8);
    saw_node_move = saw_node_move || kind == parallel::MoveKind::kNodeSwap ||
                    kind == parallel::MoveKind::kNodeReverse;
    EXPECT_NE(kind, parallel::MoveKind::kMigrate);
    EXPECT_NE(kind, parallel::MoveKind::kReverse);
  }
  EXPECT_TRUE(saw_node_move);
  EXPECT_TRUE(m2.is_valid_permutation());
}

TEST(MappingSearch, OptimizeMappingImprovesHeterogeneousPlacement) {
  // On a strongly heterogeneous 8-node cluster, node-level dedication must
  // find a strictly better estimate than the default order.
  cluster::Topology topo(cluster::mid_range_cluster(16), cluster::HeterogeneityOptions{}, 12345);
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  const parallel::TrainPlan plan{{8, 2, 8}, 2};
  const auto& pc = plan.pc;
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  auto m = parallel::Mapping::megatron_default(pc);
  const double before = model.estimate(m);
  search::SaOptions opt;
  opt.time_limit_s = 1.0;
  opt.max_iters = 40000;
  const auto res = search::optimize_mapping(m, model, topo.gpus_per_node(), opt);
  EXPECT_TRUE(m.is_valid_permutation());
  EXPECT_LE(res.best_cost, before);
  EXPECT_DOUBLE_EQ(model.estimate(m), res.best_cost);
  EXPECT_LT(res.best_cost, before * 0.995) << "SA found no improvement at all";
}

TEST(MappingSearch, SaStatsAreConsistent) {
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 6);
  const model::TrainingJob job{model::gpt_774m(), 64};
  const parallel::TrainPlan plan{{2, 2, 4}, 2};
  const auto& pc = plan.pc;
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
  auto m = parallel::Mapping::megatron_default(pc);
  search::SaOptions opt;
  opt.max_iters = 3000;
  opt.time_limit_s = 100.0;
  const auto res = search::optimize_mapping(m, model, topo.gpus_per_node(), opt);
  EXPECT_EQ(res.iters, 3000);
  EXPECT_GE(res.accepted, 0);
  EXPECT_LE(res.accepted, res.iters);
  EXPECT_GT(res.wall_s, 0.0);
}

TEST(SimulatedAnnealing, TimedRunsTerminateWithBatchedDeadlineChecks) {
  // The deadline is only checked at each temperature step (every
  // search::kItersPerTemp proposals); a timed run must still stop promptly
  // and report a wall time past the limit.
  std::vector<int> state(16);
  std::iota(state.begin(), state.end(), 0);
  std::reverse(state.begin(), state.end());
  search::SaOptions opt;
  opt.time_limit_s = 0.05;
  const auto res = search::simulated_annealing(
      state, displacement_cost,
      [](std::vector<int>& s, common::Rng& rng) {
        const int i = rng.uniform_int(0, static_cast<int>(s.size()) - 1);
        const int j = rng.uniform_int(0, static_cast<int>(s.size()) - 1);
        std::swap(s[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(j)]);
      },
      opt);
  EXPECT_GE(res.wall_s, opt.time_limit_s);
  EXPECT_LT(res.wall_s, 5.0) << "timed run overshot the deadline wildly";
  EXPECT_GT(res.iters, 0);
}

TEST(ResumableAnneal, SplitRunsAreBitIdenticalToOneShot) {
  // The property successive halving rests on: annealing to 5000 iterations in
  // four uneven resume steps is the same computation as one uninterrupted
  // run, and both follow the copy-based generic annealer over the full model
  // at the same budget.
  cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 99);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{4, 2, 4}, 2};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
  const int gpn = topo.gpus_per_node();

  search::SaOptions opt;
  opt.time_limit_s = std::numeric_limits<double>::infinity();
  opt.seed = search::derive_seed(7, plan.str());
  opt.max_iters = 5000;

  auto m_ref = parallel::Mapping::megatron_default(plan.pc);
  const auto ref = search::simulated_annealing(
      m_ref, [&model](const parallel::Mapping& s) { return model.estimate(s); },
      [gpn](parallel::Mapping& s, common::Rng& rng) {
        parallel::apply_move(s, search::draw_mapping_move(s, rng, {}, gpn), gpn);
      },
      opt);

  const auto start = parallel::Mapping::megatron_default(plan.pc);
  search::ResumableMappingAnneal chain(model, start, gpn, opt);
  search::AnnealTelemetry telem;
  chain.set_telemetry(&telem);
  for (const long target : {137L, 1000L, 1000L /* no-op: already past */, 4999L, 5000L}) {
    chain.run_to(target);
  }
  EXPECT_GT(telem.total_bounded(), 0)
      << "no proposal stopped on its Metropolis bound: the match below would not cover stops";
  EXPECT_EQ(chain.total_iters(), 5000);
  EXPECT_EQ(chain.accepted(), ref.accepted);
  EXPECT_DOUBLE_EQ(chain.initial_cost(), ref.initial_cost);
  EXPECT_DOUBLE_EQ(chain.best_cost(), ref.best_cost);
  EXPECT_EQ(chain.best_mapping().raw(), m_ref.raw());

  search::ResumableMappingAnneal oneshot(model, start, gpn, opt);
  oneshot.run_to(5000);
  EXPECT_DOUBLE_EQ(oneshot.best_cost(), chain.best_cost());
  EXPECT_EQ(oneshot.best_mapping().raw(), chain.best_mapping().raw());
}

TEST(ResumableAnneal, ResumingStrictlyExtendsTheRun) {
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 5);
  const model::TrainingJob job{model::gpt_774m(), 64};
  const parallel::TrainPlan plan{{2, 2, 4}, 2};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  search::SaOptions opt;
  opt.time_limit_s = std::numeric_limits<double>::infinity();
  search::ResumableMappingAnneal chain(model, parallel::Mapping::megatron_default(plan.pc),
                                       topo.gpus_per_node(), opt);
  chain.run_to(400);
  const double cost_at_400 = chain.best_cost();
  chain.run_to(4000);
  EXPECT_EQ(chain.total_iters(), 4000);
  EXPECT_LE(chain.best_cost(), cost_at_400) << "best cost is monotone in the budget";
  EXPECT_DOUBLE_EQ(model.estimate(chain.best_mapping()), chain.best_cost());
}

TEST(ResumableAnneal, RejectsANodeWidthThatIsNotTheFabrics) {
  // Node moves relabel whole nodes of the profiled fabric (4 nodes of 8
  // GPUs). Any other block width would anneal over blocks that are not
  // nodes, so the chain, and optimize_mapping through it, refuses it.
  cluster::Topology topo(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 99);
  ASSERT_EQ(topo.gpus_per_node(), 8);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{4, 2, 4}, 2};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
  const auto start = parallel::Mapping::megatron_default(plan.pc);

  search::SaOptions opt;
  opt.time_limit_s = std::numeric_limits<double>::infinity();
  opt.max_iters = 100;
  for (const int gpn : {4, 16}) {
    EXPECT_THROW((void)search::ResumableMappingAnneal(model, start, gpn, opt),
                 std::invalid_argument)
        << "gpus_per_node " << gpn;
    auto m = start;
    EXPECT_THROW(search::optimize_mapping(m, model, gpn, opt), std::invalid_argument)
        << "gpus_per_node " << gpn;
    EXPECT_EQ(m, start) << "a refused run leaves the mapping alone";
  }
  auto m = start;
  EXPECT_EQ(search::optimize_mapping(m, model, topo.gpus_per_node(), opt).iters, 100);
}
