#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/hashing.h"
#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "engine/thread_pool.h"
#include "estimators/latency_models.h"
#include "model/gpt_zoo.h"
#include "search/mapping_search.h"

using namespace pipette;

namespace {

cluster::Topology small_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, seed);
}

core::PipetteOptions fast_pipette(bool dedication) {
  core::PipetteOptions opt;
  opt.use_worker_dedication = dedication;
  opt.memory_training.hidden = {64, 64};
  opt.memory_training.train.iters = 4000;
  opt.memory_training.max_profile_nodes = 3;
  opt.memory_training.profile_global_batches = {128};
  opt.memory_training.soft_margin = 0.12;  // small test-profile net: widen margin
  return opt;
}

}  // namespace

TEST(AmpConfigurator, RankingSortedByItsOwnModel) {
  auto topo = small_cluster();
  core::AmpConfigurator amp;
  const auto res = amp.configure(topo, {model::gpt_1_1b(), 128});
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.method, "AMP");
  for (std::size_t i = 1; i < res.ranking.size(); ++i) {
    EXPECT_LE(res.ranking[i - 1].predicted_s, res.ranking[i].predicted_s);
  }
  EXPECT_EQ(res.best, res.ranking.front().cand);
  EXPECT_EQ(res.candidates_rejected_oom, 0) << "AMP performs no memory check";
}

TEST(VarunaConfigurator, PipelineOnly) {
  auto topo = small_cluster();
  core::VarunaConfigurator vr;
  const auto res = vr.configure(topo, {model::gpt_1_1b(), 128});
  ASSERT_TRUE(res.found);
  for (const auto& r : res.ranking) EXPECT_EQ(r.cand.pc.tp, 1) << r.cand.str();
}

TEST(MegatronHeuristic, FixesTpToNodeWidthAndIsRunnable) {
  auto topo = small_cluster();
  core::MegatronHeuristic mlm;
  const auto res = mlm.configure(topo, {model::gpt_1_1b(), 128});
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best.pc.tp, 8);
  // The expert only reports configurations that survived an actual trial.
  const auto run = core::run_actual(topo, {model::gpt_1_1b(), 128}, res.best,
                                    *res.mapping, {});
  EXPECT_FALSE(run.oom);
  EXPECT_NEAR(run.time_s, res.predicted_s, run.time_s * 0.05)
      << "MLM 'prediction' is a measured trial";
}

TEST(PipetteConfigurator, MemoryFilterRejectsAndResultRunnable) {
  auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 128};  // memory-tight on V100
  core::PipetteConfigurator ppt(fast_pipette(false));
  const auto res = ppt.configure(topo, job);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.candidates_rejected_oom, 0);
  EXPECT_GT(res.candidates_evaluated, res.candidates_rejected_oom);
  const auto run = core::run_actual(topo, job, res.best, *res.mapping, {});
  EXPECT_FALSE(run.oom) << "memory estimator admitted an OOM configuration";
  EXPECT_LE(run.mem.total_bytes, topo.spec().gpu_memory_bytes);
}

TEST(PipetteConfigurator, DedicationNeverWorsensItsOwnObjective) {
  auto topo = small_cluster(77);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  auto opt_l = fast_pipette(false);
  auto opt_lf = fast_pipette(true);
  core::PipetteConfigurator ppt_l(opt_l);
  core::PipetteConfigurator ppt_lf(opt_lf);
  const auto rl = ppt_l.configure(topo, job);
  const auto rlf = ppt_lf.configure(topo, job);
  ASSERT_TRUE(rl.found);
  ASSERT_TRUE(rlf.found);
  EXPECT_EQ(rl.method, "PPT-L");
  EXPECT_EQ(rlf.method, "PPT-LF");
  EXPECT_LE(rlf.predicted_s, rl.predicted_s * 1.0001);
  EXPECT_GT(rlf.search_wall_s, 0.0);
}

TEST(PipetteConfigurator, SharedMemoryEstimatorSkipsRetraining) {
  auto topo = small_cluster();
  auto opt = fast_pipette(false);
  core::PipetteConfigurator first(opt);
  const auto r1 = first.configure(topo, {model::gpt_774m(), 128});
  EXPECT_GT(r1.mem_train_wall_s, 0.0);

  auto opt2 = fast_pipette(false);
  opt2.memory = r1.memory_estimator;
  core::PipetteConfigurator second(opt2);
  const auto r2 = second.configure(topo, {model::gpt_774m(), 128});
  EXPECT_DOUBLE_EQ(r2.mem_train_wall_s, 0.0);
  EXPECT_EQ(r1.best, r2.best);
}

TEST(RunActual, DetectsOom) {
  auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  // tp=1, pp=1 cannot hold 3.1B on a 32 GB V100.
  const core::Candidate bad{{1, 1, 32}, 8};
  const auto run = core::run_actual(topo, job, bad,
                                    parallel::Mapping::megatron_default(bad.pc), {});
  EXPECT_TRUE(run.oom);
}

TEST(ExecuteWithOomFallback, WalksRankingLikeThePaper) {
  auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  core::ConfiguratorResult rec;
  rec.method = "synthetic";
  rec.found = true;
  rec.best = core::Candidate{{1, 1, 32}, 8};  // OOM
  rec.mapping = parallel::Mapping::megatron_default(rec.best.pc);
  rec.ranking = {
      {core::Candidate{{1, 1, 32}, 8}, 1.0},   // OOM
      {core::Candidate{{2, 1, 16}, 8}, 2.0},   // OOM (3.1B / 2 stages, tp=1)
      {core::Candidate{{4, 8, 1}, 4}, 3.0},    // runnable
  };
  const auto out = core::execute_with_oom_fallback(topo, job, rec, {});
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.executed, rec.ranking[2].cand);
  EXPECT_EQ(out.attempts, 3);
}

TEST(ExecuteWithOomFallback, RespectsMaxAttempts) {
  auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  core::ConfiguratorResult rec;
  rec.found = true;
  rec.best = core::Candidate{{1, 1, 32}, 8};
  rec.mapping = parallel::Mapping::megatron_default(rec.best.pc);
  rec.ranking = {{core::Candidate{{1, 1, 32}, 8}, 1.0},
                 {core::Candidate{{1, 2, 16}, 8}, 2.0},
                 {core::Candidate{{4, 8, 1}, 4}, 3.0}};
  const auto out = core::execute_with_oom_fallback(topo, job, rec, {}, /*max_attempts=*/2);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts, 2);
}

TEST(ExecuteWithOomFallback, NotFoundPropagates) {
  auto topo = small_cluster();
  core::ConfiguratorResult rec;  // found == false
  const auto out = core::execute_with_oom_fallback(topo, {model::gpt_774m(), 64}, rec, {});
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts, 0);
}

namespace {

/// Iteration-capped options so results are schedule-independent and
/// comparable bit for bit.
core::PipetteOptions capped_pipette(bool dedication) {
  core::PipetteOptions opt = fast_pipette(dedication);
  opt.sa.max_iters = 1500;
  return opt;
}

void expect_same_recommendation(const core::ConfiguratorResult& a,
                                const core::ConfiguratorResult& b) {
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.predicted_s, b.predicted_s);
  ASSERT_EQ(a.mapping.has_value(), b.mapping.has_value());
  if (a.mapping) {
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

std::vector<core::RankedChoice> toy_ranking() {
  return {{core::Candidate{{4, 2, 4}, 2}, 1.0},
          {core::Candidate{{2, 4, 4}, 2}, 2.0},
          {core::Candidate{{8, 1, 4}, 2}, 3.0}};
}

}  // namespace

TEST(PromoteWinner, WinnerAlreadyAtHeadOnlyRestampsCost) {
  auto ranking = toy_ranking();
  EXPECT_TRUE(core::promote_winner(ranking, ranking.front().cand, 0.5));
  EXPECT_EQ(ranking[0].cand, (core::Candidate{{4, 2, 4}, 2}));
  EXPECT_DOUBLE_EQ(ranking[0].predicted_s, 0.5);
  EXPECT_EQ(ranking[1].cand, (core::Candidate{{2, 4, 4}, 2}));
  EXPECT_EQ(ranking[2].cand, (core::Candidate{{8, 1, 4}, 2}));
}

TEST(PromoteWinner, MidRankingWinnerRotatesToFrontPreservingOrder) {
  auto ranking = toy_ranking();
  EXPECT_TRUE(core::promote_winner(ranking, ranking[1].cand, 1.7));
  EXPECT_EQ(ranking[0].cand, (core::Candidate{{2, 4, 4}, 2}));
  EXPECT_DOUBLE_EQ(ranking[0].predicted_s, 1.7);
  // The displaced entries keep their relative preference order.
  EXPECT_EQ(ranking[1].cand, (core::Candidate{{4, 2, 4}, 2}));
  EXPECT_DOUBLE_EQ(ranking[1].predicted_s, 1.0);
  EXPECT_EQ(ranking[2].cand, (core::Candidate{{8, 1, 4}, 2}));
  EXPECT_DOUBLE_EQ(ranking[2].predicted_s, 3.0);
}

TEST(PromoteWinner, TruncatedOutWinnerLeavesRankingUntouched) {
  auto ranking = toy_ranking();
  const auto before = ranking;
  EXPECT_FALSE(core::promote_winner(ranking, core::Candidate{{1, 8, 4}, 2}, 0.1));
  ASSERT_EQ(ranking.size(), before.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking[i].cand, before[i].cand) << i;
    EXPECT_DOUBLE_EQ(ranking[i].predicted_s, before[i].predicted_s) << i;
  }
}

TEST(PipetteConfigurator, SuccessiveHalvingExploresFewerMovesThanLegacy) {
  auto topo = small_cluster(12);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  auto halve = capped_pipette(true);
  // Algorithm 1's allocation as a race: rung 0 already grants every
  // surviving candidate the full budget.
  auto alg1 = halve;
  alg1.sa_halving.rung0_iters = alg1.sa.max_iters;
  alg1.memory = nullptr;

  core::PipetteConfigurator h(halve);
  const auto rh = h.configure(topo, job);
  alg1.memory = rh.memory_estimator;
  core::PipetteConfigurator l(alg1);
  const auto rl = l.configure(topo, job);
  ASSERT_TRUE(rh.found);
  ASSERT_TRUE(rl.found);
  EXPECT_GT(rh.sa_rungs, 1);
  EXPECT_EQ(rl.sa_iters, static_cast<long>(rl.ranking.size()) * alg1.sa.max_iters)
      << "the Algorithm-1 arm anneals every surviving candidate at the full budget";
  EXPECT_LT(rh.sa_iters, rl.sa_iters / 2)
      << "halving must explore far fewer total moves at the same full budget";
  // The racing winner's objective must stay competitive with the Algorithm-1
  // winner's (identical here is common but not guaranteed; bound the gap).
  EXPECT_LE(rh.predicted_s, rl.predicted_s * 1.05);
}

TEST(PipetteConfigurator, AlgorithmOneRaceMatchesPerCandidateReference) {
  // rung0_iters = max_iters is Algorithm 1's allocation: every ranked
  // candidate anneals the full budget. Reference: PPT-L's ranking under the
  // same estimator and bandwidth snapshot, an independent optimize_mapping
  // per candidate seeded from the candidate, and the lowest cost with ties
  // to the better rank.
  auto topo = small_cluster(12);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  auto base = capped_pipette(true);
  base.profile_snapshot =
      std::make_shared<const cluster::ProfileResult>(cluster::profile_network(topo, base.profile));
  auto pptl_opt = base;
  pptl_opt.use_worker_dedication = false;
  core::PipetteConfigurator pptl(pptl_opt);
  const auto ranked = pptl.configure(topo, job);
  ASSERT_TRUE(ranked.found);
  ASSERT_LT(ranked.ranking.size(), static_cast<std::size_t>(core::kRankingSize))
      << "the ranking must hold every candidate the race runs";
  base.memory = ranked.memory_estimator;
  const auto links = estimators::LinkConstants::from_spec(topo.spec());

  double best_cost = std::numeric_limits<double>::infinity();
  core::Candidate best;
  std::optional<parallel::Mapping> best_mapping;
  long iters = 0;
  for (const core::RankedChoice& choice : ranked.ranking) {
    const core::Candidate& cand = choice.cand;
    const auto prof = estimators::profile_compute(topo, job, cand, base.compute_profile);
    const estimators::PipetteLatencyModel model(job, cand, prof, &base.profile_snapshot->bw,
                                                links);
    search::SaOptions sa = base.sa;
    sa.seed = search::derive_seed(base.sa.seed, cand.str());
    auto m = parallel::Mapping::megatron_default(cand.pc);
    const auto r = search::optimize_mapping(m, model, topo.gpus_per_node(), sa, base.moves);
    iters += r.iters;
    if (r.best_cost < best_cost) {
      best_cost = r.best_cost;
      best = cand;
      best_mapping = m;
    }
  }

  auto opt = base;
  opt.sa_halving.rung0_iters = opt.sa.max_iters;
  core::PipetteConfigurator ppt(opt);
  const auto res = ppt.configure(topo, job);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best, best);
  EXPECT_EQ(res.predicted_s, best_cost) << "predicted_s must match bit for bit";
  ASSERT_TRUE(res.mapping.has_value());
  EXPECT_EQ(*res.mapping, *best_mapping);
  EXPECT_EQ(res.sa_iters, iters);
}

TEST(PipetteConfigurator, DefaultOptionsAreBitIdenticalSeriallyAndOnAPool) {
  // The library default is iteration-budgeted (20,000 per candidate, no
  // per-chain wall clock), so default options alone make the recommendation
  // a pure function of the request.
  const cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{},
                               2024);
  const model::TrainingJob job{model::gpt_774m(), 128};
  core::PipetteOptions opt;
  EXPECT_EQ(opt.sa.max_iters, 20000);
  opt.memory_training.hidden = {32, 32};
  opt.memory_training.train.iters = 2000;

  core::PipetteConfigurator serial(opt);
  const auto ref = serial.configure(topo, job);
  engine::ThreadPool pool(4);
  auto popt = opt;
  popt.executor = &pool;
  core::PipetteConfigurator pooled(popt);
  const auto got = pooled.configure(topo, job);
  expect_same_recommendation(ref, got);
  EXPECT_EQ(ref.predicted_s, got.predicted_s);
  EXPECT_EQ(ref.sa_iters, got.sa_iters);
  EXPECT_GT(ref.sa_rungs, 1) << "the default allocator is the halving race";
  EXPECT_EQ(ref.sa_iters, ref.sa_iters_granted) << "an iteration budget is spent in full";
}

TEST(PipetteConfigurator, RejectsSaBudgetsTheRaceCannotRun) {
  // Each case breaks one option the SA allocator depends on. Before
  // validation, sa.max_iters = -5 returned an ok plan with SA silently
  // skipped and a negative granted budget; the uncapped sentinel would
  // overflow the race's grant sum.
  using limits = std::numeric_limits<double>;
  using Opt = core::PipetteOptions;
  struct Case {
    const char* field;
    void (*corrupt)(Opt&);
  };
  const Case cases[] = {
      {"sa.max_iters", [](Opt& o) { o.sa.max_iters = -5; }},
      {"sa.max_iters", [](Opt& o) { o.sa.max_iters = 0; }},
      {"sa.max_iters", [](Opt& o) { o.sa.max_iters = std::numeric_limits<long>::max(); }},
      {"sa_halving.rung0_iters", [](Opt& o) { o.sa_halving.rung0_iters = -100; }},
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
      // The memory estimator's network and training options, named by
      // mlp::validate: a standalone configure() profiled the fabric and built
      // the training set before the Regressor threw.
      {"Regressor: hidden", [](Opt& o) { o.memory_training.hidden = {0}; }},
      {"TrainOptions::iters", [](Opt& o) { o.memory_training.train.iters = 0; }},
      {"TrainOptions::lr", [](Opt& o) { o.memory_training.train.lr = limits::quiet_NaN(); }},
  };
  const cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{},
                               2024);
  const model::TrainingJob job{model::gpt_774m(), 128};
  ASSERT_EQ(core::validate(core::PipetteOptions{}), "");
  ASSERT_EQ(core::validate(fast_pipette(true)), "");
  for (const Case& c : cases) {
    auto opt = fast_pipette(true);
    c.corrupt(opt);
    const std::string reason = core::validate(opt);
    EXPECT_EQ(reason.rfind(c.field, 0), 0u) << c.field << ": " << reason;
    core::PipetteConfigurator ppt(opt);
    try {
      ppt.configure(topo, job);
      ADD_FAILURE() << c.field << ": configure() accepted an unusable SA budget";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), reason);
    }
  }
  auto uncapped = fast_pipette(true);
  uncapped.sa.max_iters = std::numeric_limits<long>::max();
  EXPECT_NE(core::validate(uncapped).find("deadline_s"), std::string::npos)
      << "the rejection must point at the wall-clock bound";
}

TEST(PipetteConfigurator, RejectsMalformedClusterSpecs) {
  // The ten malformed 2-node mid-range specs the service rejects before
  // admission; configure() throws the same reason instead of crashing
  // (gpus_per_node = 0), returning a plan priced on impossible links, or
  // failing deep inside profiling.
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
  const model::TrainingJob job{model::gpt_774m(), 128};
  core::PipetteConfigurator ppt(fast_pipette(true));
  for (const Case& c : cases) {
    cluster::ClusterSpec spec = cluster::mid_range_cluster(2);
    c.corrupt(spec);
    const std::string reason = cluster::validate(spec);
    EXPECT_EQ(reason.rfind(std::string(c.field) + " ", 0), 0u) << c.field << ": " << reason;
    const cluster::Topology topo(spec, cluster::HeterogeneityOptions{}, 2024);
    try {
      ppt.configure(topo, job);
      ADD_FAILURE() << c.field << ": configure() accepted a malformed cluster spec";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), reason);
    }
  }
  // Zero latencies and context bytes are usable; negative ones are not.
  cluster::ClusterSpec edge = cluster::mid_range_cluster(2);
  edge.intra_node.latency_s = 0.0;
  edge.cuda_context_bytes = 0.0;
  EXPECT_EQ(cluster::validate(edge), "");
  edge.inter_node.latency_s = -1e-6;
  EXPECT_EQ(cluster::validate(edge).rfind("inter_node.latency_s ", 0), 0u);
}

TEST(PipetteConfigurator, GoldenRecommendationDigests) {
  // Pins recommendations across commits, not just self-consistency: each row
  // is a default-options request (small memory net, a few thousand SA
  // iterations per candidate) whose plan, predicted_s bits, mapping digest
  // and SA iteration count were recorded by running this test. A change that
  // is meant to keep every recommendation bit-identical must leave the table
  // alone; one that changes plans on purpose re-records it and says so.
  struct Golden {
    bool high_end;
    int nodes;
    model::TransformerConfig (*model)();
    int global_batch;
    const char* plan;
    std::uint64_t predicted_bits;
    std::uint64_t mapping_digest;
    long sa_iters;
  };
  const Golden table[] = {
      {false, 2, model::gpt_774m, 128, "pp1-tp1-dp16-mb8-rcsel-z1", 0x3ff196c54179901dull,
       0x6c6d71adf036446dull, 11980},
      {false, 4, model::gpt_1_1b, 256, "pp2-tp1-dp16-mb4-i2-rcsel-z1", 0x3ffb46b762ca075dull,
       0x0394a6b656a3aafaull, 13636},
      {false, 8, model::gpt_3_1b, 512, "pp4-tp2-dp8-mb4-rcsel-z1", 0x40128e2c53b4b7f7ull,
       0x1c339b185290b5f4ull, 20533},
      {true, 2, model::gpt_2_2b, 128, "pp2-tp1-dp8-mb8-i2-rcsel-z1", 0x3ff44d879a4677caull,
       0x630df9f75b7414c6ull, 13659},
      {true, 4, model::gpt_8_1b, 256, "pp4-tp2-dp4-mb8-i2-rcsel-z1", 0x4010d11875c5d81full,
       0xcc6df2a93b1a7c32ull, 11096},
      {true, 8, model::gpt_11_1b, 512, "pp4-tp1-dp16-mb2-i2-rcsel-z1", 0x4018f7c5439b9f94ull,
       0xf2d217a827130435ull, 14371},
  };
  bool tp1 = false, tp_multi = false;
  for (const Golden& g : table) {
    const cluster::ClusterSpec spec =
        g.high_end ? cluster::high_end_cluster(g.nodes) : cluster::mid_range_cluster(g.nodes);
    const cluster::Topology topo(spec, cluster::HeterogeneityOptions{}, 2024);
    const model::TrainingJob job{g.model(), g.global_batch};
    core::PipetteOptions opt;
    opt.sa.max_iters = 3000;
    opt.memory_training.hidden = {32, 32};
    opt.memory_training.train.iters = 2000;
    opt.memory_training.soft_margin = 0.12;
    core::PipetteConfigurator ppt(opt);
    const auto res = ppt.configure(topo, job);
    const std::string ctx = spec.name + " x" + std::to_string(g.nodes) + " " + job.model.name;
    ASSERT_TRUE(res.found) << ctx;
    ASSERT_TRUE(res.mapping.has_value()) << ctx;
    std::uint64_t digest = 0;
    for (const int gpu : res.mapping->raw()) {
      digest = common::hash_combine(digest, static_cast<std::uint64_t>(gpu));
    }
    const auto bits = std::bit_cast<std::uint64_t>(res.predicted_s);
    // On a mismatch, print the row as it would be re-recorded.
    char row[256];
    std::snprintf(row, sizeof row, "%s: \"%s\", 0x%016llxull, 0x%016llxull, %ld", ctx.c_str(),
                  res.best.str().c_str(), static_cast<unsigned long long>(bits),
                  static_cast<unsigned long long>(digest), res.sa_iters);
    EXPECT_EQ(res.best.str(), g.plan) << row;
    EXPECT_EQ(bits, g.predicted_bits) << row;
    EXPECT_EQ(digest, g.mapping_digest) << row;
    EXPECT_EQ(res.sa_iters, g.sa_iters) << row;
    (res.best.pc.tp == 1 ? tp1 : tp_multi) = true;
  }
  EXPECT_TRUE(tp1) << "the table must pin a tp = 1 winner";
  EXPECT_TRUE(tp_multi) << "the table must pin a tp >= 2 winner";
}
