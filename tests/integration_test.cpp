// End-to-end reproduction of the paper's evaluation pipeline at test scale:
// a 4-node heterogeneous cluster, all five methods (MLM, VR, AMP, PPT-L,
// PPT-LF) configuring and executing, plus the estimator-accuracy and
// memory-accuracy claims in miniature.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "estimators/analytic_memory.h"
#include "model/gpt_zoo.h"

using namespace pipette;

namespace {

struct Fixture {
  cluster::Topology topo{cluster::mid_range_cluster(4), cluster::HeterogeneityOptions{}, 2024};
  model::TrainingJob job{model::gpt_1_1b(), 256};
  sim::SimOptions sim_opt;
};

core::PipetteOptions fast_opts(bool dedication) {
  core::PipetteOptions opt;
  opt.use_worker_dedication = dedication;
  opt.memory_training.hidden = {64, 64};
  opt.memory_training.train.iters = 3000;
  opt.memory_training.max_profile_nodes = 2;
  opt.memory_training.profile_global_batches = {128, 256};
  return opt;
}

}  // namespace

TEST(Integration, AllMethodsProduceRunnableOutcomes) {
  Fixture f;
  std::vector<core::ExecutedOutcome> outcomes;

  core::MegatronHeuristic mlm;
  outcomes.push_back(core::execute_with_oom_fallback(f.topo, f.job, mlm.configure(f.topo, f.job),
                                                     f.sim_opt));
  core::VarunaConfigurator vr;
  outcomes.push_back(core::execute_with_oom_fallback(f.topo, f.job, vr.configure(f.topo, f.job),
                                                     f.sim_opt));
  core::AmpConfigurator amp;
  outcomes.push_back(core::execute_with_oom_fallback(f.topo, f.job, amp.configure(f.topo, f.job),
                                                     f.sim_opt));
  core::PipetteConfigurator ppt_l(fast_opts(false));
  outcomes.push_back(core::execute_with_oom_fallback(f.topo, f.job,
                                                     ppt_l.configure(f.topo, f.job), f.sim_opt));
  core::PipetteConfigurator ppt_lf(fast_opts(true));
  outcomes.push_back(core::execute_with_oom_fallback(f.topo, f.job,
                                                     ppt_lf.configure(f.topo, f.job), f.sim_opt));

  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.success) << o.method;
    EXPECT_GT(o.run.time_s, 0.0) << o.method;
    EXPECT_FALSE(o.run.oom) << o.method;
  }

  // The paper's headline ordering at test scale: Pipette is never worse than
  // the pipeline-only baseline, and PPT-LF is the best Pipette variant.
  const double t_vr = outcomes[1].run.time_s;
  const double t_ppt_l = outcomes[3].run.time_s;
  const double t_ppt_lf = outcomes[4].run.time_s;
  EXPECT_LE(t_ppt_l, t_vr * 1.02);
  EXPECT_LE(t_ppt_lf, t_ppt_l * 1.02);
}

TEST(Integration, PipetteBeatsOrMatchesEveryBaseline) {
  Fixture f;
  core::PipetteConfigurator ppt(fast_opts(true));
  const auto ppt_out =
      core::execute_with_oom_fallback(f.topo, f.job, ppt.configure(f.topo, f.job), f.sim_opt);
  ASSERT_TRUE(ppt_out.success);

  core::MegatronHeuristic mlm;
  const auto mlm_out =
      core::execute_with_oom_fallback(f.topo, f.job, mlm.configure(f.topo, f.job), f.sim_opt);
  ASSERT_TRUE(mlm_out.success);

  // MLM's trials make it strong; Pipette must at least match it closely and
  // typically win thanks to finer (tp, micro) choices and dedication.
  EXPECT_LE(ppt_out.run.time_s, mlm_out.run.time_s * 1.05);
}

TEST(Integration, Fig5bShape_BaselinesRecommendOomPipetteDoesNot) {
  Fixture f;
  f.job = {model::gpt_3_1b(), 256};  // memory-tight on 32 GB V100s

  auto count_oom_in_top = [&](const core::ConfiguratorResult& rec, int k) {
    int oom = 0, considered = 0;
    for (const auto& r : rec.ranking) {
      if (considered >= k) break;
      ++considered;
      const auto mapping = parallel::Mapping::megatron_default(r.cand.pc);
      if (core::run_actual(f.topo, f.job, r.cand, mapping, f.sim_opt).oom) ++oom;
    }
    return oom;
  };

  core::AmpConfigurator amp;
  const int amp_oom = count_oom_in_top(amp.configure(f.topo, f.job), 5);
  core::PipetteConfigurator ppt(fast_opts(false));
  const int ppt_oom = count_oom_in_top(ppt.configure(f.topo, f.job), 5);

  EXPECT_GT(amp_oom, 0) << "AMP's memory-blind ranking should contain OOM configs";
  EXPECT_LE(ppt_oom, 1) << "Pipette's memory filter should keep the ranking runnable";
  EXPECT_LT(ppt_oom, amp_oom);
}

TEST(Integration, Fig7Shape_MemoryEstimatorAccuracy) {
  Fixture f;
  estimators::MlpMemoryOptions mopt;
  mopt.max_profile_nodes = 2;
  // The v2 feature vector (plan axes + seq len) needs a little more net than
  // the 10-input original at this test scale; 96x96 extrapolates reliably.
  mopt.hidden = {96, 96};
  mopt.train.iters = 6000;
  mopt.profile_global_batches = {128, 256};
  const auto mlp = estimators::MlpMemoryEstimator::train_for_cluster(
      f.topo, {model::gpt_774m(), model::gpt_1_1b(), model::gpt_3_1b()}, mopt);

  std::vector<double> est_mlp, est_analytic, actual;
  for (const auto& mcfg : {model::gpt_1_1b(), model::gpt_3_1b()}) {
    const model::TrainingJob job{mcfg, 256};
    for (const auto& pc : parallel::enumerate_parallel_configs(32, 8, mcfg.num_layers, {})) {
      for (int micro : parallel::micro_batch_options(256, pc, {})) {
        const parallel::TrainPlan plan{pc, micro};
        const auto mem =
            sim::simulate_peak_memory(f.topo.spec(), job, plan, estimators::kMemoryUniverseSeed);
        if (mem.total_bytes > f.topo.spec().gpu_memory_bytes) continue;
        actual.push_back(mem.total_bytes);
        est_mlp.push_back(mlp.estimate_bytes(job, plan));
        est_analytic.push_back(estimators::analytic_memory_estimate(job, plan));
        break;  // one microbatch per config keeps this fast
      }
    }
  }
  ASSERT_GT(actual.size(), 10u);
  const double mape_mlp = common::mape_percent(est_mlp, actual);
  const double mape_analytic = common::mape_percent(est_analytic, actual);
  // Paper Fig. 7: 7.39 % vs 65.71 % on the mid-range cluster.
  EXPECT_LT(mape_mlp, 25.0);
  EXPECT_GT(mape_analytic, 30.0);
  EXPECT_LT(mape_mlp, mape_analytic * 0.5);
}

TEST(Integration, ConfigOverheadAccountingIsPopulated) {
  Fixture f;
  core::PipetteConfigurator ppt(fast_opts(true));
  const auto rec = ppt.configure(f.topo, f.job);
  ASSERT_TRUE(rec.found);
  // Table II's rows all have sources.
  EXPECT_GT(rec.profile_wall_s, 0.0);     // bandwidth profiling (simulated)
  EXPECT_GT(rec.search_wall_s, 0.0);      // simulated annealing (measured)
  EXPECT_GT(rec.mem_est_wall_s, 0.0);     // memory estimation (measured)
  EXPECT_GT(rec.mem_train_wall_s, 0.0);   // one-time training (measured)
}
