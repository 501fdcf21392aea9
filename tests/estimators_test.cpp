#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cluster/profiler.h"
#include "common/stats.h"
#include "estimators/analytic_memory.h"
#include "estimators/compute_profile.h"
#include "estimators/latency_models.h"
#include "estimators/mlp_memory.h"
#include "model/gpt_zoo.h"
#include "sim/memory_sim.h"
#include "sim/pipeline_sim.h"

using namespace pipette;

namespace {

cluster::Topology mid_cluster(int nodes = 4, std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(nodes), cluster::HeterogeneityOptions{},
                           seed);
}

}  // namespace

TEST(ComputeProfile, TracksGroundTruthCosts) {
  const auto topo = mid_cluster();
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{4, 2, 4}, 4};
  const auto& pc = plan.pc;
  estimators::ComputeProfileOptions opt;
  const auto prof = estimators::profile_compute(topo, job, plan, opt);
  ASSERT_EQ(prof.stage_fwd_s.size(), 4u);
  const auto mapping = parallel::Mapping::megatron_default(pc);
  for (int x = 0; x < pc.pp; ++x) {
    const auto truth = sim::stage_costs(topo, job, mapping, plan, x, 0);
    EXPECT_NEAR(prof.stage_fwd_s[static_cast<std::size_t>(x)] / truth.fwd_compute_s, 1.0, 0.05);
    EXPECT_NEAR(prof.stage_bwd_s[static_cast<std::size_t>(x)] / truth.bwd_compute_s, 1.0, 0.05);
  }
  EXPECT_GT(prof.c_block_s, 0.0);
}

class PipetteModelAccuracy
    : public testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PipetteModelAccuracy, EstimateWithinTolerance) {
  const auto [pp, tp, dp, micro] = GetParam();
  const auto topo = mid_cluster(4);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{pp, tp, dp}, micro};
  const auto& pc = plan.pc;
  ASSERT_EQ(pc.ways(), 32);

  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
  const auto mapping = parallel::Mapping::megatron_default(pc);

  const double est = model.estimate(mapping);
  const double actual = sim::simulate_iteration(topo, job, mapping, plan, {}).total_s;
  EXPECT_NEAR(est / actual, 1.0, 0.15) << "est " << est << " actual " << actual;
}

INSTANTIATE_TEST_SUITE_P(Configs, PipetteModelAccuracy,
                         testing::Values(std::tuple{4, 2, 4, 2}, std::tuple{8, 2, 2, 2},
                                         std::tuple{4, 8, 1, 4}, std::tuple{2, 2, 8, 4},
                                         std::tuple{4, 1, 8, 1}, std::tuple{8, 4, 1, 8},
                                         std::tuple{16, 2, 1, 2}, std::tuple{2, 8, 2, 8}));

TEST(PipetteModel, MoreAccurateThanAmpOnHeterogeneousCluster) {
  // The Fig. 5a claim, at test scale: Pipette's MAPE beats Eq. (1)+spec-bw.
  const auto topo = mid_cluster(4, 99);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());

  std::vector<double> est_ppt, est_amp, actual;
  for (const auto& pc : parallel::enumerate_parallel_configs(32, 8, 36, {})) {
    for (int micro : parallel::micro_batch_options(128, pc, {})) {
      const parallel::TrainPlan plan{pc, micro};
      if (!sim::fits_in_memory(topo.spec(), job, plan, estimators::kMemoryUniverseSeed)) {
        continue;
      }
      const auto prof = estimators::profile_compute(topo, job, plan, {});
      estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
      const auto mapping = parallel::Mapping::megatron_default(pc);
      est_ppt.push_back(model.estimate(mapping));
      est_amp.push_back(estimators::amp_latency_estimate(job, plan, prof, links));
      actual.push_back(sim::simulate_iteration(topo, job, mapping, plan, {}).total_s);
      break;  // one microbatch size per config keeps the test fast
    }
  }
  ASSERT_GT(actual.size(), 5u);
  const double mape_ppt = common::mape_percent(est_ppt, actual);
  const double mape_amp = common::mape_percent(est_amp, actual);
  EXPECT_LT(mape_ppt, 12.0);
  EXPECT_GT(mape_amp, mape_ppt * 1.5)
      << "AMP's Eq.(1)+spec-bw model should be clearly less accurate";
}

TEST(PipetteModel, TermsRespondToMapping) {
  const auto topo = mid_cluster(4);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan plan{{4, 2, 4}, 2};
  const auto& pc = plan.pc;
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  const auto good = parallel::Mapping::megatron_default(pc);
  // Scatter a TP group across nodes: the mapping-aware TP term must punish it.
  auto bad = good;
  bad.swap(bad.worker_index(0, 0, 0), bad.worker_index(3, 0, 0));
  EXPECT_GT(model.estimate(bad), model.estimate(good));
}

TEST(PipetteModel, BubbleAndStragglerScales) {
  const auto topo = cluster::Topology::homogeneous(cluster::mid_range_cluster(4));
  const model::TrainingJob job{model::gpt_1_1b(), 256};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const parallel::TrainPlan plan{{8, 2, 2}, 2};
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
  const auto m = parallel::Mapping::megatron_default(plan.pc);
  // T_straggler = (pp-1) * max block; T_bubble >= pp * max block.
  EXPECT_GT(model.bubble_term(m), model.straggler_term(m));
  EXPECT_GT(model.dp_comm_term(m), 0.0);
  EXPECT_GT(model.pp_comm_term(m), 0.0);
}

TEST(AmpModel, UnderestimatesOnHeterogeneousCluster) {
  // AMP prices communication at document bandwidth, so on a degraded fabric
  // it must underestimate the true latency of comm-heavy configurations.
  const auto topo = mid_cluster(4, 5);
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const parallel::TrainPlan plan{{2, 1, 16}, 1};  // gradient rings span nodes
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  const double est = estimators::amp_latency_estimate(job, plan, prof, links);
  const auto mapping = parallel::Mapping::megatron_default(plan.pc);
  const double actual = sim::simulate_iteration(topo, job, mapping, plan, {}).total_s;
  EXPECT_LT(est, actual);
}

TEST(AnalyticMemory, UnderestimatesGroundTruth) {
  // The Fig. 7 claim: params + one microbatch of activations misses both the
  // in-flight window and the framework overhead.
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  const auto spec = cluster::mid_range_cluster();
  for (const auto& pc : {parallel::ParallelConfig{4, 4, 4}, parallel::ParallelConfig{8, 8, 1}}) {
    for (int micro : {1, 4}) {
      const parallel::TrainPlan plan{pc, micro};
      const double analytic = estimators::analytic_memory_estimate(job, plan);
      const double actual =
          sim::simulate_peak_memory(spec, job, plan, estimators::kMemoryUniverseSeed)
              .total_bytes;
      EXPECT_LT(analytic, actual) << plan.str();
    }
  }
}

TEST(MlpMemory, FeatureVectorMatchesEq7) {
  const model::TrainingJob job{model::gpt_1_1b(), 256};
  const parallel::TrainPlan plan{{4, 2, 4}, 8};
  const auto f = estimators::MlpMemoryEstimator::features(job, plan);
  ASSERT_EQ(f.size(), 14u);  // Eq. (7)'s ten inputs + the v2 additions
  EXPECT_DOUBLE_EQ(f[0], std::log2(32.0));       // n_gpus
  EXPECT_DOUBLE_EQ(f[1], std::log2(36.0));       // n_layers
  EXPECT_DOUBLE_EQ(f[4], 1.0);                   // log2 tp
  EXPECT_DOUBLE_EQ(f[7], 3.0);                   // log2 micro
  EXPECT_DOUBLE_EQ(f[8], std::log2(64.0));       // minibatch = 256/4
  EXPECT_DOUBLE_EQ(f[9], 8.0);                   // log2 global batch
}

TEST(MlpMemory, TrainsAndExtrapolates) {
  const auto topo = mid_cluster(8);
  estimators::MlpMemoryOptions opt;
  opt.max_profile_nodes = 2;  // train on <= 16 GPUs
  opt.hidden = {96, 96};
  opt.train.iters = 9000;
  opt.profile_global_batches = {128, 256};
  const auto est = estimators::MlpMemoryEstimator::train_for_cluster(
      topo, {model::gpt_774m(), model::gpt_1_1b(), model::gpt_3_1b()}, opt);
  EXPECT_GT(est.dataset_size(), 50);
  EXPECT_LT(est.train_mape_percent(), 20.0);

  // Extrapolate to 32 GPUs (2x the profiled range) and stay in the ballpark;
  // the paper-scale 4x extrapolation runs in bench/fig7 with the full MLP.
  const model::TrainingJob job{model::gpt_1_1b(), 256};
  const parallel::TrainPlan plan{{4, 2, 4}, 4};
  const double pred = est.estimate_bytes(job, plan);
  const double actual =
      sim::simulate_peak_memory(topo.spec(), job, plan, estimators::kMemoryUniverseSeed)
          .total_bytes;
  EXPECT_NEAR(pred / actual, 1.0, 0.40);

  // The soft margin makes fits() stricter than a raw comparison.
  EXPECT_FALSE(est.fits(job, plan, pred));
  EXPECT_TRUE(est.fits(job, plan, pred * (1.0 + est.soft_margin()) * 1.01));
}

namespace {

/// FNV-1a over the bit patterns of `v`: equal digests mean byte-identical
/// weights.
std::uint64_t bits_digest(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace

// Golden digests of the trained estimator at the end-to-end benchmark's
// options (the paper's 4x200 net cut to 300 steps, soft margin 0.07), one per
// tier. The MLP kernels may be rewritten for speed, but never re-rounded:
// these pins are what keeps persisted `memory` snapshots valid without a
// format bump, and they hold at every SIMD lane width.
TEST(MlpMemory, GoldenWeightDigestsAtBenchOptions) {
  estimators::MlpMemoryOptions opt;
  opt.hidden = {200, 200, 200, 200};
  opt.train.iters = 300;
  opt.soft_margin = 0.07;
  struct Golden {
    const char* tier;
    cluster::ClusterSpec spec;
    int rows;
    std::uint64_t weights;
    std::uint64_t mape_bits;
  };
  const Golden cases[] = {
      {"mid-range", cluster::mid_range_cluster(4), 10229, 0x6307dbd0b4087d04ull,
       0x401a457294c283c9ull},  // 6.5678...%
      {"high-end", cluster::high_end_cluster(4), 9973, 0x3245686bc161111bull,
       0x401e87e300518c02ull},  // 7.6327...%
  };
  for (const Golden& g : cases) {
    const cluster::Topology topo(g.spec, cluster::HeterogeneityOptions{}, 2024);
    const auto est = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(), opt);
    const mlp::Regressor& reg = est.regressor();
    std::vector<double> state = reg.network().parameters();
    state.insert(state.end(), reg.standardizer().mean().begin(), reg.standardizer().mean().end());
    state.insert(state.end(), reg.standardizer().std().begin(), reg.standardizer().std().end());
    state.push_back(reg.y_mean());
    state.push_back(reg.y_std());
    std::uint64_t mape_bits = 0;
    const double mape = est.train_mape_percent();
    std::memcpy(&mape_bits, &mape, sizeof mape_bits);
    EXPECT_EQ(est.dataset_size(), g.rows) << g.tier;
    EXPECT_EQ(bits_digest(state), g.weights)
        << g.tier << ": trained weights moved; got 0x" << std::hex << bits_digest(state);
    EXPECT_EQ(mape_bits, g.mape_bits)
        << g.tier << ": in-sample MAPE moved; got 0x" << std::hex << mape_bits << " ("
        << mape << "%)";
  }
}

// A restored estimator (the persist tier's load path) is the trained one:
// same bytes out for every plan the filter could ask about, and no training
// state held by either.
TEST(MlpMemory, RestoredEstimatorPredictsTheTrainedBytes) {
  const auto topo = mid_cluster(4);
  estimators::MlpMemoryOptions opt;
  opt.hidden = {48, 48};
  opt.train.iters = 600;
  opt.max_profile_nodes = 2;
  opt.profile_global_batches = {128};
  const auto est = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(), opt);
  const mlp::Regressor& reg = est.regressor();
  const auto restored = estimators::MlpMemoryEstimator::restore(
      mlp::Regressor::restore(reg.network().layer_sizes(), reg.network().parameters(),
                              reg.standardizer().mean(), reg.standardizer().std(), reg.y_mean(),
                              reg.y_std()),
      est.soft_margin(), est.dataset_size(), est.train_mape_percent(), est.training_digest());
  EXPECT_FALSE(reg.network().holds_training_state());
  EXPECT_FALSE(restored.regressor().network().holds_training_state());
  int compared = 0;
  for (const auto& mcfg : model::gpt_zoo()) {
    const model::TrainingJob job{mcfg, 256};
    for (const auto& plan : parallel::enumerate_base_plans(topo.num_gpus(), topo.gpus_per_node(),
                                                           mcfg.num_layers, 256, opt.constraints)) {
      const double a = est.estimate_bytes(job, plan), b = restored.estimate_bytes(job, plan);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << mcfg.name << " " << plan.str();
      ++compared;
    }
  }
  EXPECT_GT(compared, 50);
}

namespace {

/// Spearman rank correlation (average ranks for ties).
double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    const std::size_t n = v.size();
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(n);
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i;
      while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
      const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j));
      for (std::size_t k = i; k <= j; ++k) r[idx[k]] = avg;
      i = j + 1;
    }
    return r;
  };
  const auto ra = ranks(a), rb = ranks(b);
  const double n = static_cast<double>(a.size());
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

}  // namespace

// Fig. 5a-style agreement on the NEW plan axes: across recompute, interleaved
// and ZeRO-1 variants of several base points, the latency model must order
// plans consistently with the discrete-event simulator — on two different
// cluster shapes. This is what lets the configurator search the enlarged
// space without running every plan.
class PlanAxisRankAgreement : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PlanAxisRankAgreement, EstimatorOrdersNewAxesLikeTheSimulator) {
  const auto [tier, nodes] = GetParam();
  const auto spec =
      tier == "high-end" ? cluster::high_end_cluster(nodes) : cluster::mid_range_cluster(nodes);
  cluster::Topology topo(spec, cluster::HeterogeneityOptions{}, 31 + nodes);
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());

  std::vector<parallel::TrainPlan> plans;
  for (const parallel::TrainPlan base :
       {parallel::TrainPlan{{4, 2, topo.num_gpus() / 8}, 2},
        parallel::TrainPlan{{2, 4, topo.num_gpus() / 8}, 4},
        parallel::TrainPlan{{8, 2, topo.num_gpus() / 16}, 2}}) {
    if (base.pc.ways() != topo.num_gpus()) continue;
    plans.push_back(base);
    for (const auto& v : parallel::memory_relief_variants(base, {})) plans.push_back(v);
    parallel::TrainPlan inter = base;
    inter.schedule = parallel::PipeSchedule::kInterleaved1F1B;
    inter.virtual_stages = 2;
    if (inter.valid_for(job.model.num_layers, job.global_batch)) plans.push_back(inter);
  }
  ASSERT_GE(plans.size(), 10u);

  std::vector<double> est, act;
  for (const auto& p : plans) {
    const auto mapping = parallel::Mapping::megatron_default(p.pc);
    const auto prof = estimators::profile_compute(topo, job, p, {});
    estimators::PipetteLatencyModel model(job, p, prof, &profiled.bw, links);
    est.push_back(model.estimate(mapping));
    act.push_back(sim::simulate_iteration(topo, job, mapping, p, {}).total_s);
  }
  EXPECT_GT(spearman(est, act), 0.8)
      << "estimator must rank recompute/interleaved/ZeRO plans like the simulator";
  EXPECT_LT(common::mape_percent(est, act), 20.0);
}

INSTANTIATE_TEST_SUITE_P(Clusters, PlanAxisRankAgreement,
                         testing::Values(std::tuple{std::string("mid-range"), 4},
                                         std::tuple{std::string("high-end"), 2}));

TEST(ComputeShapeKey, CollapsesExactlyTheProfileIrrelevantAxes) {
  const model::TrainingJob job{model::gpt_1_1b(), 128};
  const parallel::TrainPlan base{{4, 2, 4}, 2};
  const auto key = estimators::ComputeShapeKey::of(job, base);

  // dp and zero1 never reach the measured compute: same shape.
  parallel::TrainPlan dp_sibling = base;
  dp_sibling.pc.dp = 8;
  EXPECT_EQ(estimators::ComputeShapeKey::of(job, dp_sibling), key);
  parallel::TrainPlan zero_sibling = base;
  zero_sibling.zero1 = true;
  EXPECT_EQ(estimators::ComputeShapeKey::of(job, zero_sibling), key);
  // The global batch only changes the microbatch count, not per-stage costs.
  EXPECT_EQ(estimators::ComputeShapeKey::of({job.model, 512}, base), key);

  // Everything the profile does read must split the key.
  parallel::TrainPlan other = base;
  other.pc.tp = 4;
  EXPECT_NE(estimators::ComputeShapeKey::of(job, other), key);
  other = base;
  other.pc.pp = 8;
  EXPECT_NE(estimators::ComputeShapeKey::of(job, other), key);
  other = base;
  other.micro_batch = 4;
  EXPECT_NE(estimators::ComputeShapeKey::of(job, other), key);
  other = base;
  other.recompute = parallel::Recompute::kFull;
  EXPECT_NE(estimators::ComputeShapeKey::of(job, other), key);
  other = base;
  other.schedule = parallel::PipeSchedule::kInterleaved1F1B;
  other.virtual_stages = 2;
  EXPECT_NE(estimators::ComputeShapeKey::of(job, other), key);
  EXPECT_NE(estimators::ComputeShapeKey::of({model::gpt_774m(), 128}, base), key);

  EXPECT_TRUE(key < estimators::ComputeShapeKey::of(job, other) ||
              estimators::ComputeShapeKey::of(job, other) < key);
}

TEST(ComputeShapeKey, SiblingProfilesAreBitIdentical) {
  // The claim shape grouping rests on: plans differing only in dp (and
  // zero1) measure bit-identical profiles, even on a heterogeneous fabric.
  const auto topo = mid_cluster(8, 777);
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  const parallel::TrainPlan a{{8, 2, 4}, 2};
  parallel::TrainPlan b = a;
  b.pc.dp = 2;  // different cluster slice entirely
  parallel::TrainPlan c = a;
  c.zero1 = true;
  const auto pa = estimators::profile_compute(topo.sub_cluster(8), job, a, {});
  const auto pb = estimators::profile_compute(topo.sub_cluster(4), job, b, {});
  const auto pc_ = estimators::profile_compute(topo.sub_cluster(8), job, c, {});
  // Exact equality, not EXPECT_DOUBLE_EQ's 4-ulp tolerance: scoring hands
  // one shape's profile to every sibling, so anything short of bit identity
  // would change their scores.
  EXPECT_EQ(pa.stage_fwd_s, pb.stage_fwd_s);
  EXPECT_EQ(pa.stage_bwd_s, pb.stage_bwd_s);
  EXPECT_EQ(pa.stage_fwd_s, pc_.stage_fwd_s);
  EXPECT_EQ(pa.stage_bwd_s, pc_.stage_bwd_s);
  EXPECT_EQ(pa.c_block_s, pb.c_block_s);
  EXPECT_EQ(pa.c_block_s, pc_.c_block_s);
}

TEST(MlpMemory, TrainingDigestClampsNodeCount) {
  estimators::MlpMemoryOptions mo;
  mo.max_profile_nodes = 4;
  const auto spec8 = cluster::mid_range_cluster(8);
  const auto spec12 = cluster::mid_range_cluster(12);
  const auto spec2 = cluster::mid_range_cluster(2);
  const auto spec3 = cluster::mid_range_cluster(3);
  EXPECT_EQ(estimators::MlpMemoryEstimator::training_digest(spec8, mo),
            estimators::MlpMemoryEstimator::training_digest(spec12, mo))
      << "above the clamp the dataset is identical, so a resize must share";
  EXPECT_NE(estimators::MlpMemoryEstimator::training_digest(spec2, mo),
            estimators::MlpMemoryEstimator::training_digest(spec3, mo))
      << "below the clamp the profiled sub-cluster genuinely differs";
  estimators::MlpMemoryOptions mo2 = mo;
  mo2.soft_margin += 0.01;
  EXPECT_NE(estimators::MlpMemoryEstimator::training_digest(spec8, mo2),
            estimators::MlpMemoryEstimator::training_digest(spec8, mo));
}
