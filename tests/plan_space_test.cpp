// The TrainPlan type and the enlarged plan space: canonical labels/ordering,
// enumeration and relief-variant structure, plan-aware ground truth, and the
// acceptance scenario this refactor exists for — a job that is un-fittable in
// the legacy (pp, tp, dp, micro) space but fits, and is recommended, once
// recomputation / ZeRO-1 enter the search space.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "estimators/analytic_memory.h"
#include "model/gpt_zoo.h"
#include "parallel/train_plan.h"
#include "sim/memory_sim.h"

using namespace pipette;

namespace {

/// A long-context model (seq 4096): activation-dominated, so recomputation
/// genuinely changes what fits — the regime the new axes exist for.
model::TransformerConfig long_context_model() {
  model::TransformerConfig m;
  m.name = "gpt-5.6b-long";
  m.num_layers = 48;
  m.hidden_size = 3072;
  m.num_heads = 32;
  m.seq_len = 4096;
  return m;
}

}  // namespace

TEST(TrainPlan, PlainLabelMatchesLegacyCandidateLabel) {
  // Per-candidate SA seeds derive from this string: the plain form must stay
  // byte-identical to the pre-plan candidate label.
  const parallel::TrainPlan plain{{4, 2, 4}, 2};
  EXPECT_EQ(plain.str(), "pp4-tp2-dp4-mb2");
  EXPECT_TRUE(plain.is_plain());

  parallel::TrainPlan fancy = plain;
  fancy.schedule = parallel::PipeSchedule::kInterleaved1F1B;
  fancy.virtual_stages = 3;
  fancy.recompute = parallel::Recompute::kFull;
  fancy.zero1 = true;
  EXPECT_EQ(fancy.str(), "pp4-tp2-dp4-mb2-i3-rcfull-z1");
  EXPECT_FALSE(fancy.is_plain());
}

TEST(TrainPlan, HashAndOrderingDistinguishEveryAxis) {
  const parallel::TrainPlan base{{4, 2, 4}, 2};
  std::vector<parallel::TrainPlan> variants{base};
  {
    auto p = base;
    p.schedule = parallel::PipeSchedule::kInterleaved1F1B;
    p.virtual_stages = 2;
    variants.push_back(p);
  }
  {
    auto p = base;
    p.recompute = parallel::Recompute::kSelective;
    variants.push_back(p);
  }
  {
    auto p = base;
    p.recompute = parallel::Recompute::kFull;
    variants.push_back(p);
  }
  {
    auto p = base;
    p.zero1 = true;
    variants.push_back(p);
  }
  std::set<std::uint64_t> hashes;
  std::set<std::string> labels;
  for (const auto& p : variants) {
    EXPECT_TRUE(hashes.insert(p.hash()).second) << p.str();
    EXPECT_TRUE(labels.insert(p.str()).second) << p.str();
  }
  // Canonical ordering: plain sorts first among same-4-tuple variants, and
  // the order is a strict weak ordering over the set.
  for (std::size_t i = 1; i < variants.size(); ++i) {
    EXPECT_TRUE(variants.front() < variants[i]) << variants[i].str();
    EXPECT_FALSE(variants[i] < variants.front());
  }
}

TEST(TrainPlan, ValidityEnforcesMegatronInterleavingConstraints) {
  parallel::TrainPlan p{{4, 2, 4}, 2};
  p.schedule = parallel::PipeSchedule::kInterleaved1F1B;
  p.virtual_stages = 2;
  EXPECT_TRUE(p.valid_for(/*num_layers=*/48, /*global_batch=*/256));
  EXPECT_FALSE(p.valid_for(/*num_layers=*/36, /*global_batch=*/256))
      << "36 layers do not divide into 8 virtual stages";
  EXPECT_FALSE(p.valid_for(48, /*global_batch=*/24))
      << "nmb = 3 is not a multiple of pp = 4";
  p.virtual_stages = 1;
  EXPECT_FALSE(p.valid_for(48, 256)) << "interleaving needs at least two chunks";
  const parallel::TrainPlan flat{{4, 2, 4}, 2};
  EXPECT_TRUE(flat.valid_for(48, 256));
}

TEST(TrainPlan, ReliefVariantsEscalateWithinEachFamily) {
  const parallel::TrainPlan base{{4, 2, 4}, 2};
  const auto ladder = parallel::memory_relief_variants(base, {});
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_EQ(ladder[0].recompute, parallel::Recompute::kSelective);
  EXPECT_FALSE(ladder[0].zero1);
  EXPECT_EQ(ladder[1].recompute, parallel::Recompute::kFull);
  EXPECT_FALSE(ladder[1].zero1);
  EXPECT_TRUE(ladder[2].zero1);
  EXPECT_EQ(ladder[2].recompute, parallel::Recompute::kNone);
  EXPECT_TRUE(ladder[3].zero1);
  EXPECT_EQ(ladder[3].recompute, parallel::Recompute::kSelective);
  EXPECT_TRUE(ladder[4].zero1);
  EXPECT_EQ(ladder[4].recompute, parallel::Recompute::kFull);

  // ZeRO-1 needs a DP group; the dp = 1 ladder is recompute-only.
  for (const auto& v : parallel::memory_relief_variants({{4, 8, 1}, 2}, {})) {
    EXPECT_FALSE(v.zero1) << v.str();
  }
  // Disabling both axes empties the ladder (legacy space).
  parallel::ConfigConstraints off;
  off.enable_recompute = false;
  off.enable_zero1 = false;
  EXPECT_TRUE(parallel::memory_relief_variants(base, off).empty());
}

TEST(TrainPlan, GroundTruthMemoryRespondsToEveryAxis) {
  const auto spec = cluster::mid_range_cluster(2);
  const model::TrainingJob job{model::gpt_3_1b(), 256};
  const parallel::TrainPlan base{{4, 2, 2}, 2};
  const double plain = sim::simulate_peak_memory(spec, job, base, 1).total_bytes;

  auto sel = base;
  sel.recompute = parallel::Recompute::kSelective;
  auto full = base;
  full.recompute = parallel::Recompute::kFull;
  const double m_sel = sim::simulate_peak_memory(spec, job, sel, 1).total_bytes;
  const double m_full = sim::simulate_peak_memory(spec, job, full, 1).total_bytes;
  EXPECT_LT(m_sel, plain) << "selective recomputation must shed activation memory";
  EXPECT_LT(m_full, m_sel) << "full recomputation must shed more than selective";

  auto zero = base;
  zero.zero1 = true;
  EXPECT_LT(sim::simulate_peak_memory(spec, job, zero, 1).total_bytes, plain)
      << "ZeRO-1 must shed optimizer state";

  auto inter = base;
  inter.schedule = parallel::PipeSchedule::kInterleaved1F1B;
  inter.virtual_stages = 2;
  ASSERT_TRUE(inter.valid_for(job.model.num_layers, job.global_batch));
  EXPECT_GT(sim::simulate_peak_memory(spec, job, inter, 1).total_bytes, plain)
      << "interleaving deepens the warmup window and must cost memory";

  // The analytic baseline sees the same directions (it models exactly these
  // analytic parts), even though it underestimates everything else.
  EXPECT_LT(estimators::analytic_memory_estimate(job, full),
            estimators::analytic_memory_estimate(job, base));
  EXPECT_LT(estimators::analytic_memory_estimate(job, zero),
            estimators::analytic_memory_estimate(job, base));
}

TEST(PlanSpace, BaseEnumerationContainsLegacySpacePlusValidInterleavings) {
  parallel::ConfigConstraints c;
  const auto plans = parallel::enumerate_base_plans(32, 8, 48, 256, c);
  std::set<std::string> labels;
  int plain = 0, interleaved = 0;
  for (const auto& p : plans) {
    EXPECT_TRUE(labels.insert(p.str()).second) << "duplicate " << p.str();
    EXPECT_TRUE(p.valid_for(48, 256)) << p.str();
    EXPECT_EQ(p.recompute, parallel::Recompute::kNone) << "relief axes are on-demand";
    EXPECT_FALSE(p.zero1);
    if (p.is_plain()) {
      ++plain;
    } else {
      EXPECT_EQ(p.schedule, parallel::PipeSchedule::kInterleaved1F1B);
      ++interleaved;
    }
  }
  // The plain subset is exactly the legacy enumeration.
  int legacy = 0;
  for (const auto& pc : parallel::enumerate_parallel_configs(32, 8, 48, c)) {
    legacy += static_cast<int>(parallel::micro_batch_options(256, pc, c).size());
  }
  EXPECT_EQ(plain, legacy);
  EXPECT_GT(interleaved, 0);

  // Disabling the axis reproduces the legacy space exactly.
  c.enable_interleaved = false;
  for (const auto& p : parallel::enumerate_base_plans(32, 8, 48, 256, c)) {
    EXPECT_TRUE(p.is_plain()) << p.str();
  }
}

TEST(PlanSpace, RescuesJobUnfittableInLegacySpace) {
  // The acceptance scenario: a long-context model on two 32 GB nodes where
  // ground truth says NO legacy (plain-1F1B) plan fits, but recomputation /
  // ZeRO-1 plans do — Pipette must find and recommend one, and the legacy
  // configurator must fail end to end.
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 11);
  const model::TrainingJob job{long_context_model(), 64};

  int plain_fitting = 0;
  for (const auto& p : parallel::enumerate_base_plans(topo.num_gpus(), topo.gpus_per_node(),
                                                      job.model.num_layers, job.global_batch, {})) {
    if (p.is_plain() &&
        sim::fits_in_memory(topo.spec(), job, p, estimators::kMemoryUniverseSeed)) {
      ++plain_fitting;
    }
  }
  ASSERT_EQ(plain_fitting, 0) << "scenario must be un-fittable in the legacy space";

  // One estimator, trained on a zoo that includes the long-context family,
  // shared by both configurators.
  estimators::MlpMemoryOptions mo;
  mo.hidden = {96, 96};
  mo.train.iters = 8000;
  mo.max_profile_nodes = 2;
  mo.profile_global_batches = {64, 128};
  mo.soft_margin = 0.1;
  const auto memory = std::make_shared<const estimators::MlpMemoryEstimator>(
      estimators::MlpMemoryEstimator::train_for_cluster(
          topo, {model::gpt_1_1b(), model::gpt_3_1b(), long_context_model()}, mo));

  core::PipetteOptions opt;
  opt.memory = memory;

  auto legacy_opt = opt;
  legacy_opt.constraints.enable_interleaved = false;
  legacy_opt.constraints.enable_recompute = false;
  legacy_opt.constraints.enable_zero1 = false;
  core::PipetteConfigurator legacy(legacy_opt);
  const auto legacy_rec = legacy.configure(topo, job);
  const auto legacy_out = core::execute_with_oom_fallback(topo, job, legacy_rec, {});
  EXPECT_FALSE(legacy_out.success)
      << "no legacy plan is runnable, so the legacy configurator cannot succeed";

  core::PipetteConfigurator full(opt);
  const auto rec = full.configure(topo, job);
  ASSERT_TRUE(rec.found) << "the enlarged plan space must rescue the job";
  EXPECT_TRUE(rec.best.recompute != parallel::Recompute::kNone || rec.best.zero1)
      << "rescue must come from the new axes, got " << rec.best.str();
  const auto out = core::execute_with_oom_fallback(topo, job, rec, {});
  ASSERT_TRUE(out.success);
  EXPECT_FALSE(out.run.oom);
  EXPECT_LE(out.run.mem.total_bytes, topo.spec().gpu_memory_bytes);
}

TEST(PlanSpace, MemoryDrivenPruningKeepsVariantCountBounded) {
  // Variant generation is memory-driven and keeps at most the cheapest
  // fitting variant per family (without / with ZeRO) per base plan, so the
  // ranking never holds more than two relief variants of one base point and
  // the candidate count stays within the bounded 6x-per-base worst case.
  cluster::Topology topo(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, 5);
  const model::TrainingJob job{model::gpt_3_1b(), 128};  // memory-tight: variants do trigger
  core::PipetteOptions opt;
  opt.use_worker_dedication = false;
  opt.memory_training.hidden = {64, 64};
  opt.memory_training.train.iters = 4000;
  opt.memory_training.max_profile_nodes = 2;
  opt.memory_training.profile_global_batches = {128};
  opt.memory_training.soft_margin = 0.12;
  core::PipetteConfigurator ppt(opt);
  const auto rec = ppt.configure(topo, job);
  ASSERT_TRUE(rec.found);
  const int base_count = static_cast<int>(
      parallel::enumerate_base_plans(topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers,
                                     job.global_batch, opt.constraints)
          .size());
  EXPECT_LE(rec.candidates_evaluated, 6 * base_count)
      << "a base plan costs at most 1 base + 5 ladder checks";
  // Count ranked relief variants per base point and family.
  std::map<std::string, std::pair<int, int>> per_base;  // base label -> (plain-family, zero-family)
  for (const auto& r : rec.ranking) {
    if (r.cand.recompute == parallel::Recompute::kNone && !r.cand.zero1) continue;
    auto base = r.cand;
    base.recompute = parallel::Recompute::kNone;
    base.zero1 = false;
    auto& counts = per_base[base.str()];
    (r.cand.zero1 ? counts.second : counts.first) += 1;
  }
  for (const auto& [label, counts] : per_base) {
    EXPECT_LE(counts.first, 1) << "base " << label << " kept >1 non-ZeRO relief variant";
    EXPECT_LE(counts.second, 1) << "base " << label << " kept >1 ZeRO relief variant";
  }
}
