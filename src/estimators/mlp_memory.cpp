#include "estimators/mlp_memory.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hashing.h"
#include "common/stats.h"

namespace pipette::estimators {

namespace {
double lg(double v) { return std::log2(std::max(v, 1e-9)); }
}  // namespace

std::vector<double> MlpMemoryEstimator::features(const model::TrainingJob& job,
                                                 const parallel::TrainPlan& plan) {
  const auto& m = job.model;
  const auto& pc = plan.pc;
  const double mini = static_cast<double>(job.global_batch) / pc.dp;
  // Eq. (7): n_gpus, n_layers, n_hiddens, n_heads, tp, pp, dp, bs_micro,
  // bs_mini, bs_global — log2-transformed — followed by the v2 additions:
  // log2 sequence length (activation residency scales superlinearly in it,
  // and the plan axes exist to manage exactly that), log2 virtual stages,
  // recompute level (0/1/2), ZeRO-1 flag.
  return {lg(pc.ways()),
          lg(m.num_layers),
          lg(m.hidden_size),
          lg(m.num_heads),
          lg(pc.tp),
          lg(pc.pp),
          lg(pc.dp),
          lg(plan.micro_batch),
          lg(mini),
          lg(job.global_batch),
          lg(m.seq_len),
          lg(plan.virtual_stages),
          static_cast<double>(plan.recompute),
          plan.zero1 ? 1.0 : 0.0};
}

MlpMemoryEstimator::MlpMemoryEstimator(mlp::Regressor reg, double margin, int n, double mape,
                                       std::uint64_t digest)
    : reg_(std::move(reg)),
      margin_(margin),
      dataset_size_(n),
      train_mape_(mape),
      training_digest_(digest) {}

std::uint64_t MlpMemoryEstimator::training_digest(const cluster::ClusterSpec& spec,
                                                  const MlpMemoryOptions& opt) {
  using common::hash_combine;
  // The dataset is simulated on sub_cluster(min(num_nodes, max_profile_nodes))
  // from the spec alone, so the digest clamps the node count: a resized fabric
  // above the clamp trains the identical estimator and must share it.
  cluster::ClusterSpec clamped = spec;
  clamped.num_nodes = std::min(spec.num_nodes, opt.max_profile_nodes);
  std::uint64_t h = cluster::spec_digest(clamped);
  for (const int w : opt.hidden) h = hash_combine(h, static_cast<std::uint64_t>(w));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.train.iters));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.train.batch_size));
  h = hash_combine(h, opt.train.lr);
  h = hash_combine(h, opt.train.lr_decay);
  h = hash_combine(h, opt.train.seed);
  h = hash_combine(h, opt.soft_margin);
  h = hash_combine(h, static_cast<std::uint64_t>(opt.max_profile_nodes));
  for (const int b : opt.profile_global_batches) h = hash_combine(h, static_cast<std::uint64_t>(b));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.max_tp));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.max_micro_batch));
  // Fixed rules keep the slots they had as options, so old snapshots match.
  h = hash_combine(h, std::uint64_t{1});  // n_microbatches >= pp
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.fixed_micro_batch));
  // Plan-axis knobs change the training dataset, and the feature-vector
  // version changes the trained net's very input layout: both must
  // participate so feature sets never collide.
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.enable_interleaved));
  h = hash_combine(h, static_cast<std::uint64_t>(parallel::kInterleavedChunks));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.enable_recompute));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.constraints.enable_zero1));
  h = hash_combine(h, static_cast<std::uint64_t>(kFeatureVersion));
  h = hash_combine(h, opt.seed);
  return h;
}

MlpMemoryEstimator MlpMemoryEstimator::train_for_cluster(
    const cluster::Topology& full, const std::vector<model::TransformerConfig>& models,
    const MlpMemoryOptions& opt) {
  const auto& spec = full.spec();
  const int max_nodes = std::min(opt.max_profile_nodes, spec.num_nodes);

  // Profile "runs": every runnable plan on 1..max_nodes nodes — the base
  // space (plain + interleaved) plus, for base plans near or over the fit
  // threshold, their recompute/ZeRO relief variants. This mirrors how the
  // configurator uses the estimator (relief variants are only ever asked
  // about under memory pressure), so the dataset concentrates coverage where
  // the filter decides, instead of blowing up 6x with comfortable variants.
  // Only plans that actually fit can be profiled on a real cluster, so only
  // those enter the dataset.
  constexpr double kVariantProfileTrigger = 0.7;
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  auto measure = [&](const model::TrainingJob& job, const parallel::TrainPlan& plan) {
    const auto mem = sim::simulate_peak_memory(spec, job, plan, kMemoryUniverseSeed);
    if (mem.total_bytes <= spec.gpu_memory_bytes) {
      rows.push_back(features(job, plan));
      targets.push_back(lg(mem.total_bytes));
    }
    return mem.total_bytes;
  };
  for (int nodes = 1; nodes <= max_nodes; ++nodes) {
    const int gpus = nodes * spec.gpus_per_node;
    for (const auto& mcfg : models) {
      for (int gb : opt.profile_global_batches) {
        model::TrainingJob job{mcfg, gb};
        for (const auto& plan : parallel::enumerate_base_plans(gpus, spec.gpus_per_node,
                                                               mcfg.num_layers, gb,
                                                               opt.constraints)) {
          const double base_bytes = measure(job, plan);
          if (base_bytes <= kVariantProfileTrigger * spec.gpu_memory_bytes) continue;
          for (const auto& variant : parallel::memory_relief_variants(plan, opt.constraints)) {
            measure(job, variant);
          }
        }
      }
    }
  }
  if (rows.size() < 32) {
    throw std::runtime_error("MlpMemoryEstimator: profiling produced too few runnable configs");
  }

  mlp::Matrix x(static_cast<int>(rows.size()), static_cast<int>(rows.front().size()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      x(static_cast<int>(i), static_cast<int>(j)) = rows[i][j];
    }
  }

  mlp::Regressor reg(x.cols(), opt.hidden, opt.seed);
  const mlp::TrainReport report = reg.fit(x, targets, opt.train);

  // Report MAPE in bytes space, which is what Fig. 7 plots, from fit's own
  // in-sample predictions (x's rows are exactly `rows`).
  std::vector<double> est_bytes, act_bytes;
  est_bytes.reserve(rows.size());
  act_bytes.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    est_bytes.push_back(std::exp2(report.predictions[i]));
    act_bytes.push_back(std::exp2(targets[i]));
  }
  const double mape = common::mape_percent(est_bytes, act_bytes);
  return MlpMemoryEstimator(std::move(reg), opt.soft_margin, static_cast<int>(rows.size()), mape,
                            training_digest(spec, opt));
}

double MlpMemoryEstimator::estimate_bytes(const model::TrainingJob& job,
                                          const parallel::TrainPlan& plan) const {
  return std::exp2(reg_.predict(features(job, plan)));
}

bool MlpMemoryEstimator::fits(const model::TrainingJob& job, const parallel::TrainPlan& plan,
                              double limit_bytes) const {
  return estimate_bytes(job, plan) * (1.0 + margin_) <= limit_bytes;
}

}  // namespace pipette::estimators
