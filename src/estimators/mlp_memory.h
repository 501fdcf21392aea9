// Pipette's MLP memory estimator (Eq. 7, §VI): a small neural network that
// learns the cluster's actual peak-memory behaviour — including the framework
// overheads no analytic model captures — from configurations profiled on a
// few nodes, then extrapolates to full-cluster configurations. Features are
// log-transformed so the multiplicative structure of memory consumption
// becomes additive and extrapolation beyond the profiled GPU counts works.
// The feature vector is versioned: v2 appends the plan axes (virtual stages,
// recomputation level, ZeRO-1), and the version participates in
// engine::ClusterCache keys so trained estimators of different feature sets
// never collide.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "mlp/regressor.h"
#include "model/transformer.h"
#include "parallel/train_plan.h"
#include "sim/memory_sim.h"

namespace pipette::estimators {

/// The seed of the "physical" memory universe: ground-truth profiling runs
/// and actual execution must agree on it, like a real cluster agrees with
/// itself.
inline constexpr std::uint64_t kMemoryUniverseSeed = 0x3e3a11ull;

struct MlpMemoryOptions {
  /// Paper: "five layers with 200 hidden sizes". Benches default to a faster
  /// profile (see bench --full); accuracy targets still hold.
  std::vector<int> hidden = {200, 200, 200, 200};
  mlp::TrainOptions train;          ///< paper: 50,000 iterations
  double soft_margin = 0.07;        ///< §VI: margin for stable recommendations
  int max_profile_nodes = 4;        ///< paper: profile up to 4 nodes (32 GPUs)
  std::vector<int> profile_global_batches = {128, 256, 512};
  parallel::ConfigConstraints constraints;
  std::uint64_t seed = 99;
};

class MlpMemoryEstimator {
 public:
  /// Version of the feature vector below; bump on any change so cached
  /// estimators trained on an older layout are never reused.
  static constexpr int kFeatureVersion = 2;

  /// Generates the profiling dataset on sub-clusters of `full` (all runnable
  /// plans of the given models — base space plus recompute/ZeRO relief
  /// variants, up to max_profile_nodes nodes) and trains the regressor.
  /// One-time per cluster, reusable afterwards (§VI).
  static MlpMemoryEstimator train_for_cluster(const cluster::Topology& full,
                                              const std::vector<model::TransformerConfig>& models,
                                              const MlpMemoryOptions& opt);

  /// Digest of everything a trained estimator depends on: the spec with
  /// num_nodes clamped to max_profile_nodes — the dataset is simulated on
  /// sub-clusters up to that size, so growing or shrinking the fabric above
  /// the clamp leaves the artifact bit-identical — folded with every training
  /// option and the feature version. Equal digests mean interchangeable
  /// estimators; engine::ClusterCache keys on this.
  static std::uint64_t training_digest(const cluster::ClusterSpec& spec,
                                       const MlpMemoryOptions& opt);

  /// The digest this instance was trained under (0 for pre-digest artifacts).
  std::uint64_t training_digest() const { return training_digest_; }

  /// Reinstates a trained estimator from its serialized parts (the
  /// persist-tier load path). The caller is responsible for having verified
  /// the snapshot's integrity; this only checks structural consistency (via
  /// mlp::Regressor::restore's validation) and carries the stored digest —
  /// which ClusterCache keys on, so a stale artifact can never be handed to a
  /// request whose options would train a different one.
  static MlpMemoryEstimator restore(mlp::Regressor reg, double soft_margin, int dataset_size,
                                    double train_mape, std::uint64_t digest) {
    return MlpMemoryEstimator(std::move(reg), soft_margin, dataset_size, train_mape, digest);
  }

  /// The trained regressor (the persist-tier save path).
  const mlp::Regressor& regressor() const { return reg_; }

  /// Predicted peak bytes per GPU.
  double estimate_bytes(const model::TrainingJob& job, const parallel::TrainPlan& plan) const;

  /// Memory-constraint check with the soft margin (Algorithm 1 line 7).
  bool fits(const model::TrainingJob& job, const parallel::TrainPlan& plan,
            double limit_bytes) const;

  int dataset_size() const { return dataset_size_; }
  double train_mape_percent() const { return train_mape_; }
  double soft_margin() const { return margin_; }

  /// The Eq. (7) feature vector (log2-transformed) plus the v2 additions
  /// (log2 sequence length, log2 virtual stages, recompute level, ZeRO-1
  /// flag); exposed for tests.
  static std::vector<double> features(const model::TrainingJob& job,
                                      const parallel::TrainPlan& plan);

 private:
  explicit MlpMemoryEstimator(mlp::Regressor reg, double margin, int n, double mape,
                              std::uint64_t digest);

  mlp::Regressor reg_;
  double margin_ = 0.07;
  int dataset_size_ = 0;
  double train_mape_ = 0.0;
  std::uint64_t training_digest_ = 0;
};

}  // namespace pipette::estimators
