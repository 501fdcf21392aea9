// Microbenchmark — the memory-estimator MLP: single-row inference (the cost
// Algorithm 1 pays per candidate, Table II's "Memory Estimation" row) and
// training step throughput for the paper's 5-layer/200-hidden network, on the
// estimator's 14-wide v2 feature vector. BM_RegressorPredict is the call the
// memory filter makes (standardize + forward + de-standardize), the same
// work perfbench reports as mlp.predict_us.
#include <benchmark/benchmark.h>

#include <vector>

#include "estimators/mlp_memory.h"
#include "mlp/network.h"
#include "mlp/regressor.h"
#include "model/gpt_zoo.h"

using namespace pipette;

namespace {
constexpr int kFeatures = 14;  // MlpMemoryEstimator::features(), v2

std::vector<int> paper_sizes(int hidden) { return {kFeatures, hidden, hidden, hidden, hidden, 1}; }
}  // namespace

static void BM_MlpTrainingStep(benchmark::State& state) {
  const int hidden = static_cast<int>(state.range(0));
  mlp::Network net(paper_sizes(hidden), 1);
  mlp::Matrix x(32, kFeatures, 0.3);
  mlp::Matrix y(32, 1, 1.0);
  mlp::AdamOptions adam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.loss_and_grad(x, y));
    net.adam_step(adam);
  }
}
BENCHMARK(BM_MlpTrainingStep)->Arg(96)->Arg(200);

static void BM_MlpInference(benchmark::State& state) {
  const int hidden = static_cast<int>(state.range(0));
  mlp::Network net(paper_sizes(hidden), 1);
  mlp::Matrix x(1, kFeatures, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x)(0, 0));
}
BENCHMARK(BM_MlpInference)->Arg(96)->Arg(200);

static void BM_RegressorPredict(benchmark::State& state) {
  const int hidden = static_cast<int>(state.range(0));
  const auto sizes = paper_sizes(hidden);
  const auto reg = mlp::Regressor::restore(sizes, mlp::Network(sizes, 1).parameters(),
                                           std::vector<double>(kFeatures, 0.5),
                                           std::vector<double>(kFeatures, 2.0), 30.0, 1.5);
  const std::vector<double> x(kFeatures, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(reg.predict(x));
}
BENCHMARK(BM_RegressorPredict)->Arg(96)->Arg(200);

static void BM_FeatureVector(benchmark::State& state) {
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  const parallel::TrainPlan plan{{8, 2, 8}, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimators::MlpMemoryEstimator::features(job, plan));
  }
}
BENCHMARK(BM_FeatureVector);

BENCHMARK_MAIN();
