// Shared plumbing for the figure/table benches: cluster construction and the
// fast/full budget profiles. BenchEnv::from_cli reads the flags most benches
// accept:
//   --full           paper-scale budgets (Algorithm 1's SA breadth: every
//                    surviving candidate anneals 200 K iterations; 4x200 MLP,
//                    50 K training iterations) instead of the fast profile
//   --seed N         heterogeneity universe seed (default 2024)
//   --csv PATH       mirror the printed table to a CSV file
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "common/units.h"
#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "model/gpt_zoo.h"

namespace pipette::bench {

struct BenchEnv {
  bool full = false;
  std::uint64_t seed = 2024;
  std::string csv;

  static BenchEnv from_cli(const common::Cli& cli) {
    BenchEnv e;
    e.full = cli.get_bool("full", false);
    e.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2024));
    e.csv = cli.get_string("csv", "");
    return e;
  }
};

inline cluster::Topology make_cluster(const std::string& tier, int nodes, std::uint64_t seed) {
  const auto spec = tier == "high-end" ? cluster::high_end_cluster(nodes)
                                       : cluster::mid_range_cluster(nodes);
  // Distinct physical fabrics per tier: fold the tier into the seed.
  const std::uint64_t tier_seed = seed ^ (tier == "high-end" ? 0x9000ull : 0x1000ull);
  return cluster::Topology(spec, cluster::HeterogeneityOptions{}, tier_seed);
}

/// Pipette options under the bench budget profile. `dedication` false = PPT-L.
inline core::PipetteOptions pipette_options(const BenchEnv& env, bool dedication) {
  core::PipetteOptions opt;
  opt.use_worker_dedication = dedication;
  if (env.full) {
    // Algorithm 1: SA on every surviving candidate, full budget each.
    opt.sa.max_iters = 200000;
    opt.sa_halving.rung0_iters = opt.sa.max_iters;
    opt.memory_training.hidden = {200, 200, 200, 200};
    opt.memory_training.train.iters = 50000;
  } else {
    opt.memory_training.hidden = {128, 128};
    opt.memory_training.train.iters = 9000;
    // The fast-profile net fits ~10-15 % MAPE (vs ~7 % at paper scale), so
    // recommendations stay reliable with a proportionally wider margin.
    opt.memory_training.soft_margin = 0.20;
  }
  return opt;
}

/// Trains (once) the MLP memory estimator for a cluster tier under the bench
/// budget; shared across configurator instantiations.
inline std::shared_ptr<const estimators::MlpMemoryEstimator> train_memory_estimator(
    const cluster::Topology& topo, const BenchEnv& env) {
  return std::make_shared<const estimators::MlpMemoryEstimator>(
      estimators::MlpMemoryEstimator::train_for_cluster(
          topo, model::gpt_zoo(), pipette_options(env, /*dedication=*/true).memory_training));
}

inline void finish_table(const common::Table& t, const BenchEnv& env) {
  t.print(std::cout);
  if (!env.csv.empty()) {
    if (t.write_csv(env.csv)) {
      std::cout << "(csv written to " << env.csv << ")\n";
    } else {
      std::cout << "(failed to write csv to " << env.csv << ")\n";
    }
  }
}

}  // namespace pipette::bench
