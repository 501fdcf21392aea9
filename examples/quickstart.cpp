// Quickstart: configure GPT-3.1B training on a 32-GPU mid-range cluster.
//
// Shows the minimal Pipette workflow:
//   1. describe (or here: simulate) the cluster,
//   2. describe the training job,
//   3. run the Pipette configurator,
//   4. execute the recommendation and compare with the naive default.
//
// Run:  ./quickstart [--nodes 4] [--global-batch 128]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "common/units.h"
#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "model/gpt_zoo.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const int nodes = cli.get_int("nodes", 4);
  const int global_batch = cli.get_int("global-batch", 128);

  // 1. The cluster: 8x V100 per node, heterogeneous Infiniband EDR fabric.
  cluster::Topology topo(cluster::mid_range_cluster(nodes), cluster::HeterogeneityOptions{},
                         /*seed=*/42);

  // 2. The job.
  model::TrainingJob job{model::gpt_3_1b(), global_batch};
  std::cout << "Job: " << job.model.name << " (" << common::fmt_count(static_cast<double>(
               model::total_parameters(job.model))) << " params), global batch "
            << job.global_batch << ", cluster " << topo.spec().name << " with "
            << topo.num_gpus() << " GPUs\n\n";

  // 3. Configure. The memory estimator trains once from small-scale profiling
  //    (fast profile here; see MlpMemoryOptions for the paper-scale one). The
  //    default SA budget is iteration-counted, so the recommendation is the
  //    same on every run.
  core::PipetteOptions opt;
  opt.memory_training.hidden = {96, 96, 96};
  opt.memory_training.train.iters = 4000;
  auto pipette = core::PipetteConfigurator(opt);
  const auto rec = pipette.configure(topo, job);
  if (!rec.found) {
    std::cout << "No runnable configuration found.\n";
    return 1;
  }

  std::cout << "Pipette recommends " << rec.best.str() << "  (predicted "
            << common::fmt_fixed(rec.predicted_s, 3) << " s/iter)\n";
  // The full plan, so the recommendation is reproducible from this output.
  const auto& plan = rec.best;
  std::cout << "  schedule: "
            << (plan.schedule == parallel::PipeSchedule::kInterleaved1F1B
                    ? "interleaved-1F1B (v=" + std::to_string(plan.virtual_stages) + ")"
                    : "1F1B")
            << ", recompute: "
            << (plan.recompute == parallel::Recompute::kFull
                    ? "full"
                    : plan.recompute == parallel::Recompute::kSelective ? "selective" : "none")
            << ", ZeRO-1: " << (plan.zero1 ? "on" : "off") << "\n";
  std::cout << "  candidates evaluated: " << rec.candidates_evaluated
            << ", rejected by memory estimator: " << rec.candidates_rejected_oom << "\n";
  std::cout << "  profiling " << common::fmt_duration(rec.profile_wall_s) << " (simulated), SA "
            << common::fmt_duration(rec.search_wall_s) << ", memory estimation "
            << common::fmt_duration(rec.mem_est_wall_s) << "\n\n";

  // 4. Execute on the (simulated) cluster, against the naive default mapping.
  sim::SimOptions sim_opt;
  const auto outcome = core::execute_with_oom_fallback(topo, job, rec, sim_opt);
  if (!outcome.success) {
    std::cout << "Execution failed (all ranked configurations OOM).\n";
    return 1;
  }
  const auto naive = core::run_actual(topo, job, outcome.executed,
                                      parallel::Mapping::megatron_default(outcome.executed.pc),
                                      sim_opt);
  std::cout << "Actual time/iter with dedicated workers: "
            << common::fmt_fixed(outcome.run.time_s, 3) << " s\n";
  std::cout << "Actual time/iter with default mapping:   "
            << common::fmt_fixed(naive.time_s, 3) << " s\n";
  std::cout << "Worker dedication speedup: "
            << common::fmt_fixed(naive.time_s / outcome.run.time_s, 3) << "x\n";
  std::cout << "Peak GPU memory: " << common::fmt_fixed(common::to_GiB(outcome.run.mem.total_bytes), 1)
            << " GiB of " << common::fmt_fixed(common::to_GiB(topo.spec().gpu_memory_bytes), 0)
            << " GiB\n";
  return 0;
}
