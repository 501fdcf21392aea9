// What-if scaling study: how the recommended configuration evolves as the
// same cluster grows from 2 to 16 nodes, and what each ingredient (memory
// filter, latency model, dedication) contributes at each size. A downstream
// user would run exactly this before committing to a reservation size.
//
// Run:  ./scalability_study [--tier mid-range|high-end] [--global-batch 512]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "core/pipette_configurator.h"
#include "model/gpt_zoo.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const std::string tier = cli.get_string("tier", "mid-range");
  const bool high = tier == "high-end";
  const int global_batch = cli.get_int("global-batch", 512);

  const auto spec = high ? cluster::high_end_cluster(16) : cluster::mid_range_cluster(16);
  cluster::Topology full(spec, cluster::HeterogeneityOptions{}, 11);

  // Train the memory estimator once on the small end of the cluster — the
  // paper's "once per cluster" workflow.
  estimators::MlpMemoryOptions mopt;
  mopt.hidden = {96, 96};
  mopt.train.iters = 5000;
  auto memory = std::make_shared<const estimators::MlpMemoryEstimator>(
      estimators::MlpMemoryEstimator::train_for_cluster(full, model::gpt_zoo(), mopt));

  // `recommended` prints TrainPlan::str(), which spells out the schedule
  // (-i<v>), recomputation (-rcsel/-rcfull), and ZeRO-1 (-z1) axes; `axes`
  // restates them long-form so the recommendation is reproducible at a glance.
  common::Table t({"nodes", "model", "recommended", "axes", "predicted s/iter", "actual s/iter",
                   "rejected OOM", "tokens/s/GPU"});
  for (int nodes : {2, 4, 8, 16}) {
    const auto topo = full.sub_cluster(nodes);
    const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), high), global_batch};

    core::PipetteOptions opt;
    opt.memory = memory;
    core::PipetteConfigurator ppt(opt);
    const auto rec = ppt.configure(topo, job);
    if (!rec.found) {
      t.add_row({std::to_string(nodes), job.model.name, "none found", "-", "-", "-",
                 std::to_string(rec.candidates_rejected_oom), "-"});
      continue;
    }
    sim::SimOptions sim_opt;
    const auto out = core::execute_with_oom_fallback(topo, job, rec, sim_opt);
    const double tokens =
        static_cast<double>(job.global_batch) * job.model.seq_len;
    const auto& plan = out.executed;
    std::string axes =
        plan.schedule == parallel::PipeSchedule::kInterleaved1F1B
            ? "interleaved v=" + std::to_string(plan.virtual_stages)
            : "1F1B";
    axes += plan.recompute == parallel::Recompute::kFull
                ? ", rc=full"
                : plan.recompute == parallel::Recompute::kSelective ? ", rc=sel" : ", rc=none";
    axes += plan.zero1 ? ", zero1" : "";
    t.add_row({std::to_string(nodes), job.model.name, plan.str(), axes,
               common::fmt_fixed(rec.predicted_s, 2),
               out.success ? common::fmt_fixed(out.run.time_s, 2) : "OOM",
               std::to_string(rec.candidates_rejected_oom),
               out.success
                   ? common::fmt_fixed(tokens / out.run.time_s / topo.num_gpus(), 0)
                   : "-"});
  }

  std::cout << "Scaling study on the " << tier << " cluster (weak-scaled models, global batch "
            << global_batch << ")\n\n";
  t.print(std::cout);
  return 0;
}
