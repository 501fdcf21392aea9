// Fine-grained worker dedication on a degraded fabric — the paper's Fig. 4
// scenario. We build a cluster with a few badly degraded inter-node links,
// fix a parallel configuration, and show how simulated annealing steers the
// pipeline and gradient traffic away from the slow links.
//
// Run:  ./heterogeneous_dedication [--nodes 16] [--seed 7]
#include <iostream>

#include "cluster/profiler.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/pipette_configurator.h"
#include "estimators/compute_profile.h"
#include "estimators/latency_models.h"
#include "model/gpt_zoo.h"
#include "search/mapping_search.h"
#include "sim/pipeline_sim.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const int nodes = cli.get_int("nodes", 16);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  // A fabric with visible trouble: wide spread and frequent slow pairs.
  cluster::HeterogeneityOptions het;
  het.inter_spread = 0.2;
  het.slow_pair_prob = 0.15;
  het.slow_pair_factor = 0.4;
  cluster::Topology topo(cluster::mid_range_cluster(nodes), het, seed);

  const model::TrainingJob job{model::gpt_3_1b(), 512};
  // pp * tp * dp must cover the whole cluster (Eq. 2's |W| = |G|).
  const parallel::TrainPlan plan{{8, 2, nodes * topo.gpus_per_node() / 16}, 2};
  const auto& pc = plan.pc;
  std::cout << "Dedicating " << plan.str() << " workers for " << job.model.name << " on " << nodes
            << " nodes with degraded links\n\n";

  // Profile the fabric and build the latency estimator for this candidate.
  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  auto mapping = parallel::Mapping::megatron_default(pc);
  sim::SimOptions sim_opt;
  const auto before = sim::simulate_iteration(topo, job, mapping, plan, sim_opt);
  const double est_before = model.estimate(mapping);

  // The configurator's per-candidate SA budget (iteration-counted, so the
  // dedicated mapping is the same on every run and host).
  search::SaOptions sa = core::PipetteOptions().sa;
  sa.seed = seed;
  const auto res = search::optimize_mapping(mapping, model, topo.gpus_per_node(), sa);
  const auto after = sim::simulate_iteration(topo, job, mapping, plan, sim_opt);

  common::Table t({"mapping", "estimated s/iter", "actual s/iter", "DP sync s", "bubble %"});
  t.add_row({"Megatron default", common::fmt_fixed(est_before, 3),
             common::fmt_fixed(before.total_s, 3), common::fmt_fixed(before.dp_sync_s, 3),
             common::fmt_fixed(100 * before.bubble_fraction, 1)});
  t.add_row({"fine-grained dedication", common::fmt_fixed(res.best_cost, 3),
             common::fmt_fixed(after.total_s, 3), common::fmt_fixed(after.dp_sync_s, 3),
             common::fmt_fixed(100 * after.bubble_fraction, 1)});
  t.print(std::cout);

  std::cout << "\nSA explored " << res.iters << " mappings in " << common::fmt_duration(res.wall_s)
            << "; actual speedup " << common::fmt_fixed(before.total_s / after.total_s, 3)
            << "x\n";
  return 0;
}
