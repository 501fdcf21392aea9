// Ablation — heterogeneity strength. The paper observes that Pipette's gains
// shrink on smaller/cleaner fabrics (Fig. 8 discussion). This bench sweeps
// the attained-bandwidth spread of the simulated fabric and reports the
// worker-dedication gain at each level: on a perfectly homogeneous cluster
// dedication must be worthless, and the gain should grow with the spread.
#include "bench_common.h"
#include "search/mapping_search.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const auto env = bench::BenchEnv::from_cli(cli);
  // The configurator's per-candidate budget: iteration-counted, so the
  // table repeats run to run and host to host.
  search::SaOptions sa = bench::pipette_options(env, true).sa;
  sa.seed = env.seed;

  const model::TrainingJob job{model::gpt_3_1b(), 512};
  const parallel::TrainPlan plan{{8, 2, 8}, 2};
  const auto& pc = plan.pc;

  struct Level {
    std::string name;
    cluster::HeterogeneityOptions het;
  };
  std::vector<Level> levels;
  levels.push_back({"homogeneous", cluster::HeterogeneityOptions::none()});
  {
    cluster::HeterogeneityOptions h;
    h.inter_spread = 0.05;
    h.slow_pair_prob = 0.0;
    levels.push_back({"mild (5% spread)", h});
  }
  levels.push_back({"default (16% spread + slow pairs)", cluster::HeterogeneityOptions{}});
  {
    cluster::HeterogeneityOptions h;
    h.inter_spread = 0.22;
    h.slow_pair_prob = 0.2;
    h.slow_pair_factor = 0.35;
    levels.push_back({"severe (22% spread, 20% slow pairs)", h});
  }

  common::Table t({"fabric", "default map s/iter", "dedicated s/iter", "dedication gain"});
  for (const auto& level : levels) {
    // Same fabric universe as the other mid-range benches (bench::make_cluster).
    cluster::Topology topo(cluster::mid_range_cluster(16), level.het, env.seed ^ 0x1000ull);
    const auto profiled = cluster::profile_network(topo, {});
    const auto links = estimators::LinkConstants::from_spec(topo.spec());
    const auto prof = estimators::profile_compute(topo, job, plan, {});
    estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

    auto mapping = parallel::Mapping::megatron_default(pc);
    sim::SimOptions sim_opt;
    const double before = sim::simulate_iteration(topo, job, mapping, plan, sim_opt).total_s;
    search::optimize_mapping(mapping, model, topo.gpus_per_node(), sa);
    const double after = sim::simulate_iteration(topo, job, mapping, plan, sim_opt).total_s;
    t.add_row({level.name, common::fmt_fixed(before, 3), common::fmt_fixed(after, 3),
               common::fmt_fixed(before / after, 3) + "x"});
  }

  std::cout << "Ablation — fine-grained worker dedication gain vs fabric heterogeneity ("
            << plan.str() << ", mid-range geometry, SA budget " << sa.max_iters
            << " iterations)\n\n";
  bench::finish_table(t, env);
  return 0;
}
