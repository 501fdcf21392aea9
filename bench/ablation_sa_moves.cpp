// Ablation — the simulated-annealing move set. The paper motivates the
// reverse move with the near-symmetric bidirectional bandwidths and Fig. 4
// with node reordering/regrouping; this bench quantifies each move family's
// contribution by running the same dedication problem with moves disabled.
#include "bench_common.h"
#include "search/mapping_search.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const auto env = bench::BenchEnv::from_cli(cli);
  // The configurator's per-candidate budget: iteration-counted, so every
  // variant gets the same number of proposals and the table repeats run to
  // run and host to host.
  search::SaOptions sa = bench::pipette_options(env, true).sa;
  sa.seed = env.seed;

  const auto topo = bench::make_cluster("mid-range", 16, env.seed);
  const model::TrainingJob job{model::gpt_3_1b(), 512};
  const parallel::TrainPlan plan{{8, 2, 8}, 2};
  const auto& pc = plan.pc;

  const auto profiled = cluster::profile_network(topo, {});
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const auto prof = estimators::profile_compute(topo, job, plan, {});
  estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);

  const auto base = parallel::Mapping::megatron_default(pc);
  const double initial = model.estimate(base);
  sim::SimOptions sim_opt;
  const double initial_actual = sim::simulate_iteration(topo, job, base, plan, sim_opt).total_s;

  struct Variant {
    std::string name;
    search::MoveSet moves;
  };
  std::vector<Variant> variants;
  variants.push_back({"all moves", {}});
  {
    search::MoveSet m;
    m.node_swap = m.node_reverse = false;
    variants.push_back({"string moves only (migrate/swap/reverse)", m});
  }
  {
    search::MoveSet m;
    m.migrate = m.swap = m.reverse = false;
    variants.push_back({"node moves only (regroup/reorder)", m});
  }
  {
    search::MoveSet m;
    m.reverse = m.node_reverse = false;
    variants.push_back({"no reverse moves", m});
  }

  common::Table t({"move set", "est s/iter", "actual s/iter", "gain vs default", "SA iters"});
  t.add_row({"(default mapping)", common::fmt_fixed(initial, 3),
             common::fmt_fixed(initial_actual, 3), "-", "-"});
  for (const auto& v : variants) {
    auto m = base;
    const auto res = search::optimize_mapping(m, model, topo.gpus_per_node(), sa, v.moves);
    const double actual = sim::simulate_iteration(topo, job, m, plan, sim_opt).total_s;
    t.add_row({v.name, common::fmt_fixed(res.best_cost, 3), common::fmt_fixed(actual, 3),
               common::fmt_fixed(initial_actual / actual, 3) + "x", std::to_string(res.iters)});
  }

  std::cout << "Ablation — SA move families on " << plan.str()
            << " (mid-range, 128 GPUs, SA budget " << sa.max_iters << " iterations)\n\n";
  bench::finish_table(t, env);
  return 0;
}
