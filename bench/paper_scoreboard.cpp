// The paper's claims in one checked program. It runs the figure
// reproductions in turn on the seed-2024 fabrics, prints each figure's table,
// then one summary table with the paper's value beside ours:
//
//   Fig. 5a  latency estimation: Pipette's refined model (Eqs. 3-6, profiled
//            bandwidths) and AMP's (Eq. 1, document bandwidths) against the
//            simulated runs. Paper MAPE: 5.87 % vs 23.18 %.
//   Fig. 5b  the top-10 recommendations of Varuna, AMP and Pipette, executed
//            one by one. Paper: 8, 8 and 0 of 10 run out of memory.
//   Fig. 6   training time of Megatron-LM (MLM), Varuna, AMP, PPT-L (latency
//            + memory estimators, default placement) and PPT-LF (+ worker
//            dedication) on 128 GPUs, normalized to MLM.
//   Fig. 7   memory estimation: the MLP trained on <= 4-node profiles and the
//            analytic baseline [20], on 8-16 nodes. Paper MAPE: 7.39 % /
//            6.42 % (MLP) and 65.71 % / 59.49 % (baseline), mid / high.
//   Fig. 8   PPT-LF over AMP at 32, 64 and 128 GPUs, weak-scaling the model.
//            Paper: 1.02x-1.17x.
//   Fig. 9   PPT-LF over AMP across micro- and minibatch sizes. Paper:
//            1.14x-1.44x.
//
// Every value is deterministic: SA is iteration-capped, and fabrics and
// estimator training are seeded. So the values are committed
// (BENCH_paper.json) and CI checks them.
//
//   --full        paper-scale budgets (see bench_common.h) instead of the fast
//                 profile
//   --json PATH   write the values: one "figure.key" per line, each the
//                 number its table prints at that precision (null where the
//                 plan ran out of memory) or the executed plan
//   --check PATH  exit 1 when any value differs from PATH's at its printed
//                 precision, or when PATH lacks or adds a value
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "estimators/analytic_memory.h"
#include "obs/json.h"

using namespace pipette;

namespace {

// The paper's evaluation cluster is 128 GPUs (16 nodes), and its minibatch
// 512 wherever a figure does not sweep it.
constexpr int kNodes = 16;
constexpr int kGlobalBatch = 512;

using MemoryEstimator = std::shared_ptr<const estimators::MlpMemoryEstimator>;

/// (key, JSON token) pairs: a number at its table's precision, null, or a
/// quoted plan string.
using Values = std::vector<std::pair<std::string, std::string>>;

/// What the figures report: every checked value in print order, and the
/// summary rows that put the paper's value beside ours.
struct Scoreboard {
  Values values;
  common::Table summary{{"figure", "claim", "paper", "ours"}};

  void number(const std::string& key, std::optional<double> v, int digits) {
    values.emplace_back(key, v && std::isfinite(*v) ? common::fmt_fixed(*v, digits) : "null");
  }
  void count(const std::string& key, long n) { values.emplace_back(key, std::to_string(n)); }
  void plan(const std::string& key, const std::optional<std::string>& plan) {
    std::string token;
    if (plan) obs::json_append_escaped(token, *plan);
    values.emplace_back(key, plan ? token : "null");
  }
  void claim(const std::string& figure, const std::string& what, const std::string& paper,
             const std::string& ours) {
    summary.add_row({figure, what, paper, ours});
  }
};

std::optional<double> time_of(const core::ExecutedOutcome& out) {
  if (!out.success) return std::nullopt;
  return out.run.time_s;
}

std::string speedup_range(const std::vector<double>& speedups) {
  if (speedups.empty()) return "-";
  const auto [lo, hi] = std::minmax_element(speedups.begin(), speedups.end());
  return common::fmt_fixed(*lo, 2) + "x-" + common::fmt_fixed(*hi, 2) + "x";
}

// ---- Fig. 5a: latency estimation accuracy -------------------------------
// The profile is taken on one day and the runs execute days later, like a
// real deployment, so even Pipette carries some drift error.
void fig5a(const bench::BenchEnv& env, Scoreboard* sb) {
  auto topo = bench::make_cluster("mid-range", kNodes, env.seed);
  const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), false), kGlobalBatch};

  const auto profiled = cluster::profile_network(topo, {});
  for (int d = 0; d < 10; ++d) topo.advance_day();  // execution happens days later
  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  sim::SimOptions sim_opt;

  common::Table t({"config", "actual s", "Pipette est s", "AMP est s", "Pipette err %",
                   "AMP err %"});
  std::vector<double> est_ppt, est_amp, actual;
  for (const auto& pc : parallel::enumerate_parallel_configs(
           topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers, {})) {
    for (int micro : parallel::micro_batch_options(job.global_batch, pc, {})) {
      const parallel::TrainPlan plan{pc, micro};
      if (!sim::fits_in_memory(topo.spec(), job, plan, estimators::kMemoryUniverseSeed)) {
        continue;
      }
      const auto prof = estimators::profile_compute(topo, job, plan, {});
      estimators::PipetteLatencyModel model(job, plan, prof, &profiled.bw, links);
      const auto mapping = parallel::Mapping::megatron_default(pc);
      const double e_p = model.estimate(mapping);
      const double e_a = estimators::amp_latency_estimate(job, plan, prof, links);
      const double act = sim::simulate_iteration(topo, job, mapping, plan, sim_opt).total_s;
      est_ppt.push_back(e_p);
      est_amp.push_back(e_a);
      actual.push_back(act);
      t.add_row({plan.str(), common::fmt_fixed(act, 2),
                 common::fmt_fixed(e_p, 2), common::fmt_fixed(e_a, 2),
                 common::fmt_fixed(100.0 * std::abs(e_p - act) / act, 1),
                 common::fmt_fixed(100.0 * std::abs(e_a - act) / act, 1)});
    }
  }

  const double mape_ppt = common::mape_percent(est_ppt, actual);
  const double mape_amp = common::mape_percent(est_amp, actual);
  std::cout << "Fig. 5a — latency estimation vs actual (" << actual.size()
            << " runnable configurations, mid-range, " << job.model.name << ")\n\n";
  bench::finish_table(t, env);
  std::cout << "\nMAPE  Pipette: " << common::fmt_fixed(mape_ppt, 2) << " %   (paper: 5.87 %)\n";
  std::cout << "MAPE  AMP    : " << common::fmt_fixed(mape_amp, 2) << " %   (paper: 23.18 %)\n";

  sb->count("fig5a.points", static_cast<long>(actual.size()));
  sb->number("fig5a.pipette_mape_pct", mape_ppt, 2);
  sb->number("fig5a.amp_mape_pct", mape_amp, 2);
  sb->claim("5a", "latency MAPE, Pipette", "5.87 %", common::fmt_fixed(mape_ppt, 2) + " %");
  sb->claim("5a", "latency MAPE, AMP", "23.18 %", common::fmt_fixed(mape_amp, 2) + " %");
}

// ---- Fig. 5b: top-10 recommendations executed ----------------------------
// The practicality argument for the memory estimator: the baselines' top
// picks run out of memory, Pipette's are runnable.
void fig5b(const bench::BenchEnv& env, const MemoryEstimator& memory, Scoreboard* sb) {
  const auto topo = bench::make_cluster("mid-range", kNodes, env.seed);
  const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), false), kGlobalBatch};
  sim::SimOptions sim_opt;

  common::Table t({"rank", "Varuna", "VR time/iter", "AMP", "AMP time/iter", "Pipette",
                   "PPT time/iter"});

  core::VarunaConfigurator vr;
  const auto r_vr = vr.configure(topo, job);
  core::AmpConfigurator amp;
  const auto r_amp = amp.configure(topo, job);
  auto ppt_opt = bench::pipette_options(env, /*dedication=*/false);
  ppt_opt.memory = memory;
  core::PipetteConfigurator ppt(ppt_opt);
  const auto r_ppt = ppt.configure(topo, job);

  auto row_of = [&](const core::ConfiguratorResult& rec, std::size_t i, std::string* cfg,
                    std::string* time, int* oom) {
    if (i >= rec.ranking.size()) return;  // cells stay "-"
    const auto& cand = rec.ranking[i].cand;
    const auto mapping = parallel::Mapping::megatron_default(cand.pc);
    const auto run = core::run_actual(topo, job, cand, mapping, sim_opt);
    *cfg = cand.str();
    if (run.oom) {
      *time = "OOM";
      ++*oom;
    } else {
      *time = common::fmt_fixed(run.time_s, 2) + " s";
    }
  };

  int oom_vr = 0, oom_amp = 0, oom_ppt = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    std::string c1 = "-", t1 = "-", c2 = "-", t2 = "-", c3 = "-", t3 = "-";
    row_of(r_vr, i, &c1, &t1, &oom_vr);
    row_of(r_amp, i, &c2, &t2, &oom_amp);
    row_of(r_ppt, i, &c3, &t3, &oom_ppt);
    t.add_row({std::to_string(i + 1), c1, t1, c2, t2, c3, t3});
  }

  std::cout << "Fig. 5b — top-10 recommendations executed on the mid-range cluster ("
            << job.model.name << ")\n\n";
  bench::finish_table(t, env);
  std::cout << "\nOOM in top 10:  Varuna " << oom_vr << "/10   AMP " << oom_amp
            << "/10   Pipette " << oom_ppt << "/10   (paper: 8/10, 8/10, 0/10)\n";

  sb->count("fig5b.varuna_oom_in_top10", oom_vr);
  sb->count("fig5b.amp_oom_in_top10", oom_amp);
  sb->count("fig5b.pipette_oom_in_top10", oom_ppt);
  sb->claim("5b", "OOM in top 10: Varuna / AMP / Pipette", "8 / 8 / 0",
            std::to_string(oom_vr) + " / " + std::to_string(oom_amp) + " / " +
                std::to_string(oom_ppt));
}

// ---- Fig. 6: training time and speedup ------------------------------------
// GPT-3.1B on the mid-range (V100) cluster, GPT-11.1B on the high-end (A100)
// one; MLM is manually tuned (tp = 8), Varuna pipeline-only.
struct MethodRun {
  std::string method;
  core::ExecutedOutcome outcome;
};

MethodRun run_method(core::Configurator& cfg, const cluster::Topology& topo,
                     const model::TrainingJob& job, const sim::SimOptions& sim_opt) {
  return {cfg.name(), core::execute_with_oom_fallback(topo, job, cfg.configure(topo, job),
                                                      sim_opt)};
}

void fig6(const bench::BenchEnv& env, const MemoryEstimator& mid_memory,
          const MemoryEstimator& high_memory, Scoreboard* sb) {
  common::Table table({"cluster", "model", "method", "config", "attempts", "time/iter (s)",
                       "vs MLM", "vs AMP"});
  // The printed speedup cells of the two Pipette arms, per tier.
  std::map<std::string, std::string> vs_mlm, vs_amp;

  for (const std::string tier : {"mid-range", "high-end"}) {
    const bool high = tier == "high-end";
    const auto topo = bench::make_cluster(tier, kNodes, env.seed);
    const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), high), kGlobalBatch};
    sim::SimOptions sim_opt;

    std::vector<MethodRun> runs;
    {
      core::MegatronOptions mo;
      core::MegatronHeuristic mlm(mo);
      runs.push_back(run_method(mlm, topo, job, sim_opt));
    }
    {
      core::VarunaConfigurator vr;
      runs.push_back(run_method(vr, topo, job, sim_opt));
    }
    {
      core::AmpConfigurator amp;
      runs.push_back(run_method(amp, topo, job, sim_opt));
    }
    for (bool dedication : {false, true}) {
      auto opt = bench::pipette_options(env, dedication);
      opt.memory = high ? high_memory : mid_memory;
      core::PipetteConfigurator ppt(opt);
      runs.push_back(run_method(ppt, topo, job, sim_opt));
    }

    double t_mlm = 0.0, t_amp = 0.0;
    for (const auto& r : runs) {
      if (r.method == "Megatron-LM" && r.outcome.success) t_mlm = r.outcome.run.time_s;
      if (r.method == "AMP" && r.outcome.success) t_amp = r.outcome.run.time_s;
    }
    for (const auto& r : runs) {
      const std::string key = "fig6." + tier + "." + r.method + ".";
      const auto t = time_of(r.outcome);
      const auto over = [&t](double base) -> std::optional<double> {
        if (!t || base <= 0) return std::nullopt;
        return base / *t;
      };
      const auto cell = [](std::optional<double> speedup) {
        return speedup ? common::fmt_fixed(*speedup, 2) + "x" : "-";
      };
      sb->plan(key + "plan", t ? std::optional(r.outcome.executed.str()) : std::nullopt);
      if (t) {
        table.add_row({tier, job.model.name, r.method, r.outcome.executed.str(),
                       std::to_string(r.outcome.attempts), common::fmt_fixed(*t, 2),
                       cell(over(t_mlm)), cell(over(t_amp))});
      } else {
        table.add_row({tier, job.model.name, r.method, "-", std::to_string(r.outcome.attempts),
                       "OOM", "-", "-"});
      }
      sb->number(key + "s_per_iter", t, 2);
      sb->number(key + "vs_mlm", over(t_mlm), 2);
      sb->number(key + "vs_amp", over(t_amp), 2);
      vs_mlm[tier + r.method] = cell(over(t_mlm));
      vs_amp[tier + r.method] = cell(over(t_amp));
    }
  }

  std::cout << "Fig. 6 — training time and speedup (normalized to Megatron-LM)\n\n";
  bench::finish_table(table, env);

  auto tiers = [](const std::map<std::string, std::string>& cells, const std::string& method) {
    return cells.at("mid-range" + method) + " / " + cells.at("high-end" + method);
  };
  sb->claim("6", "PPT-LF over MLM, mid / high", "1.07x / 1.26x", tiers(vs_mlm, "PPT-LF"));
  sb->claim("6", "PPT-LF over AMP, mid / high", "1.12x / 1.46x", tiers(vs_amp, "PPT-LF"));
  sb->claim("6", "PPT-L over AMP, mid / high", "1.06x / 1.35x", tiers(vs_amp, "PPT-L"));
}

// ---- Fig. 7: memory estimation accuracy -----------------------------------
void fig7(const bench::BenchEnv& env, const MemoryEstimator& mid_memory,
          const MemoryEstimator& high_memory, Scoreboard* sb) {
  common::Table summary({"cluster", "points", "MLP MAPE %", "baseline MAPE %",
                         "paper MLP %", "paper baseline %"});
  std::map<std::string, std::string> mlp_cell, base_cell;

  for (const std::string tier : {"mid-range", "high-end"}) {
    const bool high = tier == "high-end";
    const auto topo = bench::make_cluster(tier, kNodes, env.seed);
    const auto& mlp = high ? high_memory : mid_memory;

    std::vector<double> est_mlp, est_base, actual;
    common::Table detail({"config", "model", "actual GB", "MLP est GB", "baseline est GB"});
    // Evaluation set: weak-scaled models on 8..16 nodes — mostly beyond the
    // <= 4-node profiling range, exercising extrapolation.
    for (int eval_nodes : {8, 12, 16}) {
      const int gpus = eval_nodes * topo.gpus_per_node();
      const model::TrainingJob job{model::weak_scaled_model(gpus, high), 512};
      for (const auto& pc : parallel::enumerate_parallel_configs(
               gpus, topo.gpus_per_node(), job.model.num_layers, {})) {
        for (int micro : parallel::micro_batch_options(job.global_batch, pc, {})) {
          const parallel::TrainPlan plan{pc, micro};
          const auto mem =
              sim::simulate_peak_memory(topo.spec(), job, plan, estimators::kMemoryUniverseSeed);
          if (mem.total_bytes > topo.spec().gpu_memory_bytes) continue;  // not measurable
          actual.push_back(mem.total_bytes);
          est_mlp.push_back(mlp->estimate_bytes(job, plan));
          est_base.push_back(estimators::analytic_memory_estimate(job, plan));
          if (actual.size() % 8 == 1) {  // sample rows for the table
            detail.add_row({plan.str(), job.model.name,
                            common::fmt_fixed(actual.back() / 1e9, 1),
                            common::fmt_fixed(est_mlp.back() / 1e9, 1),
                            common::fmt_fixed(est_base.back() / 1e9, 1)});
          }
        }
      }
    }

    std::cout << "Fig. 7 (" << tier << ") — sample of " << actual.size()
              << " measured configurations:\n\n";
    detail.print(std::cout);
    std::cout << "\n";

    const double mape_mlp = common::mape_percent(est_mlp, actual);
    const double mape_base = common::mape_percent(est_base, actual);
    summary.add_row({tier, std::to_string(actual.size()), common::fmt_fixed(mape_mlp, 2),
                     common::fmt_fixed(mape_base, 2), high ? "6.42" : "7.39",
                     high ? "59.49" : "65.71"});
    sb->count("fig7." + tier + ".points", static_cast<long>(actual.size()));
    sb->number("fig7." + tier + ".mlp_mape_pct", mape_mlp, 2);
    sb->number("fig7." + tier + ".baseline_mape_pct", mape_base, 2);
    mlp_cell[tier] = common::fmt_fixed(mape_mlp, 2) + " %";
    base_cell[tier] = common::fmt_fixed(mape_base, 2) + " %";
  }

  std::cout << "Fig. 7 — memory estimation accuracy summary\n\n";
  bench::finish_table(summary, env);

  sb->claim("7", "memory MAPE, MLP, mid / high", "7.39 % / 6.42 %",
            mlp_cell["mid-range"] + " / " + mlp_cell["high-end"]);
  sb->claim("7", "memory MAPE, analytic baseline, mid / high", "65.71 % / 59.49 %",
            base_cell["mid-range"] + " / " + base_cell["high-end"]);
}

// ---- Fig. 8: cluster and model size scalability ---------------------------
// Speedups grow with cluster size as heterogeneity becomes more visible.
void fig8(const bench::BenchEnv& env, const MemoryEstimator& mid_memory,
          const MemoryEstimator& high_memory, Scoreboard* sb) {
  common::Table t({"cluster", "#GPUs (model)", "AMP s/iter", "Pipette s/iter", "speedup"});
  std::vector<double> speedups;

  for (const std::string tier : {"mid-range", "high-end"}) {
    const bool high = tier == "high-end";
    const auto full = bench::make_cluster(tier, kNodes, env.seed);
    for (int nodes : {4, 8, 16}) {
      const auto topo = full.sub_cluster(nodes);
      const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), high), kGlobalBatch};
      sim::SimOptions sim_opt;

      core::AmpConfigurator amp;
      const auto amp_out =
          core::execute_with_oom_fallback(topo, job, amp.configure(topo, job), sim_opt);

      auto opt = bench::pipette_options(env, /*dedication=*/true);
      opt.memory = high ? high_memory : mid_memory;
      core::PipetteConfigurator ppt(opt);
      const auto ppt_out =
          core::execute_with_oom_fallback(topo, job, ppt.configure(topo, job), sim_opt);

      const std::string key = "fig8." + tier + "." + std::to_string(topo.num_gpus()) + "_gpus.";
      const auto t_amp = time_of(amp_out), t_ppt = time_of(ppt_out);
      std::optional<double> speedup;
      if (t_amp && t_ppt) speedup = *t_amp / *t_ppt;
      sb->number(key + "amp_s_per_iter", t_amp, 2);
      sb->number(key + "pipette_s_per_iter", t_ppt, 2);
      sb->number(key + "speedup", speedup, 2);

      const std::string label =
          std::to_string(topo.num_gpus()) + " (" + job.model.name + ")";
      if (!speedup) {
        t.add_row({tier, label, t_amp ? "ok" : "OOM", t_ppt ? "ok" : "OOM", "-"});
        continue;
      }
      speedups.push_back(*speedup);
      t.add_row({tier, label, common::fmt_fixed(*t_amp, 2), common::fmt_fixed(*t_ppt, 2),
                 common::fmt_fixed(*speedup, 2) + "x"});
    }
  }

  std::cout << "Fig. 8 — cluster and model size scalability (speedup of Pipette over AMP; "
               "paper: 1.02x-1.17x)\n\n";
  bench::finish_table(t, env);
  sb->claim("8", "PPT-LF over AMP, 32-128 GPUs", "1.02x-1.17x", speedup_range(speedups));
}

// ---- Fig. 9: micro/minibatch sensitivity ----------------------------------
// (a) microbatch size fixed to 1/2/4/8 with minibatch 256; (b) minibatch 64
// to 1024 with microbatch 8, both on the mid-range cluster. The paper finds
// at least one AMP point entirely OOM.
void fig9_point(const cluster::Topology& topo, const MemoryEstimator& memory,
                const bench::BenchEnv& env, int global_batch, int fixed_micro,
                const std::string& key, const std::string& label, common::Table* t,
                std::vector<double>* speedups, Scoreboard* sb) {
  const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), false), global_batch};
  sim::SimOptions sim_opt;

  parallel::ConfigConstraints cons;
  cons.fixed_micro_batch = fixed_micro;
  cons.max_micro_batch = std::max(8, fixed_micro);

  core::AmpOptions amp_opt;
  amp_opt.constraints = cons;
  core::AmpConfigurator amp(amp_opt);
  const auto t_amp = time_of(
      core::execute_with_oom_fallback(topo, job, amp.configure(topo, job), sim_opt));

  auto ppt_opt = bench::pipette_options(env, /*dedication=*/true);
  ppt_opt.memory = memory;
  ppt_opt.constraints = cons;
  core::PipetteConfigurator ppt(ppt_opt);
  const auto t_ppt = time_of(
      core::execute_with_oom_fallback(topo, job, ppt.configure(topo, job), sim_opt));

  std::optional<double> speedup;
  if (t_amp && t_ppt) {
    speedup = *t_amp / *t_ppt;
    speedups->push_back(*speedup);
  }
  sb->number(key + "amp_s_per_iter", t_amp, 2);
  sb->number(key + "pipette_s_per_iter", t_ppt, 2);
  sb->number(key + "speedup", speedup, 2);
  t->add_row({label, t_amp ? common::fmt_fixed(*t_amp, 2) : "OOM",
              t_ppt ? common::fmt_fixed(*t_ppt, 2) : "OOM",
              speedup ? common::fmt_fixed(*speedup, 2) + "x" : "-"});
}

void fig9(const bench::BenchEnv& env, const MemoryEstimator& memory, Scoreboard* sb) {
  const auto topo = bench::make_cluster("mid-range", kNodes, env.seed);
  std::vector<double> speedups;

  common::Table ta({"microbatch (mini=256)", "AMP s/iter", "Pipette s/iter", "speedup"});
  for (int micro : {1, 2, 4, 8}) {
    fig9_point(topo, memory, env, /*global_batch=*/256, micro,
               "fig9a.micro_" + std::to_string(micro) + ".", std::to_string(micro), &ta,
               &speedups, sb);
  }
  std::cout << "Fig. 9a — microbatch sensitivity (minibatch 256, mid-range)\n\n";
  bench::finish_table(ta, env);

  common::Table tb({"minibatch (micro=8)", "AMP s/iter", "Pipette s/iter", "speedup"});
  for (int mini : {64, 128, 256, 512, 1024}) {
    fig9_point(topo, memory, env, mini, /*fixed_micro=*/8,
               "fig9b.mini_" + std::to_string(mini) + ".", std::to_string(mini), &tb, &speedups,
               sb);
  }
  std::cout << "\nFig. 9b — minibatch sensitivity (microbatch 8, mid-range; paper speedup "
               "1.14x-1.44x)\n\n";
  bench::finish_table(tb, env);
  sb->claim("9", "PPT-LF over AMP, all batch points", "1.14x-1.44x", speedup_range(speedups));
}

// ---- the committed values ---------------------------------------------------

std::string to_json(const Values& values) {
  std::string out = "{\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += "  ";
    obs::json_append_escaped(out, values[i].first);
    out += ": " + values[i].second + (i + 1 < values.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

/// Reads back the file to_json writes, one `"key": token` per line; a token
/// keeps its text, so comparing tokens compares printed values. A line of
/// any other shape is skipped, and the values it held are then reported
/// missing.
std::optional<Values> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  static const std::regex kLine(R"re(\s*"([^"]+)": (.+?),?\s*)re");
  Values values;
  std::smatch m;
  for (std::string line; std::getline(in, line);) {
    if (std::regex_match(line, m, kLine)) values.emplace_back(m[1], m[2]);
  }
  return values;
}

/// Prints every value that differs from the committed file, in print order,
/// then every committed value the run no longer produces. 0 when none.
int check(const Values& now, const std::string& path) {
  const auto committed = read_json(path);
  if (!committed) {
    std::cout << "\ncannot open " << path << "\n";
    return 1;
  }
  std::map<std::string, std::string> want(committed->begin(), committed->end());
  int diffs = 0;
  std::cout << "\n";
  for (const auto& [key, token] : now) {
    const auto it = want.find(key);
    if (it == want.end()) {
      std::cout << "  " << key << ": not in " << path << ", now " << token << "\n";
      ++diffs;
      continue;
    }
    if (it->second != token) {
      std::cout << "  " << key << ": committed " << it->second << ", now " << token << "\n";
      ++diffs;
    }
    want.erase(it);
  }
  for (const auto& [key, token] : want) {
    std::cout << "  " << key << ": committed " << token << ", no longer reported\n";
    ++diffs;
  }
  if (diffs > 0) {
    std::cout << diffs << " value(s) differ from " << path
              << "; re-commit it with --json if the change is intended\n";
    return 1;
  }
  std::cout << "all " << now.size() << " values match " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  if (const auto unknown = cli.first_unknown({"full", "json", "check"})) {
    std::cerr << "unknown flag --" << *unknown << "\n";
    return 2;
  }
  bench::BenchEnv env;
  env.full = cli.get_bool("full", false);
  const std::string json_path = cli.get_string("json", "");
  const std::string check_path = cli.get_string("check", "");

  Scoreboard sb;
  sb.plan("command", env.full ? "./build/paper_scoreboard --full" : "./build/paper_scoreboard");
  sb.count("seed", static_cast<long>(env.seed));

  // One memory estimator per tier, trained on the 16-node fabric and shared
  // by every figure that filters or measures with it.
  const auto mid_memory =
      bench::train_memory_estimator(bench::make_cluster("mid-range", kNodes, env.seed), env);
  const auto high_memory =
      bench::train_memory_estimator(bench::make_cluster("high-end", kNodes, env.seed), env);

  fig5a(env, &sb);
  std::cout << "\n";
  fig5b(env, mid_memory, &sb);
  std::cout << "\n";
  fig6(env, mid_memory, high_memory, &sb);
  std::cout << "\n";
  fig7(env, mid_memory, high_memory, &sb);
  std::cout << "\n";
  fig8(env, mid_memory, high_memory, &sb);
  std::cout << "\n";
  fig9(env, mid_memory, &sb);

  std::cout << "\nPaper scoreboard — the paper's value beside ours ("
            << (env.full ? "paper-scale" : "fast") << " profile, seed " << env.seed << ")\n\n";
  sb.summary.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << to_json(sb.values);
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "(json written to " << json_path << ")\n";
  }
  return check_path.empty() ? 0 : check(sb.values, check_path);
}
