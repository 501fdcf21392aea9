// Table II — configuration overhead of Pipette, reworked as the perf gate
// for the sublinear configure() work:
//
//   * legacy arm: the paper's Algorithm 1 allocation (SA on every surviving
//     candidate at the full budget), run as the SA race with
//     sa_halving.rung0_iters = max_iters (rung 0 already grants every
//     candidate the full budget);
//   * memoized arm: successive-halving SA at the *same* per-candidate
//     iteration budget (the JSON key is older than shape grouping in both
//     arms, and CI artifacts read it).
//
// Both arms profile each distinct compute shape once per request, and both
// share one pre-trained memory estimator and one bandwidth snapshot, so the
// measured configure() wall time isolates the per-request phases (memory
// filter, scoring, SA). Per-phase wall and aggregate CPU-seconds are reported
// separately — under a parallel executor they differ, and summing per-slot
// durations (the old behaviour) overreports wall clock.
//
//   --full            paper-scale budgets
//   --seed N          heterogeneity universe seed (default 2024)
//   --train-iters N   training-run length for the overhead column
//   --sa-iters N      per-candidate SA iteration budget (equal in both arms)
//   --csv PATH        mirror the printed table to CSV
//   --json PATH       machine-readable BENCH_config_overhead.json payload
//   --min-speedup X   fail (exit 3) if the 16-node memoized speedup < X
//   --sim-tolerance T fail (exit 2) if the memoized arm's recommended plan
//                     simulates worse than legacy by more than T (default 1e-9
//                     relative; the halving winner must not regress quality)
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "bench_common.h"
#include "common/stopwatch.h"

using namespace pipette;

namespace {

struct ArmRun {
  core::ConfiguratorResult rec;
  double wall_s = 0.0;   ///< real elapsed around configure()
  double sim_s = 0.0;    ///< simulated iteration time of the executed plan
  bool sim_ok = false;
};

ArmRun run_arm(core::PipetteConfigurator& ppt, const cluster::Topology& topo,
               const model::TrainingJob& job) {
  ArmRun r;
  const common::Stopwatch t0;
  r.rec = ppt.configure(topo, job);
  r.wall_s = t0.seconds();
  const auto out = core::execute_with_oom_fallback(topo, job, r.rec, {});
  r.sim_ok = out.success;
  r.sim_s = out.success ? out.run.time_s : 0.0;
  return r;
}

/// The overhead column in scientific notation: a memoized request is about
/// 2e-5 % of its training run, which fixed notation prints as zero.
std::string fmt_sci(double v) {
  std::ostringstream ss;
  ss << std::scientific << std::setprecision(2) << v;
  return ss.str();
}

std::string phase_cells(const core::ConfiguratorResult& rec) {
  return common::fmt_duration(rec.mem_est_wall_s) + "/" + common::fmt_duration(rec.mem_est_cpu_s);
}

void json_arm(std::ofstream& os, const char* name, const ArmRun& a) {
  const auto& rec = a.rec;
  os << "      \"" << name << "\": {\"wall_s\": " << a.wall_s
     << ", \"mem_est_wall_s\": " << rec.mem_est_wall_s
     << ", \"mem_est_cpu_s\": " << rec.mem_est_cpu_s
     << ", \"score_wall_s\": " << rec.score_wall_s << ", \"score_cpu_s\": " << rec.score_cpu_s
     << ", \"search_wall_s\": " << rec.search_wall_s
     << ", \"search_cpu_s\": " << rec.search_cpu_s << ", \"sa_iters\": " << rec.sa_iters
     << ", \"sa_rungs\": " << rec.sa_rungs << ", \"shapes_profiled\": " << rec.shapes_profiled
     << ", \"shapes_reused\": " << rec.shapes_reused
     << ", \"candidates\": " << rec.candidates_evaluated << ", \"best\": \"" << rec.best.str()
     << "\", \"predicted_s\": " << rec.predicted_s << ", \"sim_s\": " << a.sim_s << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  if (const auto unknown = cli.first_unknown({"full", "seed", "csv", "json", "train-iters",
                                              "sa-iters", "min-speedup", "sim-tolerance"})) {
    std::cerr << "unknown flag --" << *unknown << "\n";
    return 1;
  }
  const auto env = bench::BenchEnv::from_cli(cli);
  const long long total_iters = cli.get_int("train-iters", 300000);
  const long sa_iters = cli.get_int("sa-iters", env.full ? 200000 : 20000);
  const std::string json_path = cli.get_string("json", "");
  const double min_speedup = cli.get_double("min-speedup", 0.0);
  const double sim_tol = cli.get_double("sim-tolerance", 1e-9);

  common::Table t({"cluster", "nodes (model)", "arm", "mem est w/c", "scoring w/c", "SA w/c",
                   "configure()", "speedup", "sa iters", "shapes p/r", "sim itr",
                   "overhead %"});

  struct ShapeRow {
    std::string tier;
    int nodes;
    std::string model;
    ArmRun legacy, memoized;
  };
  std::vector<ShapeRow> rows;

  for (const std::string tier : {"mid-range", "high-end"}) {
    const bool high = tier == "high-end";
    const auto full = bench::make_cluster(tier, 16, env.seed);
    const auto memory = bench::train_memory_estimator(full, env);

    // Equal budgets in both arms: iteration-capped SA so the race is
    // deterministic and the comparison is work-for-work, not clock-for-clock.
    auto base_opt = bench::pipette_options(env, /*dedication=*/true);
    base_opt.memory = memory;
    base_opt.sa.max_iters = sa_iters;
    base_opt.sa_halving.rung0_iters = 0;  // successive halving over every candidate

    for (int nodes : {8, 16}) {
      const auto topo = full.sub_cluster(nodes);
      const model::TrainingJob job{model::weak_scaled_model(topo.num_gpus(), high), 512};
      const auto snapshot = std::make_shared<const cluster::ProfileResult>(
          cluster::profile_network(topo, base_opt.profile));

      auto legacy_opt = base_opt;
      legacy_opt.profile_snapshot = snapshot;
      legacy_opt.sa_halving.rung0_iters = sa_iters;  // Algorithm 1: full budget each
      core::PipetteConfigurator legacy_ppt(legacy_opt);

      auto memo_opt = base_opt;
      memo_opt.profile_snapshot = snapshot;
      core::PipetteConfigurator memo_ppt(memo_opt);

      ShapeRow row{tier, nodes, job.model.name, {}, {}};
      row.legacy = run_arm(legacy_ppt, topo, job);
      row.memoized = run_arm(memo_ppt, topo, job);
      rows.push_back(row);

      const double ppt_days =
          row.memoized.sim_ok ? row.memoized.sim_s * total_iters / 86400.0 : 0.0;
      auto add = [&](const char* arm, const ArmRun& a, double speedup) {
        const double overhead_pct =
            ppt_days > 0 ? 100.0 * a.wall_s / (ppt_days * 86400.0) : 0.0;
        t.add_row({tier, std::to_string(nodes) + " (" + job.model.name + ")", arm,
                   phase_cells(a.rec),
                   common::fmt_duration(a.rec.score_wall_s) + "/" +
                       common::fmt_duration(a.rec.score_cpu_s),
                   common::fmt_duration(a.rec.search_wall_s) + "/" +
                       common::fmt_duration(a.rec.search_cpu_s),
                   common::fmt_duration(a.wall_s),
                   speedup > 0 ? common::fmt_fixed(speedup, 1) + "x" : "-",
                   std::to_string(a.rec.sa_iters),
                   std::to_string(a.rec.shapes_profiled) + "/" +
                       std::to_string(a.rec.shapes_reused),
                   a.sim_ok ? common::fmt_duration(a.sim_s) : "OOM",
                   fmt_sci(overhead_pct)});
      };
      add("legacy", row.legacy, 0.0);
      add("memoized", row.memoized, row.legacy.wall_s / std::max(1e-9, row.memoized.wall_s));
    }
  }

  std::cout << "Table II (reworked) — configuration overhead, legacy vs memoized+halving, "
               "per-phase wall/cpu seconds ("
            << sa_iters << " SA iters per candidate, " << total_iters << " training iterations";
  if (!env.full) std::cout << "; fast profile — use --full for paper-scale budgets";
  std::cout << ")\n\n";
  bench::finish_table(t, env);

  // Machine-readable trajectory + CI gate payload.
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"generated_by\": \"bench/table2_config_overhead\",\n";
    os << "  \"sa_budget_iters_per_candidate\": " << sa_iters << ",\n";
    os << "  \"seed\": " << env.seed << ",\n";
    // CI's single source of truth (mirrors BENCH_sa_throughput.json): the
    // 16-node end-to-end speedup floor, generous against runner noise — the
    // measured worst row is well above it.
    os << "  \"ci_floor_speedup\": " << (min_speedup > 0.0 ? min_speedup : 5.0) << ",\n";
    os << "  \"shapes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      os << "    {\"tier\": \"" << r.tier << "\", \"nodes\": " << r.nodes << ", \"model\": \""
         << r.model << "\",\n";
      json_arm(os, "legacy", r.legacy);
      json_arm(os, "memoized", r.memoized);
      os << "      \"speedup\": " << r.legacy.wall_s / std::max(1e-9, r.memoized.wall_s) << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    std::cout << "(json written to " << json_path << ")\n";
  }

  // Gates. Recommendation quality first: the halving winner must simulate no
  // worse than the legacy head on every shape.
  for (const auto& r : rows) {
    if (!r.legacy.sim_ok || !r.memoized.sim_ok) continue;
    if (r.memoized.sim_s > r.legacy.sim_s * (1.0 + sim_tol)) {
      std::cerr << "REGRESSION: memoized recommendation simulates "
                << r.memoized.sim_s / r.legacy.sim_s << "x the legacy head on " << r.tier << "/"
                << r.nodes << " nodes\n";
      return 2;
    }
  }
  if (min_speedup > 0.0) {
    double worst = std::numeric_limits<double>::infinity();
    for (const auto& r : rows) {
      if (r.nodes != 16) continue;
      worst = std::min(worst, r.legacy.wall_s / std::max(1e-9, r.memoized.wall_s));
    }
    if (worst < min_speedup) {
      std::cerr << "REGRESSION: 16-node memoized configure() speedup " << worst
                << "x fell below the stored floor " << min_speedup << "x\n";
      return 3;
    }
  }
  return 0;
}
