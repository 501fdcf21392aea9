// Engine throughput: a 16-request configuration sweep against one cluster,
// served two ways.
//
//   serial — the pre-engine workflow: one fresh PipetteConfigurator per
//            request, so every request re-profiles the fabric and retrains
//            the MLP memory estimator.
//   engine — one ConfigService: the cluster-fingerprint cache pays the
//            profile/training cost once and the thread pool fans requests
//            and per-request candidate scoring / SA passes out.
//
// Both sides use an iteration-capped SA budget, so the engine's
// recommendations are bit-identical to the serial ones (verified and
// reported). The acceptance bar for the engine subsystem is >= 3x.
//
// --deadline-arm replaces the comparison with the deadline experiment: after
// one unbounded warm-up request primes the cluster cache, a stream of
// sequential requests runs under a per-request deadline with an SA budget
// that would run minutes if not truncated. Every request must return a valid
// plan, and the p99 overrun must stay within --max-overrun-frac of the
// deadline — the anytime-SA latency guarantee, gated in CI.
//
// --restart-arm measures the persistent cache tier (src/persist): a cold
// service populates a snapshot directory while serving the request stream,
// then a second service warm-starts from the snapshots and serves the same
// stream. The warm side must recommend bit-identically to the cold side and
// beat it by --min-restart-speedup (>= 5x gated in CI) — restarting a
// configuration service must not cost a re-profile of the fleet.
//
// Run:  ./engine_throughput [--requests 16] [--nodes 2] [--threads N]
//                           [--full] [--seed N] [--csv PATH]
//                           [--deadline-arm] [--deadline-ms 300]
//                           [--max-overrun-frac 0.10]
//                           [--restart-arm] [--snapshot-dir D]
//                           [--min-restart-speedup 5.0]
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/config_service.h"

using namespace pipette;

namespace {

/// Same recommendation (winner, predicted latency, full preference order)?
bool same_result(const core::ConfiguratorResult& a, const core::ConfiguratorResult& b) {
  if (a.found != b.found || !(a.best == b.best) || a.predicted_s != b.predicted_s) return false;
  if (a.ranking.size() != b.ranking.size()) return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (!(a.ranking[i].cand == b.ranking[i].cand)) return false;
    if (a.ranking[i].predicted_s != b.ranking[i].predicted_s) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const auto env = bench::BenchEnv::from_cli(cli);
  const int requests = cli.get_int("requests", 16);
  const int nodes = cli.get_int("nodes", 2);
  const int threads = cli.get_int("threads", 0);

  const auto topo = bench::make_cluster("mid-range", nodes, env.seed);

  // The request stream: the zoo's two small models across the paper's batch
  // range, repeated — the shape of real configuration traffic, where many
  // jobs target the same cluster.
  const std::vector<model::TrainingJob> job_pool = {
      {model::gpt_774m(), 128}, {model::gpt_774m(), 256}, {model::gpt_774m(), 512},
      {model::gpt_1_1b(), 128}, {model::gpt_1_1b(), 256}, {model::gpt_1_1b(), 512},
  };
  std::vector<model::TrainingJob> jobs;
  for (int i = 0; i < requests; ++i) jobs.push_back(job_pool[static_cast<std::size_t>(i) % job_pool.size()]);

  // Iteration-capped SA keeps the two sides comparable request for request
  // (and makes the engine's output bit-identical to the serial one).
  core::PipetteOptions opt = bench::pipette_options(env, /*dedication=*/true);
  opt.sa.max_iters = env.full ? 100000 : 1500;
  opt.sa_halving.rung0_iters = 0;  // race the budget, as the service does by default
  if (!env.full) {
    opt.memory_training.hidden = {64, 64};
    opt.memory_training.train.iters = 4000;
    opt.memory_training.max_profile_nodes = 2;
    opt.memory_training.profile_global_batches = {128};
    opt.memory_training.soft_margin = 0.2;
  }

  if (cli.get_bool("deadline-arm", false)) {
    const double deadline_s = cli.get_double("deadline-ms", 300.0) / 1000.0;
    const double max_overrun_frac = cli.get_double("max-overrun-frac", 0.10);

    // An SA budget that would run for minutes un-truncated: the deadline, not
    // the iteration cap, must be what stops the anneal.
    core::PipetteOptions dopt = opt;
    dopt.sa.max_iters = 200000000;
    engine::ConfigServiceOptions dso;
    dso.threads = threads;
    dso.pipette = dopt;
    engine::ConfigService service(dso);

    std::cout << "Cluster " << topo.spec().name << " (" << topo.num_gpus() << " GPUs), "
              << requests << " deadline-bound requests at "
              << common::fmt_fixed(deadline_s * 1000.0, 0) << " ms each\n\n";

    // Warm-up primes the profile snapshot and the trained estimator — the
    // phases a deadline cannot skip are then cache hits, and the measured
    // overrun isolates the anytime-SA truncation latency. The warm-up itself
    // runs under a deadline too: profiling and training complete regardless
    // (they are not the anytime part), and the huge SA budget must never run
    // to its iteration cap.
    engine::RequestOptions warm_ro;
    warm_ro.deadline_s = 2.0;
    const auto warm = service.submit_request(topo, job_pool[0], warm_ro).get();
    if (!warm.ok()) {
      std::cerr << "warm-up request failed: " << warm.error << "\n";
      return 1;
    }

    engine::RequestOptions ro;
    ro.deadline_s = deadline_s;
    std::vector<double> overruns;
    int failures = 0;
    for (int i = 0; i < requests; ++i) {
      const auto sr =
          service.submit_request(topo, job_pool[static_cast<std::size_t>(i) % job_pool.size()], ro)
              .get();
      if (!sr.ok() || !sr.result.found) ++failures;
      overruns.push_back(sr.result.health.overrun_s);
    }
    std::sort(overruns.begin(), overruns.end());
    auto pct = [&](double p) {
      const auto idx = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(overruns.size()))) - 1;
      return overruns[std::min(idx, overruns.size() - 1)];
    };
    const double p50 = pct(0.50), p99 = pct(0.99), worst = overruns.back();
    const double bound = max_overrun_frac * deadline_s;

    common::Table t({"metric", "overrun", "of deadline"});
    for (const auto& [name, v] :
         {std::pair<const char*, double>{"p50", p50}, {"p99", p99}, {"max", worst}}) {
      t.add_row({name, common::fmt_fixed(v * 1000.0, 1) + " ms",
                 common::fmt_fixed(100.0 * v / deadline_s, 1) + "%"});
    }
    bench::finish_table(t, env);

    const bool pass = failures == 0 && p99 <= bound;
    std::cout << "\nvalid plans: " << (requests - failures) << "/" << requests
              << ", p99 overrun " << common::fmt_fixed(p99 * 1000.0, 1) << " ms (bound "
              << common::fmt_fixed(bound * 1000.0, 1) << " ms): "
              << (pass ? "PASS" : "FAIL") << "\n";
    return pass ? 0 : 1;
  }

  if (cli.get_bool("restart-arm", false)) {
    const double min_speedup = cli.get_double("min-restart-speedup", 5.0);
    const std::string snapshot_dir = cli.get_string("snapshot-dir", "restart_arm_snapshots");
    std::filesystem::remove_all(snapshot_dir);  // measure a genuinely cold start

    std::cout << "Cluster " << topo.spec().name << " (" << topo.num_gpus() << " GPUs), "
              << requests << " requests, cold start vs warm restart from " << snapshot_dir
              << "\n\n";

    engine::ConfigServiceOptions so;
    so.threads = threads;
    so.pipette = opt;
    so.cache.snapshot_dir = snapshot_dir;

    // Cold arm: profile + train while serving, persisting as it goes. The
    // flush is inside the timed window — a fair restart story includes the
    // cost of writing the snapshots you will depend on.
    std::vector<engine::ServiceResult> cold_results;
    const common::Stopwatch t_cold;
    {
      engine::ConfigService cold(so);
      cold_results = cold.sweep(topo, jobs);
      cold.flush_snapshots();
    }
    const double cold_s = t_cold.seconds();

    // Warm arm: a fresh process-equivalent service on the same directory.
    const common::Stopwatch t_warm;
    engine::ConfigService warm(so);
    const auto warm_results = warm.sweep(topo, jobs);
    const double warm_s = t_warm.seconds();

    const auto& lr = warm.load_report();
    int mismatches = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!same_result(cold_results[i].result, warm_results[i].result)) ++mismatches;
    }
    const auto stats = warm.cache_stats();
    const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

    common::Table t({"mode", "wall", "req/s", "trainings", "profiles", "speedup"});
    t.add_row({"cold", common::fmt_duration(cold_s), common::fmt_fixed(requests / cold_s, 2),
               "1", "1", "1.00x"});
    t.add_row({"warm", common::fmt_duration(warm_s), common::fmt_fixed(requests / warm_s, 2),
               std::to_string(stats.trainings_run), std::to_string(stats.profiles_run),
               common::fmt_fixed(speedup, 2) + "x"});
    bench::finish_table(t, env);

    std::cout << "\nsnapshot load: " << lr.str() << "\n";
    std::cout << "warm recomputed: " << stats.profiles_run << " profiles, "
              << stats.trainings_run << " trainings\n";
    std::cout << "recommendations identical to cold: "
              << (mismatches == 0 ? "yes" : "NO (" + std::to_string(mismatches) + " differ)")
              << "\n";
    std::cout << "restart speedup: " << common::fmt_fixed(speedup, 2) << "x (target >= "
              << common::fmt_fixed(min_speedup, 1) << "x)\n";
    const bool pass = mismatches == 0 && lr.clean() && lr.loaded() > 0 && speedup >= min_speedup;
    std::cout << (pass ? "PASS" : "FAIL") << "\n";
    return pass ? 0 : 1;
  }

  std::cout << "Cluster " << topo.spec().name << " (" << topo.num_gpus() << " GPUs), "
            << requests << " configure requests\n\n";

  // Serial baseline: a fresh configurator per request, nothing shared.
  std::vector<core::ConfiguratorResult> serial_results;
  const common::Stopwatch t_serial;
  for (const auto& job : jobs) {
    core::PipetteConfigurator cfg(opt);
    serial_results.push_back(cfg.configure(topo, job));
  }
  const double serial_s = t_serial.seconds();

  // The engine: shared pool + cluster-fingerprint cache.
  engine::ConfigServiceOptions so;
  so.threads = threads;
  so.pipette = opt;
  engine::ConfigService service(so);
  const common::Stopwatch t_engine;
  const auto engine_results = service.sweep(topo, jobs);
  const double engine_s = t_engine.seconds();

  int mismatches = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!same_result(serial_results[i], engine_results[i].result)) ++mismatches;
  }
  const auto stats = service.cache_stats();
  const double speedup = engine_s > 0.0 ? serial_s / engine_s : 0.0;

  common::Table t({"mode", "wall", "req/s", "trainings", "profiles", "speedup"});
  t.add_row({"serial", common::fmt_duration(serial_s),
             common::fmt_fixed(requests / serial_s, 2), std::to_string(requests),
             std::to_string(requests), "1.00x"});
  t.add_row({"engine", common::fmt_duration(engine_s),
             common::fmt_fixed(requests / engine_s, 2), std::to_string(stats.trainings_run),
             std::to_string(stats.profiles_run), common::fmt_fixed(speedup, 2) + "x"});
  bench::finish_table(t, env);

  std::cout << "\npool threads: " << service.pool().num_threads() << ", cache lookups "
            << stats.lookups << ", hits " << stats.hits << "\n";
  std::cout << "recommendations identical to serial: "
            << (mismatches == 0 ? "yes" : "NO (" + std::to_string(mismatches) + " differ)") << "\n";
  std::cout << "speedup: " << common::fmt_fixed(speedup, 2) << "x (target >= 3x)\n";
  return mismatches == 0 && speedup >= 3.0 ? 0 : 1;
}
