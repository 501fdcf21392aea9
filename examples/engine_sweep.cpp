// Engine quickstart: serve a whole scenario study with one ConfigService.
//
// The batch-sensitivity question — "how does the recommended configuration
// change with the global batch size?" — becomes a single `sweep` call: the
// cluster is profiled and the memory estimator trained exactly once (the
// cluster-fingerprint cache), and the per-batch configure requests share the
// engine's thread pool.
//
// With --trace the whole study is also captured as one Chrome trace-format
// timeline (open the file in Perfetto / chrome://tracing), --metrics dumps
// the service's Prometheus exposition, and --explain prints the winning
// request's structured report.
//
// --faults <seed> arms the deterministic chaos schedule (engine/faults.h):
// one seed-derived fault is injected into every profiling run and the sweep
// reports each request's typed outcome and plan health. --deadline-ms gives
// every request a wall-clock budget; overruns return the best-so-far plan
// with deadline_exceeded set instead of running long.
//
// --snapshot-dir <d> arms the persistent cache tier: the first run profiles
// and trains cold, then persists every artifact into <d>; a second run with
// --restart warm-starts from the snapshots (the load report says what was
// loaded vs skipped) and serves the same study without re-profiling.
// --load-report <path> writes the structured LoadReport JSON (the crash
// recovery CI uploads it), and --persist-write-delay-ms widens the
// torn-write window so a SIGKILL mid-run reliably lands inside a write.
// Composes with --faults and --explain.
//
// Run:  ./engine_sweep [--nodes 2] [--threads N] [--model gpt-774m]
//                      [--trace sweep_trace.json] [--metrics] [--explain]
//                      [--faults SEED] [--deadline-ms MS]
//                      [--snapshot-dir D] [--restart] [--load-report P]
//                      [--persist-write-delay-ms MS]
#include <fstream>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "engine/config_service.h"
#include "model/gpt_zoo.h"
#include "obs/trace.h"
#include "persist/store.h"

using namespace pipette;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const int nodes = cli.get_int("nodes", 2);
  const int threads = cli.get_int("threads", 0);
  const std::string model_name = cli.get_string("model", "gpt-774m");
  const std::string trace_path = cli.get_string("trace", "");
  const bool print_metrics = cli.get_bool("metrics", false);
  const bool print_explain = cli.get_bool("explain", false);
  const std::uint64_t faults_seed = static_cast<std::uint64_t>(cli.get_int("faults", 0));
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  const std::string snapshot_dir = cli.get_string("snapshot-dir", "");
  const bool restart = cli.get_bool("restart", false);
  const std::string load_report_path = cli.get_string("load-report", "");
  const double persist_delay_ms = cli.get_double("persist-write-delay-ms", 0.0);
  const bool robust = faults_seed != 0 || deadline_ms > 0.0;

  cluster::Topology topo(cluster::mid_range_cluster(nodes), cluster::HeterogeneityOptions{},
                         /*seed=*/42);
  model::TransformerConfig model_cfg;
  try {
    model_cfg = model::gpt_by_name(model_name);
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << " (try gpt-774m, gpt-1.1b, gpt-2.2b, gpt-3.1b, gpt-8.1b, gpt-11.1b)\n";
    return 1;
  }

  obs::TraceSink trace;
  engine::ConfigServiceOptions so;
  so.threads = threads;
  so.pipette.sa.max_iters = 2000;  // iteration-capped SA: deterministic for any thread count
  so.pipette.memory_training.hidden = {64, 64};
  so.pipette.memory_training.train.iters = 4000;
  so.pipette.memory_training.max_profile_nodes = 2;
  so.pipette.memory_training.profile_global_batches = {128};
  so.pipette.memory_training.soft_margin = 0.2;
  if (!trace_path.empty()) so.trace = &trace;
  if (faults_seed != 0) {
    so.faults.enabled = true;
    so.faults.seed = faults_seed;
  }
  if (!snapshot_dir.empty()) {
    so.cache.snapshot_dir = snapshot_dir;
    so.cache.persist_write_delay_s = persist_delay_ms / 1000.0;
  }
  engine::ConfigService service(so);

  if (!snapshot_dir.empty()) {
    const persist::LoadReport& lr = service.load_report();
    std::cout << "snapshot load (" << snapshot_dir << "): " << lr.str() << "\n";
    for (const auto& rec : lr.skipped) {
      std::cout << "  skipped " << rec.file << ": " << persist::to_string(rec.reason) << " ("
                << rec.detail << ")\n";
    }
    if (restart && lr.loaded() == 0) {
      std::cout << "  (--restart but nothing loaded: cold start)\n";
    }
    if (!load_report_path.empty()) {
      std::ofstream out(load_report_path);
      out << lr.json() << "\n";
      std::cout << "  wrote load report to " << load_report_path << "\n";
    }
    std::cout << "\n";
  }

  std::vector<model::TrainingJob> jobs;
  for (const int batch : {128, 256, 512, 1024}) jobs.push_back({model_cfg, batch});

  std::cout << "Sweeping " << model_cfg.name << " over " << jobs.size()
            << " global batch sizes on " << topo.num_gpus() << " GPUs ("
            << service.pool().num_threads() << " engine threads)\n\n";
  if (robust) {
    if (faults_seed != 0) {
      std::cout << "chaos schedule: seed " << faults_seed << " -> "
                << engine::to_string(service.fault_injector()->kind()) << "\n";
    }
    if (deadline_ms > 0.0) {
      std::cout << "per-request deadline: " << common::fmt_fixed(deadline_ms, 1) << " ms\n";
    }
    std::cout << "\n";
  }
  engine::RequestOptions ro;
  if (deadline_ms > 0.0) ro.deadline_s = deadline_ms / 1000.0;
  const std::vector<engine::ServiceResult> outcomes = service.sweep(topo, jobs, ro);

  common::Table t({"global batch", "recommended", "predicted s/iter", "candidates", "oom-rejected"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = outcomes[i].result;
    t.add_row({std::to_string(jobs[i].global_batch),
               r.found ? r.best.str() : "(none runnable)",
               r.found ? common::fmt_fixed(r.predicted_s, 3) : "-",
               std::to_string(r.candidates_evaluated),
               std::to_string(r.candidates_rejected_oom)});
  }
  t.print(std::cout);

  const auto stats = service.cache_stats();
  std::cout << "\ncluster cache: " << stats.lookups << " lookups, " << stats.hits
            << " hits — profiled " << stats.profiles_run << "x, trained estimator "
            << stats.trainings_run << "x for the whole study\n";

  if (!snapshot_dir.empty()) {
    // Provenance of the first request's artifacts: "disk" is the warm
    // restart working, "computed" is the cold path that seeds it.
    const auto& first = outcomes.front().result;
    const auto prov = [](bool from_disk) { return from_disk ? "disk" : "computed"; };
    std::cout << "artifact provenance: profile=" << prov(first.profile_from_disk)
              << " estimator=" << prov(first.memory_from_disk) << "\n";
    service.flush_snapshots();
    std::cout << "persisted " << service.persisted_records() << " records to " << snapshot_dir;
    if (service.persist_failures() > 0) {
      std::cout << " (" << service.persist_failures() << " writes failed after retries)";
    }
    std::cout << "\n";
  }

  if (robust) {
    common::Table h({"global batch", "status", "retries", "repaired", "quarantined",
                     "deadline overrun ms"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& sr = outcomes[i];
      const auto& ph = sr.result.health;
      h.add_row({std::to_string(jobs[i].global_batch), engine::to_string(sr.status),
                 std::to_string(ph.profile_retries), std::to_string(ph.repaired_readings),
                 std::to_string(ph.quarantined_nodes.size()),
                 ph.deadline_exceeded || ph.overrun_s > 0.0
                     ? common::fmt_fixed(ph.overrun_s * 1000.0, 1)
                     : "-"});
    }
    std::cout << "\nplan health:\n";
    h.print(std::cout);
  }

  const auto snap = service.metrics().snapshot();
  std::cout << "engine: " << snap.counter("pipette.requests") << " requests, "
            << snap.counter("pipette.sa.iters") << " SA iters, "
            << snap.counter("pipette.shapes.profiled") << " shapes profiled + "
            << snap.counter("pipette.shapes.reused") << " reused, "
            << snap.counter("engine.pool.tasks") << " pool tasks across "
            << snap.gauge("engine.pool.threads") << " threads\n";

  if (print_explain && !outcomes.empty() && outcomes.front().result.found) {
    std::cout << "\n--- explain (batch " << jobs.front().global_batch << ") ---\n"
              << outcomes.front().result.explain() << "\n";
  }
  if (print_metrics) {
    std::cout << "\n--- metrics ---\n" << service.metrics_text();
  }
  if (!trace_path.empty()) {
    if (trace.write_json(trace_path)) {
      std::cout << "\nwrote " << trace.size() << " trace events to " << trace_path
                << " (open in Perfetto / chrome://tracing)\n";
    } else {
      std::cerr << "failed to write trace to " << trace_path << "\n";
      return 1;
    }
  }
  return 0;
}
