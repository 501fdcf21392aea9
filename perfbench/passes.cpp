// Passes that run after the timed window: plan quality and estimator
// fidelity (every run), the per-layer pass (traced runs), and the serial
// pool-size check (every run).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "cluster/profiler.h"
#include "common/hashing.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "core/baselines.h"
#include "core/evaluation.h"
#include "estimators/compute_profile.h"
#include "estimators/latency_models.h"
#include "estimators/mlp_memory.h"
#include "mlp/matrix.h"
#include "mlp/regressor.h"
#include "model/gpt_zoo.h"
#include "search/mapping_search.h"
#include "sim/memory_sim.h"
#include "sim/pipeline_sim.h"

namespace perfbench {

using pp::common::Stopwatch;

namespace {

/// Top-ranked candidates annealed per fabric by the SA kernel probe, and the
/// iterations each chain runs (a quarter of the per-candidate budget).
constexpr int kKernelCandidates = 3;
constexpr long kKernelIters = 5000;
/// Repeats of one latency-model estimate() per candidate.
constexpr int kEstimateRepeats = 200;

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mape_pct(const std::vector<double>& est, const std::vector<double>& actual) {
  return est.empty() ? 0.0 : pp::common::mape_percent(est, actual);
}

std::uint64_t recommendation_digest(const pp::core::ConfiguratorResult& r) {
  std::uint64_t h = pp::common::hash_string(0x9e3779b97f4a7c15ull, r.best.str());
  h = pp::common::hash_combine(h, r.predicted_s);
  if (r.mapping) {
    for (int w = 0; w < r.mapping->num_workers(); ++w) {
      h = pp::common::hash_combine(h, static_cast<std::uint64_t>(r.mapping->gpu_at(w)));
    }
  }
  return h;
}

Quality quality_pass(const RunInputs& in, Spans& spans) {
  Quality q;
  const SpanScope root(spans, "pass.quality");
  const pp::sim::SimOptions sim_opt;
  const auto opt = pipette_options();
  for (std::size_t k = 0; k < in.kinds.size(); ++k) {
    const Served* s = in.first_ok[k];
    if (!s) continue;
    const Fabric& f = in.fabrics[static_cast<std::size_t>(in.kinds[k].fabric)];
    const auto& job = in.kinds[k].job;
    const auto& rec = s->result;
    ++q.plans;

    pp::core::ExecutedOutcome ppt;
    {
      const SpanScope sp(spans, "core.execute_pipette", root.id());
      ppt = pp::core::execute_with_oom_fallback(f.topo, job, rec, sim_opt);
    }
    const bool first_ran = ppt.success && ppt.attempts == 1;
    if (!first_ran) ++q.oom_recs;
    if (first_ran) {
      q.lat_pred.push_back(rec.predicted_s);
      q.lat_actual.push_back(ppt.run.time_s);
      const SpanScope sp(spans, "core.run_megatron_mapping", root.id());
      const auto def = pp::core::run_actual(
          f.topo, job, rec.best, pp::parallel::Mapping::megatron_default(rec.best.pc), sim_opt);
      if (!def.oom) q.dedication_gain.push_back(def.time_s / ppt.run.time_s);
    }

    pp::core::ExecutedOutcome mlm;
    {
      const SpanScope sp(spans, "core.megatron_heuristic", root.id());
      pp::core::MegatronHeuristic heuristic;
      mlm = pp::core::execute_with_oom_fallback(f.topo, job, heuristic.configure(f.topo, job),
                                                sim_opt);
    }
    if (ppt.success && mlm.success) q.speedup_vs_mlm.push_back(mlm.run.time_s / ppt.run.time_s);
    std::printf("  plan  %-8s %-10s gb%-5d %-34s pred %7.4f  sim %7.4f  mlm %7.4f  attempts %d\n",
                f.label.c_str(), job.model.name.c_str(), job.global_batch, rec.best.str().c_str(),
                rec.predicted_s, ppt.success ? ppt.run.time_s : 0.0,
                mlm.success ? mlm.run.time_s : 0.0, ppt.attempts);

    // Fig. 7: every measurable plan of a fabric beyond the profiled
    // sub-cluster, estimated by the estimator the request used.
    if (f.nodes > opt.memory_training.max_profile_nodes && rec.memory_estimator) {
      const SpanScope sp(spans, "estimators.memory_fidelity", root.id());
      const auto& spec = f.topo.spec();
      for (const auto& plan : pp::parallel::enumerate_base_plans(
               f.topo.num_gpus(), f.topo.gpus_per_node(), job.model.num_layers, job.global_batch,
               opt.constraints)) {
        const auto mem = pp::sim::simulate_peak_memory(spec, job, plan,
                                                       pp::estimators::kMemoryUniverseSeed);
        if (mem.total_bytes > spec.gpu_memory_bytes) continue;  // not measurable
        q.mem_actual.push_back(mem.total_bytes);
        q.mem_est.push_back(rec.memory_estimator->estimate_bytes(job, plan));
      }
    }
  }
  return q;
}

void serial_check(const RunInputs& in, int kind, Checks& checks) {
  const Served* s = in.first_ok[static_cast<std::size_t>(kind)];
  if (!s) return;
  const RequestKind& rk = in.kinds[static_cast<std::size_t>(kind)];
  const Fabric& f = in.fabrics[static_cast<std::size_t>(rk.fabric)];
  auto opt = pipette_options();
  opt.memory = s->result.memory_estimator;
  opt.profile_snapshot = std::make_shared<const pp::cluster::ProfileResult>(
      pp::cluster::profile_network(f.topo, opt.profile));
  pp::core::PipetteConfigurator serial(opt);
  const auto r = serial.configure(f.topo, rk.job);
  if (recommendation_digest(r) != recommendation_digest(s->result)) {
    checks.fail("serial re-configure of " + f.label + " " + rk.job.model.name + " gb" +
                std::to_string(rk.job.global_batch) + " differs from the 4-thread service: " +
                r.best.str() + " vs " + s->result.best.str());
  }
}

void layer_pass(const RunInputs& in, Spans& spans, Checks& checks, LayerMetrics& out) {
  const SpanScope root(spans, "pass.layers");
  const auto opt = pipette_options();
  const auto& mo = opt.memory_training;

  // cluster: one bandwidth profile per fabric.
  std::vector<std::shared_ptr<const pp::cluster::ProfileResult>> profiles;
  std::vector<double> profile_ms;
  for (const Fabric& f : in.fabrics) {
    const SpanScope sp(spans, "cluster.profile_network", root.id());
    const Stopwatch sw;
    profiles.push_back(std::make_shared<const pp::cluster::ProfileResult>(
        pp::cluster::profile_network(f.topo, opt.profile)));
    profile_ms.push_back(sw.seconds() * 1e3);
  }
  out["cluster.profile_ms"] = {median(profile_ms), "ms"};

  // estimators + mlp: the cold-cost split on the first served fabric's tier,
  // replaying train_for_cluster's stages through the public layer calls.
  const Served* ref = nullptr;
  for (const Served* s : in.first_ok) {
    if (s && s->result.memory_estimator) {
      ref = s;
      break;
    }
  }
  for (const char* name : {"estimators.dataset_gen_s", "estimators.mape_pass_s",
                           "estimators.mem_train_s", "mlp.fit_s"}) {
    out[name] = {0.0, "s"};
  }
  if (!ref) {
    checks.fail("no successful request to replay the estimator training on");
  } else {
    const Fabric& f = in.fabrics[static_cast<std::size_t>(in.kinds[static_cast<std::size_t>(ref->kind)].fabric)];
    const auto& spec = f.topo.spec();
    constexpr double kVariantProfileTrigger = 0.7;  // as in train_for_cluster
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    long sim_calls = 0;
    double sim_s = 0.0;
    const int gen_span = spans.begin("estimators.dataset_gen", root.id());
    const Stopwatch t_gen;
    auto measure = [&](const pp::model::TrainingJob& job, const pp::parallel::TrainPlan& plan) {
      const Stopwatch sw;
      const auto mem =
          pp::sim::simulate_peak_memory(spec, job, plan, pp::estimators::kMemoryUniverseSeed);
      sim_s += sw.seconds();
      ++sim_calls;
      if (mem.total_bytes <= spec.gpu_memory_bytes) {
        rows.push_back(pp::estimators::MlpMemoryEstimator::features(job, plan));
        targets.push_back(std::log2(std::max(mem.total_bytes, 1e-9)));
      }
      return mem.total_bytes;
    };
    const int max_nodes = std::min(mo.max_profile_nodes, spec.num_nodes);
    for (int nodes = 1; nodes <= max_nodes; ++nodes) {
      for (const auto& model : pp::model::gpt_zoo()) {
        for (const int gb : mo.profile_global_batches) {
          const pp::model::TrainingJob job{model, gb};
          for (const auto& plan : pp::parallel::enumerate_base_plans(
                   nodes * spec.gpus_per_node, spec.gpus_per_node, model.num_layers, gb,
                   mo.constraints)) {
            if (measure(job, plan) <= kVariantProfileTrigger * spec.gpu_memory_bytes) continue;
            for (const auto& v : pp::parallel::memory_relief_variants(plan, mo.constraints)) {
              measure(job, v);
            }
          }
        }
      }
    }
    const double gen_s = t_gen.seconds();
    spans.end(gen_span);
    const int n = static_cast<int>(rows.size());
    if (n != ref->result.memory_estimator->dataset_size()) {
      checks.fail("layer pass built " + std::to_string(n) + " dataset rows, the estimator has " +
                  std::to_string(ref->result.memory_estimator->dataset_size()));
    }

    pp::mlp::Matrix x(n, n > 0 ? static_cast<int>(rows.front().size()) : 0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < x.cols(); ++j) x(i, j) = rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    pp::mlp::Regressor reg(x.cols(), mo.hidden, mo.seed);
    double fit_s = 0.0;
    {
      const SpanScope sp(spans, "mlp.fit", root.id());
      const Stopwatch sw;
      reg.fit(x, targets, mo.train);
      fit_s = sw.seconds();
    }
    std::vector<double> est_bytes, act_bytes;
    double mape_s = 0.0;
    {
      const SpanScope sp(spans, "estimators.mape_pass", root.id());
      const Stopwatch sw;
      for (int i = 0; i < n; ++i) {
        est_bytes.push_back(std::exp2(reg.predict(rows[static_cast<std::size_t>(i)])));
        act_bytes.push_back(std::exp2(targets[static_cast<std::size_t>(i)]));
      }
      mape_s = sw.seconds();
    }
    double train_s = 0.0;
    {
      const SpanScope sp(spans, "estimators.train_for_cluster", root.id());
      const Stopwatch sw;
      const auto trained =
          pp::estimators::MlpMemoryEstimator::train_for_cluster(f.topo, pp::model::gpt_zoo(), mo);
      train_s = sw.seconds();
      if (trained.train_mape_percent() != mape_pct(est_bytes, act_bytes)) {
        checks.fail("layer pass in-sample MAPE " + std::to_string(mape_pct(est_bytes, act_bytes)) +
                    "% differs from train_for_cluster's " +
                    std::to_string(trained.train_mape_percent()) + "%");
      }
    }
    out["estimators.dataset_gen_s"] = {gen_s, "s"};
    out["estimators.dataset_rows"] = {static_cast<double>(n), "count"};
    out["sim.peak_mem_us"] = {sim_calls > 0 ? sim_s / static_cast<double>(sim_calls) * 1e6 : 0.0, "us"};
    out["mlp.fit_s"] = {fit_s, "s"};
    // fit() ends with one predict per row (its in-sample report), the same
    // work as the MAPE pass; the rest is the training steps.
    out["mlp.train_step_ms"] = {std::max(0.0, fit_s - mape_s) / mo.train.iters * 1e3, "ms"};
    out["mlp.predict_us"] = {n > 0 ? mape_s / n * 1e6 : 0.0, "us"};
    out["estimators.mape_pass_s"] = {mape_s, "s"};
    out["estimators.mem_train_s"] = {train_s, "s"};
    out["estimators.train_mape_pct"] = {mape_pct(est_bytes, act_bytes), "%"};
  }

  // estimators + search: latency-model and SA-kernel rates on each fabric's
  // first recommendation's top candidates, outside configure().
  std::vector<double> estimate_us, build_ms;
  double kernel_iters = 0.0, kernel_s = 0.0;
  std::vector<bool> probed(in.fabrics.size(), false);
  std::vector<double> sim_ms;
  const pp::sim::SimOptions sim_opt;
  for (const Served* s : in.first_ok) {
    if (!s) continue;
    const RequestKind& rk = in.kinds[static_cast<std::size_t>(s->kind)];
    const Fabric& f = in.fabrics[static_cast<std::size_t>(rk.fabric)];
    {
      const SpanScope sp(spans, "sim.simulate_iteration", root.id());
      const Stopwatch sw;
      pp::sim::simulate_iteration(f.topo, rk.job, *s->result.mapping, s->result.best, sim_opt);
      sim_ms.push_back(sw.seconds() * 1e3);
    }
    if (probed[static_cast<std::size_t>(rk.fabric)]) continue;
    probed[static_cast<std::size_t>(rk.fabric)] = true;
    const auto links = pp::estimators::LinkConstants::from_spec(f.topo.spec());
    const auto& ranking = s->result.ranking;
    double fab_iters = 0.0, fab_s = 0.0;
    for (std::size_t c = 0; c < ranking.size() && c < kKernelCandidates; ++c) {
      const auto& cand = ranking[c].cand;
      const auto profile = pp::estimators::profile_compute(f.topo, rk.job, cand, opt.compute_profile);
      const pp::estimators::PipetteLatencyModel model(rk.job, cand, profile,
                                                      &profiles[static_cast<std::size_t>(rk.fabric)]->bw,
                                                      links);
      const auto start = pp::parallel::Mapping::megatron_default(cand.pc);
      {
        const SpanScope sp(spans, "estimators.latency_estimate", root.id());
        const Stopwatch sw;
        double sink = 0.0;
        for (int r = 0; r < kEstimateRepeats; ++r) sink += model.estimate(start);
        estimate_us.push_back(sw.seconds() / kEstimateRepeats * 1e6);
        if (!(sink > 0.0)) checks.fail("latency model returned a non-positive estimate");
      }
      pp::search::SaOptions so = opt.sa;
      so.seed = pp::search::derive_seed(opt.sa.seed, cand.str());
      const int build_span = spans.begin("search.chain_build", root.id());
      const Stopwatch t_build;
      pp::search::ResumableMappingAnneal chain(model, start, f.topo.gpus_per_node(), so, opt.moves);
      build_ms.push_back(t_build.seconds() * 1e3);
      spans.end(build_span);
      const SpanScope sp(spans, "search.run_to", root.id());
      const Stopwatch t_run;
      chain.run_to(kKernelIters);
      const double run_s = t_run.seconds();
      fab_iters += static_cast<double>(chain.total_iters());
      fab_s += run_s;
      std::printf("  sa kernel  %-8s %5d GPUs  %-32s %9.0f decided/s\n", f.label.c_str(),
                  f.topo.num_gpus(), cand.str().c_str(),
                  static_cast<double>(chain.total_iters()) / run_s);
    }
    kernel_iters += fab_iters;
    kernel_s += fab_s;
  }
  out["search.kernel_decided_per_s"] = {kernel_s > 0.0 ? kernel_iters / kernel_s : 0.0, "1/s"};
  out["search.chain_build_ms"] = {median(build_ms), "ms"};
  out["estimators.latency_estimate_us"] = {median(estimate_us), "us"};
  out["sim.iter_ms"] = {median(sim_ms), "ms"};
}

}  // namespace perfbench
