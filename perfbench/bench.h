// Shared inputs and record types of the end-to-end configure benchmark.
// Workloads (e2e.cpp) serve requests through engine::ConfigService; the
// quality and layer passes (passes.cpp) run afterwards, outside the timed
// window, on the same fabrics, jobs and recommendations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/pipette_configurator.h"
#include "engine/config_service.h"
#include "spans.h"

namespace perfbench {

namespace pp = pipette;

/// Iteration-capped SA with successive halving: recommendations are
/// bit-identical at every pool size.
inline constexpr long kSaIters = 20000;
/// The paper's 4x200 memory network, cut to a few hundred training steps.
inline constexpr int kTrainIters = 300;
inline constexpr int kPoolThreads = 4;

/// The options every request of every workload runs with.
pp::core::PipetteOptions pipette_options();

struct Fabric {
  std::string label;  ///< e.g. "mid-8n"
  bool high = false;  ///< high-end (A100) tier, else mid-range (V100)
  int nodes = 0;
  pp::cluster::Topology topo;
};

/// A fabric whose link heterogeneity is drawn from `het_seed`.
Fabric make_fabric(bool high, int nodes, std::uint64_t het_seed);

/// One distinct request: a fabric and a job.
struct RequestKind {
  int fabric = 0;
  pp::model::TrainingJob job;
};

/// One served request, timed on the workload clock.
struct Served {
  int id = 0;
  int kind = 0;
  double submit_s = 0.0;
  double done_s = 0.0;
  bool timed = false;  ///< inside the timed window (else set-up or restart)
  pp::engine::ServiceStatus status = pp::engine::ServiceStatus::kOk;
  pp::core::ConfiguratorResult result;

  double latency() const { return done_s - submit_s; }
  bool ok() const {
    return status == pp::engine::ServiceStatus::kOk && result.found && result.mapping.has_value();
  }
};

/// Digest of a recommendation: plan, predicted latency bits, and mapping.
std::uint64_t recommendation_digest(const pp::core::ConfiguratorResult& r);

/// Output checks. Every failure is printed when the run ends.
struct Checks {
  std::vector<std::string> failures;
  void fail(std::string what) { failures.push_back(std::move(what)); }
  bool ok() const { return failures.empty(); }
};

/// Everything the passes need from the workload.
struct RunInputs {
  const std::vector<Fabric>& fabrics;
  const std::vector<RequestKind>& kinds;
  /// First successful result per kind (null when the kind never succeeded).
  std::vector<const Served*> first_ok;
};

/// Fig. 5a / 6 / 7 quality and fidelity over every distinct (fabric, job)
/// that got a plan: MegatronHeuristic vs Pipette on the simulated cluster.
struct Quality {
  int plans = 0;
  int oom_recs = 0;  ///< kOk plans whose first attempt OOMs
  std::vector<double> speedup_vs_mlm;
  std::vector<double> lat_pred, lat_actual;
  std::vector<double> mem_est, mem_actual;
  std::vector<double> dedication_gain;
};
Quality quality_pass(const RunInputs& in, Spans& spans);

/// Named per-layer measurements (value, unit).
struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Times the benchmark's own calls into each layer on the workload's inputs
/// (traced runs only): cluster profiling, the estimator's dataset / fit /
/// MAPE split against train_for_cluster, latency-model and SA-kernel rates on
/// the requests' top candidates, and the pipeline simulator.
void layer_pass(const RunInputs& in, Spans& spans, Checks& checks, LayerMetrics& out);

/// Re-configures one kind serially (no executor) with the service's
/// artifacts and checks the recommendation is bit-identical.
void serial_check(const RunInputs& in, int kind, Checks& checks);

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
double mape_pct(const std::vector<double>& est, const std::vector<double>& actual);

}  // namespace perfbench
