// The paper's three baselines (§VII-A), reimplemented with exactly the
// behaviours the paper attributes to them:
//
//  * AMP [8] — automatic 3D-parallelism search with the Eq. (1) latency model,
//    document-specified bandwidths, and *no* memory feasibility check: its
//    top recommendations frequently OOM (Fig. 5b) and users must walk the
//    ranking until something runs.
//  * Varuna [12] — pipeline-parallel-only search (tp = 1), profiled compute,
//    Eq. (1)-style model, also memory-unaware.
//  * Megatron-LM (MLM) [14] — the expert heuristic: tp fixed to the node
//    width (8), remaining ways tuned by actually trying configurations on the
//    cluster, which is why it is the strongest baseline in Fig. 6 (and why it
//    costs human time the automatic tools save).
#pragma once

#include "core/configurator.h"
#include "estimators/compute_profile.h"
#include "sim/pipeline_sim.h"

namespace pipette::core {

struct AmpOptions {
  parallel::ConfigConstraints constraints;
  estimators::ComputeProfileOptions compute_profile;
};

class AmpConfigurator final : public Configurator {
 public:
  explicit AmpConfigurator(AmpOptions opt = {});
  std::string name() const override { return "AMP"; }
  ConfiguratorResult configure(const cluster::Topology& topo,
                               const model::TrainingJob& job) override;

 private:
  AmpOptions opt_;
};

struct VarunaOptions {
  parallel::ConfigConstraints constraints;  ///< max_tp forced to 1 internally
  estimators::ComputeProfileOptions compute_profile;
};

class VarunaConfigurator final : public Configurator {
 public:
  explicit VarunaConfigurator(VarunaOptions opt = {});
  std::string name() const override { return "Varuna"; }
  ConfiguratorResult configure(const cluster::Topology& topo,
                               const model::TrainingJob& job) override;

 private:
  VarunaOptions opt_;
};

struct MegatronOptions {
  parallel::ConfigConstraints constraints;
  sim::SimOptions sim;  ///< "manual trials" run the real (simulated) cluster
};

class MegatronHeuristic final : public Configurator {
 public:
  explicit MegatronHeuristic(MegatronOptions opt = {});
  std::string name() const override { return "Megatron-LM"; }
  ConfiguratorResult configure(const cluster::Topology& topo,
                               const model::TrainingJob& job) override;

 private:
  MegatronOptions opt_;
};

}  // namespace pipette::core
