#include "estimators/analytic_memory.h"

#include <algorithm>

#include "sim/stage_costs.h"

namespace pipette::estimators {

double analytic_memory_estimate(const model::TrainingJob& job, const parallel::TrainPlan& plan) {
  const auto& pc = plan.pc;
  const double state_bytes_per_param =
      plan.zero1 ? 8.0 + 12.0 / static_cast<double>(pc.dp) : 16.0;
  double worst = 0.0;
  for (int position = 0; position < pc.pp; ++position) {
    const double params = sim::position_parameters(job.model, plan, position);
    // One microbatch of activations — no in-flight multiplier, no framework.
    const double act =
        parallel::layers_of_position(job.model.num_layers, plan, position) *
        sim::activation_bytes_per_layer(job.model, plan.micro_batch, pc.tp, plan.recompute);
    worst = std::max(worst, params * state_bytes_per_param + act);
  }
  return worst;
}

}  // namespace pipette::estimators
