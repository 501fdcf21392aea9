#include "core/configurator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace pipette::core {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string ConfiguratorResult::explain(int runner_ups) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("method");
  w.value(method);
  w.key("found");
  w.value(found);

  w.key("winner");
  w.begin_object();
  if (found) {
    w.key("plan");
    w.value(best.str());
    w.key("predicted_s");
    w.value(predicted_s);
    w.key("fine_grained_mapping");
    w.value(mapping.has_value());
  }
  w.end_object();

  w.key("runner_ups");
  w.begin_array();
  for (std::size_t i = 1; i < ranking.size() && i <= static_cast<std::size_t>(runner_ups); ++i) {
    const RankedChoice& r = ranking[i];
    w.begin_object();
    w.key("plan");
    w.value(r.cand.str());
    w.key("predicted_s");
    w.value(r.predicted_s);
    w.key("delta_s");
    w.value(r.predicted_s - predicted_s);
    w.end_object();
  }
  w.end_array();

  w.key("phases");
  w.begin_object();
  w.key("profile_wall_s");
  w.value(profile_wall_s);
  w.key("mem_train_wall_s");
  w.value(mem_train_wall_s);
  w.key("mem_filter_wall_s");
  w.value(mem_est_wall_s);
  w.key("mem_filter_cpu_s");
  w.value(mem_est_cpu_s);
  w.key("score_wall_s");
  w.value(score_wall_s);
  w.key("score_cpu_s");
  w.value(score_cpu_s);
  w.key("sa_wall_s");
  w.value(search_wall_s);
  w.key("sa_cpu_s");
  w.value(search_cpu_s);
  w.key("total_wall_s");
  w.value(config_wall_s());
  w.end_object();

  w.key("candidates");
  w.begin_object();
  w.key("evaluated");
  w.value(candidates_evaluated);
  w.key("rejected_oom");
  w.value(candidates_rejected_oom);
  w.key("ranked");
  w.value(static_cast<long>(ranking.size()));
  w.end_object();

  w.key("cache");
  w.begin_object();
  w.key("profile_hit");
  w.value(profile_cache_hit);
  w.key("memory_estimator_hit");
  w.value(memory_cache_hit);
  w.key("profile_from_disk");
  w.value(profile_from_disk);
  w.key("memory_estimator_from_disk");
  w.value(memory_from_disk);
  w.key("shapes_profiled");
  w.value(shapes_profiled);
  w.key("shapes_reused");
  w.value(shapes_reused);
  w.end_object();

  w.key("search");
  w.begin_object();
  w.key("sa_iters_spent");
  w.value(sa_iters);
  w.key("sa_iters_granted");
  w.value(sa_iters_granted);
  w.key("sa_rungs");
  w.value(sa_rungs);
  w.end_object();

  w.key("health");
  w.begin_object();
  w.key("degraded");
  w.value(health.degraded());
  w.key("confidence");
  w.value(health.confidence);
  w.key("repaired_readings");
  w.value(health.repaired_readings);
  w.key("imputed_symmetric");
  w.value(health.imputed_symmetric);
  w.key("imputed_neighbor");
  w.value(health.imputed_neighbor);
  w.key("imputed_floor");
  w.value(health.imputed_floor);
  w.key("quarantined_nodes");
  w.begin_array();
  for (const int n : health.quarantined_nodes) w.value(n);
  w.end_array();
  w.key("degraded_links_used");
  w.value(health.degraded_links_used);
  w.key("profile_retries");
  w.value(health.profile_retries);
  w.key("deadline_exceeded");
  w.value(health.deadline_exceeded);
  if (std::isfinite(health.deadline_s)) {
    w.key("deadline_s");
    w.value(health.deadline_s);
    w.key("overrun_s");
    w.value(health.overrun_s);
  }
  w.end_object();

  w.key("provenance");
  w.begin_object();
  w.key("topo_fingerprint");
  w.value(hex64(topo_fingerprint));
  w.key("job_digest");
  w.value(hex64(job_digest));
  w.end_object();

  w.end_object();
  return w.str();
}

bool promote_winner(std::vector<RankedChoice>& ranking, const Candidate& best,
                    double predicted_s) {
  const auto it = std::find_if(ranking.begin(), ranking.end(),
                               [&](const RankedChoice& r) { return r.cand == best; });
  if (it == ranking.end()) return false;
  std::rotate(ranking.begin(), it, it + 1);
  ranking.front().predicted_s = predicted_s;
  return true;
}

}  // namespace pipette::core
