#include "core/pipette_configurator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/hashing.h"
#include "common/stopwatch.h"
#include "estimators/latency_models.h"
#include "model/gpt_zoo.h"
#include "obs/json.h"
#include "parallel/groups.h"

namespace pipette::core {

namespace {
constexpr long kUncapped = std::numeric_limits<long>::max();

/// Flushes one request's accounting into the metrics registry. Called once
/// per configure_impl exit path; everything written is already on the result,
/// so the flush can never influence the recommendation.
void flush_request_metrics(obs::Registry* reg, const ConfiguratorResult& res,
                           const search::AnnealTelemetry& telem) {
  if (!reg) return;
  reg->counter("pipette.requests").inc();
  reg->counter("pipette.candidates.evaluated").add(res.candidates_evaluated);
  reg->counter("pipette.candidates.rejected_oom").add(res.candidates_rejected_oom);
  reg->counter("pipette.shapes.profiled").add(res.shapes_profiled);
  reg->counter("pipette.shapes.reused").add(res.shapes_reused);
  reg->counter("pipette.mem_est.reused").add(res.mem_est_reused);
  reg->counter("pipette.sa.iters").add(res.sa_iters);
  reg->counter("pipette.sa.iters_saved").add(res.sa_iters_saved);
  reg->counter("pipette.sa.iters_redistributed").add(res.sa_iters_redistributed);
  reg->counter("pipette.sa.rungs").add(res.sa_rungs);
  // Stop decisions keyed by reason (only kConverged exists today).
  if (res.sa_chains_stopped != 0) {
    reg->counter("pipette.sa.stop.converged").add(res.sa_chains_stopped);
  }
  for (int k = 0; k < search::AnnealTelemetry::kKinds; ++k) {
    if (telem.proposed[k] != 0) {
      reg->counter(std::string("pipette.sa.proposals.") + search::AnnealTelemetry::kind_name(k))
          .add(telem.proposed[k]);
    }
    if (telem.accepted[k] != 0) {
      reg->counter(std::string("pipette.sa.accepts.") + search::AnnealTelemetry::kind_name(k))
          .add(telem.accepted[k]);
    }
  }
  reg->counter("pipette.sa.rollbacks").add(telem.rollbacks);
  reg->counter("pipette.sa.dirty.cells").add(telem.dirty.cells);
  reg->counter("pipette.sa.dirty.stages").add(telem.dirty.stages);
  reg->counter("pipette.sa.dirty.flows").add(telem.dirty.flows);
  reg->counter("pipette.sa.dirty.cols").add(telem.dirty.cols);
  reg->counter("pipette.sa.dirty.paths").add(telem.dirty.paths);
  reg->counter("pipette.sa.dirty.groups").add(telem.dirty.groups);
  reg->counter("pipette.sa.dirty.terms").add(telem.dirty.terms);
  reg->histogram("pipette.configure.wall_s", obs::Registry::latency_bounds_s())
      .observe(res.config_wall_s());
  // Degradation and deadline accounting: registered only when something
  // actually degraded, so clean fleets keep a clean exposition.
  if (res.health.repaired_readings != 0) {
    reg->counter("pipette.faults.repaired_readings").add(res.health.repaired_readings);
  }
  if (!res.health.quarantined_nodes.empty()) {
    reg->counter("pipette.faults.quarantined_nodes")
        .add(static_cast<long>(res.health.quarantined_nodes.size()));
  }
  if (res.health.degraded_links_used != 0) {
    reg->counter("pipette.faults.degraded_links_used").add(res.health.degraded_links_used);
  }
  if (res.health.degraded()) reg->counter("pipette.faults.degraded_requests").inc();
  if (res.health.deadline_exceeded) reg->counter("pipette.deadline.sa_truncated").inc();
}

/// Counts the winning mapping's communication edges — all ordered pairs of
/// every tp group, the dp rings' hops, and the pipeline paths' hops — that
/// cross a node pair whose bandwidth reading the sanitizer repaired (or that
/// touch a quarantined node): the part of the plan standing on imputed
/// numbers rather than measurements.
int count_degraded_links(const parallel::Mapping& m, int gpus_per_node,
                         const cluster::SanitizeReport& rep) {
  if (rep.clean()) return 0;
  const auto& pc = m.config();
  auto node_of = [gpus_per_node](int g) { return g / gpus_per_node; };
  auto bad_pair = [&](int g1, int g2) {
    const int n1 = node_of(g1), n2 = node_of(g2);
    if (n1 == n2 && g1 == g2) return false;
    for (const auto& [a, b] : rep.repaired_node_pairs) {
      if (a == n1 && b == n2) return true;
    }
    for (const int q : rep.quarantined_nodes) {
      if ((n1 == q || n2 == q) && n1 != n2) return true;
    }
    return false;
  };
  int degraded = 0;
  auto count_pairs = [&](const std::vector<int>& gpus) {
    for (const int g1 : gpus) {
      for (const int g2 : gpus) {
        if (g1 != g2 && bad_pair(g1, g2)) ++degraded;
      }
    }
  };
  auto count_ring = [&](const std::vector<int>& gpus) {
    if (gpus.size() < 2) return;
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      const int g1 = gpus[i], g2 = gpus[(i + 1) % gpus.size()];
      if (bad_pair(g1, g2)) ++degraded;
    }
  };
  auto count_path = [&](const std::vector<int>& gpus) {
    for (std::size_t i = 0; i + 1 < gpus.size(); ++i) {
      if (bad_pair(gpus[i], gpus[i + 1])) ++degraded;
    }
  };
  for (int s = 0; s < pc.pp; ++s) {
    for (int d = 0; d < pc.dp; ++d) count_pairs(parallel::tp_group_gpus(m, s, d));
    for (int t = 0; t < pc.tp; ++t) count_ring(parallel::dp_group_gpus(m, s, t));
  }
  for (int t = 0; t < pc.tp; ++t) {
    for (int d = 0; d < pc.dp; ++d) count_path(parallel::pipeline_path_gpus(m, t, d));
  }
  return degraded;
}
}  // namespace

PipetteConfigurator::PipetteConfigurator(PipetteOptions opt) : opt_(std::move(opt)) {}

std::string PipetteConfigurator::name() const {
  return opt_.use_worker_dedication ? "PPT-LF" : "PPT-L";
}

ConfiguratorResult PipetteConfigurator::configure(const cluster::Topology& topo,
                                                  const model::TrainingJob& job) {
  return configure_impl(topo, job, nullptr);
}

ConfiguratorResult PipetteConfigurator::reconfigure(const cluster::Topology& new_topo,
                                                    const model::TrainingJob& job,
                                                    const ConfiguratorResult& previous) {
  // Empty topology diff: the fingerprint covers the spec and the attained
  // link state of the day, so nothing the previous pass computed is stale —
  // the previous recommendation *is* the answer, at zero marginal cost.
  if (previous.found && previous.topo_fingerprint == new_topo.fingerprint() &&
      previous.job_digest == model::job_digest(job)) {
    if (!memory_ && previous.memory_estimator) memory_ = previous.memory_estimator;
    ConfiguratorResult out = previous;
    out.warm_started = true;
    out.profile_wall_s = 0.0;
    out.mem_train_wall_s = 0.0;
    out.mem_est_wall_s = out.mem_est_cpu_s = 0.0;
    out.score_wall_s = out.score_cpu_s = 0.0;
    out.search_wall_s = out.search_cpu_s = 0.0;
    out.sa_iters = 0;
    out.sa_iters_granted = 0;
    out.sa_iters_saved = 0;
    out.sa_iters_redistributed = 0;
    out.sa_rungs = 0;
    out.sa_chains_stopped = 0;
    out.shapes_profiled = 0;
    out.shapes_reused = 0;
    out.mem_est_reused = 0;
    return out;
  }
  ConfiguratorResult out = configure_impl(new_topo, job, &previous);
  out.warm_started = true;
  return out;
}

ConfiguratorResult PipetteConfigurator::configure_impl(const cluster::Topology& topo,
                                                       const model::TrainingJob& job,
                                                       const ConfiguratorResult* warm) {
  if (const std::string reason = model::validate(job); !reason.empty()) {
    throw std::invalid_argument(reason);
  }
  ConfiguratorResult res;
  res.method = name();
  res.topo_fingerprint = topo.fingerprint();
  res.job_digest = model::job_digest(job);
  // The request's deadline clock starts at entry. Profiling, filtering, and
  // scoring always run — a valid plan needs them — so the deadline's teeth
  // are in the SA phase, which is anytime (best-so-far at any cut).
  const common::Stopwatch req_watch;
  const bool deadlined = std::isfinite(opt_.deadline_s);
  auto past_deadline = [&] { return deadlined && req_watch.seconds() >= opt_.deadline_s; };
  obs::TraceSink* const sink = opt_.trace_sink;
  search::AnnealTelemetry telem;
  // Annealers only pay the per-proposal telemetry increments when somebody
  // will read them; null stays on the single-branch disabled path.
  search::AnnealTelemetry* const telem_ptr = opt_.metrics ? &telem : nullptr;

  // Line 1: profile the actual bandwidth matrix — or reuse a snapshot the
  // engine's cluster cache already took of this fabric on this day. Like
  // mem_train_wall_s, profile_wall_s reports only the cost this request paid:
  // zero when the snapshot's owner already paid it.
  std::shared_ptr<const cluster::ProfileResult> profiled = opt_.profile_snapshot;
  res.profile_cache_hit = profiled != nullptr;
  if (!profiled) {
    obs::Span span(sink, "phase.profile");
    profiled = std::make_shared<const cluster::ProfileResult>(
        cluster::profile_network(topo, opt_.profile));
    res.profile_wall_s = profiled->wall_time_s;
  }
  // Snapshot provenance: how much of the matrix is measurement vs repair.
  // Applies to cached snapshots too — a degraded profile stays degraded for
  // every request it serves.
  const cluster::SanitizeReport& san = profiled->sanitize;
  res.health.repaired_readings = san.repaired_readings();
  res.health.imputed_symmetric = san.imputed_symmetric;
  res.health.imputed_neighbor = san.imputed_neighbor;
  res.health.imputed_floor = san.imputed_floor;
  res.health.quarantined_nodes = san.quarantined_nodes;
  if (san.total_readings > 0) {
    res.health.confidence =
        1.0 - static_cast<double>(san.repaired_readings()) / san.total_readings;
  }
  if (sink && !san.clean()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("repaired_readings");
    w.value(san.repaired_readings());
    w.key("quarantined_nodes");
    w.value(static_cast<long>(san.quarantined_nodes.size()));
    w.end_object();
    sink->instant("profile.degraded", w.str());
  }

  // One-time memory estimator (trained from small-scale profiling runs). A
  // warm start may adopt the previous result's estimator: the training
  // digest clamps the node count to the profiled sub-cluster, so a resize
  // above the clamp trains a bit-identical artifact and must not pay twice.
  // Symmetrically, an estimator this configurator auto-trained for a
  // *different* clamp or spec is stale here and must be retrained — only an
  // explicitly injected opt_.memory is trusted as-is.
  const std::uint64_t want_digest =
      estimators::MlpMemoryEstimator::training_digest(topo.spec(), opt_.memory_training);
  if (memory_ && !opt_.memory && memory_->training_digest() != 0 &&
      memory_->training_digest() != want_digest) {
    memory_ = nullptr;
  }
  const bool had_memory = memory_ != nullptr;
  if (!memory_) {
    if (opt_.memory) {
      memory_ = opt_.memory;
    } else if (warm && warm->memory_estimator &&
               warm->memory_estimator->training_digest() == want_digest) {
      memory_ = warm->memory_estimator;
    } else {
      obs::Span span(sink, "phase.mem_train");
      const common::Stopwatch sw;
      memory_ = std::make_shared<const estimators::MlpMemoryEstimator>(
          estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(),
                                                            opt_.memory_training));
      res.mem_train_wall_s = sw.seconds();
    }
  }
  res.memory_cache_hit = res.mem_train_wall_s == 0.0 && (had_memory || opt_.memory != nullptr ||
                                                         (warm && warm->memory_estimator));
  res.memory_estimator = memory_;

  const auto links = estimators::LinkConstants::from_spec(topo.spec());
  const double mem_limit = topo.spec().gpu_memory_bytes;

  common::SerialExecutor serial;
  common::Executor& exec = opt_.executor ? *opt_.executor : serial;

  // Lines 3-7, over the enlarged plan space: enumerate the base plans (plain
  // + interleaved), memory-filter each one, and — where a base plan is near
  // or over the fit threshold — escalate through the recompute/ZeRO-1 relief
  // ladder, keeping the cheapest fitting variant per family so the candidate
  // count stays bounded. Each base plan is independent, so this fans out
  // across the executor; kept plans land in index-addressed slots and are
  // merged in enumeration order, keeping the set schedule-independent.
  // Estimates are memoized by (job, plan): a repeat configure() on this
  // configurator, or a reconfigure() carrying the previous result under the
  // same estimator, skips the MLP inference for every surviving plan (the
  // memoized value is the inference's own output, so the filter's decisions
  // are bit-identical either way).
  const std::vector<Candidate> bases = parallel::enumerate_base_plans(
      topo.num_gpus(), topo.gpus_per_node(), job.model.num_layers, job.global_batch,
      opt_.constraints);

  if (memo_estimator_ != memory_.get()) {
    mem_memo_.clear();
    memo_estimator_ = memory_.get();
  }
  // Equal training digests mean interchangeable estimators (training is
  // deterministic in everything the digest covers), so the memo carried by a
  // different-instance estimator is just as valid as this one's own output.
  const std::vector<std::pair<std::uint64_t, double>>* warm_memo = nullptr;
  if (warm && warm->memory_estimator && memory_ && memory_->training_digest() != 0 &&
      warm->memory_estimator->training_digest() == memory_->training_digest() &&
      !warm->mem_estimates.empty()) {
    warm_memo = &warm->mem_estimates;
  }
  auto memo_lookup = [&](std::uint64_t key) -> const double* {
    if (const auto it = mem_memo_.find(key); it != mem_memo_.end()) return &it->second;
    if (warm_memo) {
      const auto it = std::lower_bound(
          warm_memo->begin(), warm_memo->end(), key,
          [](const std::pair<std::uint64_t, double>& e, std::uint64_t k) { return e.first < k; });
      if (it != warm_memo->end() && it->first == key) return &it->second;
    }
    return nullptr;
  };

  struct PlanSlot {
    std::vector<Candidate> kept;
    std::vector<std::pair<std::uint64_t, double>> ests;
    int evaluated = 0;
    int rejected = 0;
    int reused = 0;
    double wall_s = 0.0;
  };
  if (sink) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("base_plans");
    w.value(static_cast<long>(bases.size()));
    w.end_object();
    sink->begin_span("phase.mem_filter", w.str());
  }
  const common::Stopwatch t_mem;
  std::vector<PlanSlot> plan_slots(bases.size());
  exec.parallel_for(static_cast<int>(bases.size()), [&](int i) {
    PlanSlot& slot = plan_slots[static_cast<std::size_t>(i)];
    const Candidate& base = bases[static_cast<std::size_t>(i)];
    if (!opt_.use_memory_filter) {
      slot.evaluated = 1;
      slot.kept.push_back(base);
      return;
    }
    const common::Stopwatch t0;
    const double margin = 1.0 + memory_->soft_margin();
    auto est_of = [&](const Candidate& plan) {
      const std::uint64_t key = common::hash_combine(res.job_digest, plan.hash());
      double bytes;
      if (const double* hit = memo_lookup(key)) {
        bytes = *hit;
        ++slot.reused;
      } else {
        bytes = memory_->estimate_bytes(job, plan);
      }
      slot.ests.emplace_back(key, bytes);
      return bytes;
    };
    const double base_est = est_of(base) * margin;
    const bool base_fits = base_est <= mem_limit;
    ++slot.evaluated;
    if (base_fits) {
      slot.kept.push_back(base);
    } else {
      ++slot.rejected;
    }
    const bool near_threshold =
        opt_.variant_trigger_frac > 0.0 && base_est > opt_.variant_trigger_frac * mem_limit;
    if (!base_fits || near_threshold) {
      bool kept_plain_family = false, kept_zero_family = false;
      for (const Candidate& variant : parallel::memory_relief_variants(base, opt_.constraints)) {
        bool& kept_family = variant.zero1 ? kept_zero_family : kept_plain_family;
        if (kept_family) continue;
        ++slot.evaluated;
        if (est_of(variant) * margin <= mem_limit) {
          slot.kept.push_back(variant);
          kept_family = true;
        } else {
          ++slot.rejected;
        }
      }
    }
    slot.wall_s = t0.seconds();
  });

  std::vector<Candidate> cands;
  for (const auto& slot : plan_slots) {
    res.candidates_evaluated += slot.evaluated;
    res.candidates_rejected_oom += slot.rejected;
    res.mem_est_cpu_s += slot.wall_s;
    res.mem_est_reused += slot.reused;
    cands.insert(cands.end(), slot.kept.begin(), slot.kept.end());
    res.mem_estimates.insert(res.mem_estimates.end(), slot.ests.begin(), slot.ests.end());
  }
  res.mem_est_wall_s = t_mem.seconds();
  if (sink) sink->end_span("phase.mem_filter");
  std::sort(res.mem_estimates.begin(), res.mem_estimates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, bytes] : res.mem_estimates) mem_memo_.emplace(key, bytes);
  if (cands.empty()) {
    flush_request_metrics(opt_.metrics, res, telem);
    return res;
  }

  // Scoring pass (line 8): profile each candidate's compute and price the
  // Megatron-default placement. Profiles depend only on the plan's compute
  // shape, so the shared path profiles each distinct ComputeShapeKey once —
  // fanned out over the executor, merged and inserted into the shape cache in
  // canonical key order — and every (dp, zero1) sibling shares the result.
  if (sink) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("candidates");
    w.value(static_cast<long>(cands.size()));
    w.end_object();
    sink->begin_span("phase.score", w.str());
  }
  const common::Stopwatch t_score;
  std::shared_ptr<estimators::ComputeProfileCache> ccache = opt_.compute_cache;
  res.compute_cache_hit = opt_.compute_cache != nullptr && opt_.compute_cache->size() > 0;
  if (opt_.share_compute_profiles) {
    const std::uint64_t ctx =
        estimators::compute_context_digest(topo.spec(), opt_.compute_profile);
    if (ccache) {
      // A cache injected from outside must have been minted for this exact
      // compute context — serving profiles measured under other options or
      // hardware would corrupt every score silently.
      if (ccache->context() != 0 && ccache->context() != ctx) {
        throw std::invalid_argument(
            "PipetteOptions::compute_cache was built for a different compute context");
      }
    } else {
      if (!compute_cache_ || compute_ctx_ != ctx) {
        compute_cache_ = std::make_shared<estimators::ComputeProfileCache>(ctx);
        compute_ctx_ = ctx;
      }
      ccache = compute_cache_;
    }
  }

  struct Slot {
    double default_cost = 0.0;
    std::shared_ptr<const estimators::ComputeProfile> profile;
    double wall_s = 0.0;
  };
  std::vector<Slot> slots(cands.size());
  if (opt_.share_compute_profiles) {
    std::vector<estimators::ComputeShapeKey> keys(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      keys[i] = estimators::ComputeShapeKey::of(job, cands[i]);
    }
    // Representative candidate per shape: the first in enumeration order (any
    // sibling measures the identical profile; the canonical pick keeps the
    // request's work schedule-independent).
    std::map<estimators::ComputeShapeKey,
             std::shared_ptr<const estimators::ComputeProfile>>
        resolved;
    struct ShapeWork {
      const estimators::ComputeShapeKey* key;
      int rep;
      std::shared_ptr<const estimators::ComputeProfile> profile;
      double wall_s = 0.0;
    };
    std::map<estimators::ComputeShapeKey, int> shape_rep;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      shape_rep.try_emplace(keys[i], static_cast<int>(i));
    }
    std::vector<ShapeWork> missing;
    for (const auto& [key, rep] : shape_rep) {
      if (auto hit = ccache->find(key)) {
        resolved.emplace(key, std::move(hit));
      } else {
        missing.push_back({&key, rep, nullptr, 0.0});
      }
    }
    exec.parallel_for(static_cast<int>(missing.size()), [&](int i) {
      ShapeWork& w = missing[static_cast<std::size_t>(i)];
      obs::Span span(sink, "score.profile_shape");
      const common::Stopwatch t0;
      w.profile = std::make_shared<const estimators::ComputeProfile>(estimators::profile_compute(
          topo, job, cands[static_cast<std::size_t>(w.rep)], opt_.compute_profile));
      w.wall_s = t0.seconds();
    });
    for (ShapeWork& w : missing) {  // canonical key order
      ccache->insert(*w.key, w.profile);
      resolved.emplace(*w.key, std::move(w.profile));
      res.score_cpu_s += w.wall_s;
    }
    res.shapes_profiled = static_cast<int>(missing.size());
    res.shapes_reused = static_cast<int>(shape_rep.size() - missing.size());
    if (sink) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("hits");
      w.value(res.shapes_reused);
      w.key("misses");
      w.value(res.shapes_profiled);
      w.end_object();
      sink->instant("compute_cache", w.str());
    }
    exec.parallel_for(static_cast<int>(cands.size()), [&](int i) {
      Slot& slot = slots[static_cast<std::size_t>(i)];
      const common::Stopwatch t0;
      slot.profile = resolved.find(keys[static_cast<std::size_t>(i)])->second;
      estimators::PipetteLatencyModel model(job, cands[static_cast<std::size_t>(i)],
                                            *slot.profile, &profiled->bw, links);
      slot.default_cost =
          model.estimate(parallel::Mapping::megatron_default(cands[static_cast<std::size_t>(i)].pc));
      slot.wall_s = t0.seconds();
    });
  } else {
    // Unshared reference path: one profile per candidate, exactly the
    // pre-memoization behaviour (the bit-identity tests race the two).
    exec.parallel_for(static_cast<int>(cands.size()), [&](int i) {
      Slot& slot = slots[static_cast<std::size_t>(i)];
      const Candidate& cand = cands[static_cast<std::size_t>(i)];
      const common::Stopwatch t0;
      slot.profile = std::make_shared<const estimators::ComputeProfile>(
          estimators::profile_compute(topo, job, cand, opt_.compute_profile));
      estimators::PipetteLatencyModel model(job, cand, *slot.profile, &profiled->bw, links);
      slot.default_cost = model.estimate(parallel::Mapping::megatron_default(cand.pc));
      slot.wall_s = t0.seconds();
    });
    res.shapes_profiled = static_cast<int>(cands.size());
  }
  for (const auto& slot : slots) res.score_cpu_s += slot.wall_s;
  res.score_wall_s = t_score.seconds();
  if (sink) sink->end_span("phase.score");

  struct Scored {
    Candidate cand;
    double default_cost;
    std::shared_ptr<const estimators::ComputeProfile> profile;
  };
  std::vector<Scored> scored;
  scored.reserve(cands.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    scored.push_back({cands[i], slots[i].default_cost, slots[i].profile});
  }

  // Stable sort: equal costs keep enumeration order, so the ranking is the
  // same no matter how the scoring pass was scheduled.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.default_cost < b.default_cost; });

  for (const auto& s : scored) {
    if (static_cast<int>(res.ranking.size()) >= opt_.ranking_size) break;
    res.ranking.push_back({s.cand, s.default_cost});
  }

  // Lines 9-15: fine-grained worker dedication. Each SA pass runs on the
  // incremental evaluator — bit-identical costs to model.estimate, so the
  // annealed mappings match full re-evaluation move for move while proposals
  // cost O(touched groups).
  res.found = true;
  res.best = scored.front().cand;
  res.predicted_s = scored.front().default_cost;
  res.mapping = parallel::Mapping::megatron_default(scored.front().cand.pc);

  if (opt_.use_worker_dedication && past_deadline()) {
    // The earlier phases consumed the whole budget: the default-placement
    // ranking above is the best-so-far answer. Skip SA, flag the truncation.
    res.health.deadline_exceeded = true;
    if (sink) sink->instant("deadline.sa_skipped");
  } else if (opt_.use_worker_dedication) {
    if (sink) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("candidates");
      w.value(static_cast<long>(scored.size()));
      w.key("chains");
      w.value(std::max(1, opt_.sa_chains));
      w.end_object();
      sink->begin_span("phase.sa", w.str());
    }
    const common::Stopwatch t_sa;
    const int gpn = topo.gpus_per_node();
    const int chains = std::max(1, opt_.sa_chains);
    // Chain seeds mirror optimize_mapping_multichain exactly: chain 0 is the
    // candidate seed (derived from the candidate itself, not its rank, so
    // serial and parallel schedules anneal each candidate identically),
    // chain i > 0 derives from it and the chain index.
    auto chain_opts = [&](const Candidate& cand, int chain) {
      search::SaOptions so = opt_.sa;
      so.seed = search::derive_seed(opt_.sa.seed, cand.str());
      if (chain > 0) so.seed = search::derive_seed(so.seed, "mc-chain-" + std::to_string(chain));
      return so;
    };

    std::size_t winner = 0;
    const bool halving = opt_.sa_halving.enabled && opt_.sa.max_iters != kUncapped;
    if (halving) {
      const std::size_t width =
          opt_.sa_halving.width <= 0
              ? scored.size()
              : std::min<std::size_t>(scored.size(),
                                      static_cast<std::size_t>(opt_.sa_halving.width));
      int rungs = 1;
      while ((std::size_t{1} << (rungs - 1)) < width) ++rungs;
      const long full = opt_.sa.max_iters;
      long rung0 = opt_.sa_halving.rung0_iters;
      if (rung0 <= 0) rung0 = std::max<long>(1, full >> (rungs - 1));

      struct Race {
        std::unique_ptr<estimators::PipetteLatencyModel> model;
        std::vector<std::unique_ptr<search::ResumableMappingAnneal>> sa_chains;
        /// One accumulator per chain (each chain is the only writer while it
        /// runs; merged canonically after the race).
        std::vector<search::AnnealTelemetry> telems;
      };
      std::vector<Race> races(width);
      exec.parallel_for(static_cast<int>(width), [&](int i) {
        const Scored& s = scored[static_cast<std::size_t>(i)];
        Race& race = races[static_cast<std::size_t>(i)];
        race.model = std::make_unique<estimators::PipetteLatencyModel>(
            job, s.cand, *s.profile, &profiled->bw, links);
        race.sa_chains.reserve(static_cast<std::size_t>(chains));
        if (telem_ptr) race.telems.resize(static_cast<std::size_t>(chains));
        for (int c = 0; c < chains; ++c) {
          race.sa_chains.push_back(std::make_unique<search::ResumableMappingAnneal>(
              *race.model, parallel::Mapping::megatron_default(s.cand.pc), gpn,
              chain_opts(s.cand, c), opt_.moves));
          if (opt_.sa_halving.stopping.enabled) {
            race.sa_chains.back()->enable_stopping(opt_.sa_halving.stopping);
          }
          // Shared absolute deadline across every chain of the request: N
          // chains on fewer threads still collectively stop on time, each
          // keeping its best-so-far (the anytime contract).
          if (deadlined) race.sa_chains.back()->set_deadline(&req_watch, opt_.deadline_s);
          if (telem_ptr) {
            race.sa_chains.back()->set_telemetry(&race.telems[static_cast<std::size_t>(c)]);
          }
        }
      });
      // Canonical per-candidate score: lowest chain cost, ties to the lowest
      // chain index — the multichain merge rule.
      auto best_chain = [&](int i) {
        const Race& race = races[static_cast<std::size_t>(i)];
        std::size_t best = 0;
        for (std::size_t c = 1; c < race.sa_chains.size(); ++c) {
          if (race.sa_chains[c]->best_cost() < race.sa_chains[best]->best_cost()) best = c;
        }
        return best;
      };
      auto race_cost = [&](int i) {
        return races[static_cast<std::size_t>(i)]
            .sa_chains[best_chain(i)]
            ->best_cost();
      };

      // Counts stopped chains among the alive candidates (the set the next
      // rung would still grant iterations to). Stop decisions are pure
      // functions of each chain's trajectory, so this count — and the early
      // rung-loop exit below — is identical on every thread count.
      auto stopped_among_alive = [&](const std::vector<int>& alive_set) {
        int stopped = 0;
        for (const int i : alive_set) {
          for (const auto& chain : races[static_cast<std::size_t>(i)].sa_chains) {
            if (chain->stopped()) ++stopped;
          }
        }
        return stopped;
      };
      std::vector<int> alive(width);
      std::iota(alive.begin(), alive.end(), 0);
      // Per-chain iteration grants beyond the rung target, accumulated by
      // the stopper-feedback redistribution below (global candidate index
      // times chains + chain index, so entries survive alive-set pruning).
      std::vector<long> bonus(width * static_cast<std::size_t>(chains), 0);
      const bool redistribute =
          opt_.sa_halving.stopping.enabled && opt_.sa_halving.redistribute;
      long prev_target = 0;
      int prev_stopped = 0;
      for (int r = 0; r < rungs; ++r) {
        // Between rungs is the cheap place to stop starting work; chains
        // already running cut themselves off via their armed deadline.
        if (past_deadline()) {
          res.health.deadline_exceeded = true;
          break;
        }
        // rung0 << r clamped to full, shift-before-compare so a user-set
        // rung0_iters can never signed-overflow: the cap doubles per rung
        // and the final rung always lands exactly on the full budget.
        const long target = (r == rungs - 1 || rung0 > (full >> r)) ? full : rung0 << r;
        // Every alive chain is granted the rung's increment; spent < granted
        // then flags a tripped per-chain deadline in the explain report.
        res.sa_iters_granted += static_cast<long>(alive.size()) * chains * (target - prev_target);
        if (redistribute) {
          // Stopped chains cannot spend this rung's increment: re-grant it
          // to the still-running chains of alive candidates, split evenly in
          // canonical order (alive is sorted by candidate index, chains by
          // index) with the remainder to the earliest. Stop decisions are
          // pure per-chain functions, so this reallocation is identical on
          // every thread count.
          const long inc = target - prev_target;
          std::vector<std::size_t> running;
          long released = 0;
          for (const int i : alive) {
            for (int c2 = 0; c2 < chains; ++c2) {
              if (races[static_cast<std::size_t>(i)].sa_chains[static_cast<std::size_t>(c2)]
                      ->stopped()) {
                released += inc;
              } else {
                running.push_back(static_cast<std::size_t>(i) * static_cast<std::size_t>(chains) +
                                  static_cast<std::size_t>(c2));
              }
            }
          }
          if (released > 0 && !running.empty()) {
            const long share = released / static_cast<long>(running.size());
            long rem = released % static_cast<long>(running.size());
            for (const std::size_t u : running) {
              bonus[u] += share + (rem > 0 ? 1 : 0);
              if (rem > 0) --rem;
            }
            res.sa_iters_redistributed += released;
          }
        }
        prev_target = target;
        if (sink) {
          obs::JsonWriter w;
          w.begin_object();
          w.key("rung");
          w.value(r);
          w.key("target_iters");
          w.value(target);
          w.key("alive");
          w.value(static_cast<long>(alive.size()));
          w.end_object();
          sink->begin_span("sa.rung", w.str());
        }
        exec.parallel_for(static_cast<int>(alive.size()) * chains, [&](int u) {
          const int cand_i = alive[static_cast<std::size_t>(u / chains)];
          const int chain_i = u % chains;
          std::string args;
          if (sink) {
            obs::JsonWriter w;
            w.begin_object();
            w.key("plan");
            w.value(scored[static_cast<std::size_t>(cand_i)].cand.str());
            w.key("chain");
            w.value(chain_i);
            w.end_object();
            args = w.str();
          }
          obs::Span span(sink, "sa.chain", std::move(args));
          races[static_cast<std::size_t>(cand_i)]
              .sa_chains[static_cast<std::size_t>(chain_i)]
              ->run_to(target + bonus[static_cast<std::size_t>(cand_i) *
                                          static_cast<std::size_t>(chains) +
                                      static_cast<std::size_t>(chain_i)]);
        });
        if (sink) sink->end_span("sa.rung");
        ++res.sa_rungs;
        if (opt_.sa_halving.stopping.enabled) {
          const int stopped = stopped_among_alive(alive);
          if (sink && stopped > prev_stopped) {
            obs::JsonWriter w;
            w.begin_object();
            w.key("rung");
            w.value(r);
            w.key("stopped_chains");
            w.value(stopped);
            w.key("alive_chains");
            w.value(static_cast<long>(alive.size()) * chains);
            w.end_object();
            sink->instant("sa.early_stop", w.str());
          }
          prev_stopped = stopped;
          // Every surviving chain has converged: later rungs would grant
          // iterations nobody spends, so the race ends here.
          if (stopped == static_cast<int>(alive.size()) * chains) break;
        }
        if (alive.size() <= 1) continue;
        // Keep the best half plus the slack band around the leader; `alive`
        // enters in default-cost rank order, so the stable sort resolves
        // equal costs to the better-ranked candidate, and re-sorting the
        // survivors restores rank order for the next rung.
        std::stable_sort(alive.begin(), alive.end(),
                         [&](int a, int b) { return race_cost(a) < race_cost(b); });
        const double band = race_cost(alive.front()) * (1.0 + std::max(0.0, opt_.sa_halving.keep_slack));
        std::size_t keep = (alive.size() + 1) / 2;
        while (keep < alive.size() && race_cost(alive[keep]) <= band) ++keep;
        if (sink) {
          const int leader = alive.front();
          sink->counter("sa.alive", static_cast<double>(keep));
          sink->counter("sa.leader_cost", race_cost(leader));
          sink->counter("sa.leader_temp",
                        races[static_cast<std::size_t>(leader)]
                            .sa_chains[best_chain(leader)]
                            ->temperature());
        }
        alive.resize(keep);
        std::sort(alive.begin(), alive.end());
      }
      std::stable_sort(alive.begin(), alive.end(),
                       [&](int a, int b) { return race_cost(a) < race_cost(b); });
      winner = static_cast<std::size_t>(alive.front());
      const Race& wrace = races[winner];
      const std::size_t wchain = best_chain(alive.front());
      res.predicted_s = wrace.sa_chains[wchain]->best_cost();
      res.best = scored[winner].cand;
      res.mapping = wrace.sa_chains[wchain]->best_mapping();
      for (const Race& race : races) {
        for (const auto& chain : race.sa_chains) {
          res.sa_iters += chain->total_iters();
          res.search_cpu_s += chain->wall_s();
          if (chain->stopped()) ++res.sa_chains_stopped;
          if (chain->deadline_tripped()) res.health.deadline_exceeded = true;
        }
        for (const auto& t : race.telems) telem.merge(t);
      }
      if (opt_.sa_halving.stopping.enabled) {
        // Iterations the fixed rung policy granted but converged chains
        // handed back (deadline trips are excluded by gating on stopping —
        // they are flagged separately by spent < granted in explain()).
        res.sa_iters_saved = std::max<long>(0, res.sa_iters_granted - res.sa_iters);
      }
    } else {
      // Legacy allocation: the sa_top_k best candidates, full budget each.
      const std::size_t limit =
          opt_.sa_top_k <= 0
              ? scored.size()
              : std::min<std::size_t>(scored.size(), static_cast<std::size_t>(opt_.sa_top_k));
      if (opt_.sa.max_iters != kUncapped) {
        res.sa_iters_granted =
            static_cast<long>(limit) * std::max(1, opt_.sa_chains) * opt_.sa.max_iters;
      }
      struct SaSlot {
        double best_cost = std::numeric_limits<double>::infinity();
        std::optional<parallel::Mapping> mapping;
        double wall_s = 0.0;
        long iters = 0;
        search::AnnealTelemetry telem;
      };
      std::vector<SaSlot> sa_slots(limit);
      exec.parallel_for(static_cast<int>(limit), [&](int i) {
        const auto& s = scored[static_cast<std::size_t>(i)];
        auto& slot = sa_slots[static_cast<std::size_t>(i)];
        std::string args;
        if (sink) {
          obs::JsonWriter w;
          w.begin_object();
          w.key("plan");
          w.value(s.cand.str());
          w.end_object();
          args = w.str();
        }
        obs::Span span(sink, "sa.candidate", std::move(args));
        estimators::PipetteLatencyModel model(job, s.cand, *s.profile, &profiled->bw, links);
        auto mapping = parallel::Mapping::megatron_default(s.cand.pc);
        search::SaOptions sa = chain_opts(s.cand, 0);
        // The legacy loop has no resumable chains to arm, so the deadline
        // lands as a per-candidate wall-clock clamp on the budget that
        // remains when this candidate dispatches.
        if (deadlined) {
          sa.time_limit_s =
              std::min(sa.time_limit_s, std::max(0.0, opt_.deadline_s - req_watch.seconds()));
        }
        const auto sa_res = search::optimize_mapping_multichain(
            mapping, model, gpn, sa, {opt_.sa_chains, opt_.executor}, opt_.moves,
            telem_ptr ? &slot.telem : nullptr);
        slot.best_cost = sa_res.best_cost;
        slot.mapping = std::move(mapping);
        slot.wall_s = sa_res.wall_s;
        slot.iters = sa_res.iters;
      });
      double best_cost = std::numeric_limits<double>::infinity();
      std::size_t best_i = limit;  // ties resolve to the lowest default-cost rank
      for (std::size_t i = 0; i < limit; ++i) {
        res.search_cpu_s += sa_slots[i].wall_s;
        res.sa_iters += sa_slots[i].iters;
        telem.merge(sa_slots[i].telem);
        if (sa_slots[i].best_cost < best_cost) {
          best_cost = sa_slots[i].best_cost;
          best_i = i;
        }
      }
      if (best_i < limit) {
        winner = best_i;
        res.best = scored[best_i].cand;
        res.predicted_s = sa_slots[best_i].best_cost;
        res.mapping = std::move(*sa_slots[best_i].mapping);
      }
      if (past_deadline()) res.health.deadline_exceeded = true;
    }

    // Elastic warm start: continue annealing the dedicated winner from the
    // previous placement projected onto the (possibly resized) cluster. An
    // extra derive_seed-keyed pass, merged by strict improvement — ties keep
    // the cold-path mapping, so an unchanged search space reproduces the
    // cold result while a genuine resize starts from the surviving structure
    // instead of from scratch.
    if (warm && warm->mapping && past_deadline()) {
      res.health.deadline_exceeded = true;  // no budget left for the warm pass
    } else if (warm && warm->mapping) {
      obs::Span span(sink, "sa.warm_start");
      const Scored& s = scored[winner];
      parallel::Mapping warm_m = parallel::project_mapping(*warm->mapping, s.cand.pc);
      estimators::PipetteLatencyModel model(job, s.cand, *s.profile, &profiled->bw, links);
      search::SaOptions wopt = opt_.sa;
      wopt.seed =
          search::derive_seed(search::derive_seed(opt_.sa.seed, s.cand.str()), "warm-start");
      if (deadlined) {
        wopt.time_limit_s =
            std::min(wopt.time_limit_s, std::max(0.0, opt_.deadline_s - req_watch.seconds()));
      }
      const auto wres =
          search::optimize_mapping(warm_m, model, gpn, wopt, opt_.moves, telem_ptr);
      res.sa_iters += wres.iters;
      if (opt_.sa.max_iters != kUncapped) res.sa_iters_granted += opt_.sa.max_iters;
      res.search_cpu_s += wres.wall_s;
      if (wres.best_cost < res.predicted_s) {
        res.predicted_s = wres.best_cost;
        res.mapping = std::move(warm_m);
      }
    }

    // Keep the ranking's head consistent with the dedicated choice. If the
    // winner fell outside a truncated ranking, leave the ranking untouched
    // rather than mislabel the head with another candidate's SA cost.
    promote_winner(res.ranking, res.best, res.predicted_s);
    res.search_wall_s = t_sa.seconds();
    if (sink) sink->end_span("phase.sa");
  }
  if (res.mapping) {
    res.health.degraded_links_used =
        count_degraded_links(*res.mapping, topo.gpus_per_node(), san);
  }
  if (deadlined) {
    res.health.deadline_s = opt_.deadline_s;
    res.health.overrun_s = std::max(0.0, req_watch.seconds() - opt_.deadline_s);
    if (sink && res.health.deadline_exceeded) sink->instant("deadline.exceeded");
  }
  flush_request_metrics(opt_.metrics, res, telem);
  return res;
}

}  // namespace pipette::core
