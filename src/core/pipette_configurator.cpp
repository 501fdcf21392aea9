#include "core/pipette_configurator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "estimators/latency_models.h"
#include "mlp/regressor.h"
#include "model/gpt_zoo.h"
#include "obs/json.h"
#include "parallel/groups.h"

namespace pipette::core {

namespace {

/// Memory-driven plan-space pruning: recompute/ZeRO-1 relief variants are
/// generated only for base plans whose margin-adjusted memory estimate
/// exceeds this fraction of the GPU memory (or fails the filter outright),
/// and only the cheapest fitting variant per family (without / with ZeRO) is
/// kept — so the enlarged space stays bounded.
constexpr double kVariantTriggerFrac = 0.9;

/// Halving elimination slack: a rung keeps the best half *plus* every
/// candidate whose annealed cost is within this fraction of the rung leader.
/// Low-budget rungs rank near-tied candidates almost arbitrarily (their
/// chains have barely cooled); the band lets genuine contenders survive to a
/// budget that separates them, at a small bounded work increase.
constexpr double kKeepSlack = 0.03;

/// Algorithm 1's instrumented phases, in request order.
enum Phase { kProfile, kMemTrain, kMemFilter, kScore, kSa, kPhases };

/// Trace span and latency histogram of each Phase.
constexpr struct {
  const char* span;
  const char* metric;
} kPhaseNames[kPhases] = {
    {"phase.profile", "pipette.phase.profile.seconds"},
    {"phase.mem_train", "pipette.phase.mem_train.seconds"},
    {"phase.mem_filter", "pipette.phase.mem_filter.seconds"},
    {"phase.score", "pipette.phase.score.seconds"},
    {"phase.sa", "pipette.phase.sa.seconds"},
};

/// Flushes one request's accounting into the metrics registry — the one
/// exit of configure(). Everything written is already on the result (or
/// measured beside it), so the flush can never influence the recommendation.
/// `phase_s` holds each phase's seconds, negative for a phase the request
/// skipped.
void flush_request_metrics(obs::Registry* reg, const ConfiguratorResult& res,
                           const search::AnnealTelemetry& telem,
                           const std::array<double, kPhases>& phase_s) {
  if (!reg) return;
  reg->counter("pipette.requests").inc();
  reg->counter("pipette.candidates.evaluated").add(res.candidates_evaluated);
  reg->counter("pipette.candidates.rejected_oom").add(res.candidates_rejected_oom);
  reg->counter("pipette.shapes.profiled").add(res.shapes_profiled);
  reg->counter("pipette.shapes.reused").add(res.shapes_reused);
  reg->counter("pipette.sa.iters").add(res.sa_iters);
  reg->counter("pipette.sa.rungs").add(res.sa_rungs);
  for (int k = 0; k < search::AnnealTelemetry::kKinds; ++k) {
    if (telem.proposed[k] != 0) {
      reg->counter(std::string("pipette.sa.proposals.") + search::AnnealTelemetry::kind_name(k))
          .add(telem.proposed[k]);
    }
    if (telem.accepted[k] != 0) {
      reg->counter(std::string("pipette.sa.accepts.") + search::AnnealTelemetry::kind_name(k))
          .add(telem.accepted[k]);
    }
    if (telem.bounded[k] != 0) {
      reg->counter(std::string("pipette.sa.bounded_stops.") +
                   search::AnnealTelemetry::kind_name(k))
          .add(telem.bounded[k]);
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
  // Every phase histogram is registered, so a phase this request skipped
  // (profiling and training on the service path, where the cluster cache
  // owns them) reads as count 0 rather than as missing.
  for (int p = 0; p < kPhases; ++p) {
    const obs::Histogram h =
        reg->histogram(kPhaseNames[p].metric, obs::Registry::latency_bounds_s());
    if (phase_s[p] >= 0.0) h.observe(phase_s[p]);
  }
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

/// One candidate in the successive-halving race: its latency model and its
/// SA chain, which resumes from rung to rung.
struct Entrant {
  std::unique_ptr<estimators::PipetteLatencyModel> model;
  std::unique_ptr<search::ResumableMappingAnneal> chain;
  /// The chain's accumulator (the chain is its only writer while it runs;
  /// merged in rank order after the race).
  search::AnnealTelemetry telem;

  double cost() const { return chain->best_cost(); }
};

}  // namespace

std::string validate(const PipetteOptions& opt) {
  const search::SaOptions& sa = opt.sa;
  struct AtLeast {
    const char* field;
    long value, min;
  };
  const AtLeast at_least[] = {
      {"sa.max_iters", sa.max_iters, 1},
      {"sa_halving.rung0_iters", opt.sa_halving.rung0_iters, 0},
      {"memory_training.max_profile_nodes", opt.memory_training.max_profile_nodes, 1},
  };
  for (const AtLeast& b : at_least) {
    if (b.value < b.min) {
      return std::string(b.field) + " must be >= " + std::to_string(b.min) + ", got " +
             std::to_string(b.value);
    }
  }
  // The race grants alive x (rung target increment) iterations per rung,
  // which the uncapped sentinel would overflow.
  if (sa.max_iters == std::numeric_limits<long>::max()) {
    return "sa.max_iters must be an iteration budget, not the uncapped sentinel; bound "
           "wall-clock time with deadline_s";
  }
  const std::pair<const char*, double> non_negative[] = {
      {"profile.noise_sigma", opt.profile.noise_sigma},
      {"memory_training.soft_margin", opt.memory_training.soft_margin},
  };
  for (const auto& [field, v] : non_negative) {
    if (!std::isfinite(v) || v < 0.0) return std::string(field) + " must be finite and >= 0";
  }
  const std::vector<int>& batches = opt.memory_training.profile_global_batches;
  if (batches.empty() || *std::min_element(batches.begin(), batches.end()) < 1) {
    return "memory_training.profile_global_batches must be non-empty with every entry >= 1";
  }
  if (std::isnan(opt.deadline_s)) return "deadline_s must not be NaN";
  return mlp::validate(opt.memory_training.hidden, opt.memory_training.train);
}

struct PipetteConfigurator::Request {
  Request(const PipetteOptions& opt, const cluster::Topology& t, const model::TrainingJob& j,
          std::string method)
      : topo(t),
        job(j),
        deadline_s(opt.deadline_s),
        sink(opt.trace_sink),
        telem_ptr(opt.metrics ? &telem : nullptr),
        exec(opt.executor ? *opt.executor : serial),
        links(estimators::LinkConstants::from_spec(t.spec())) {
    res.method = std::move(method);
    res.topo_fingerprint = t.fingerprint();
    res.job_digest = model::job_digest(j);
    phase_s.fill(-1.0);
  }

  bool deadlined() const { return std::isfinite(deadline_s); }
  /// Trace-event args, built only when a sink will record them.
  template <typename... KeyValues>
  std::string args(const KeyValues&... kv) const {
    return sink ? obs::json_object(kv...) : std::string();
  }

  const cluster::Topology& topo;
  const model::TrainingJob& job;
  ConfiguratorResult res;
  /// The deadline clock, started at entry. Profiling, filtering, and scoring
  /// always run — a valid plan needs them — so the deadline's teeth are in
  /// the SA phase, which is anytime (best-so-far at any cut).
  const common::Stopwatch watch;
  const double deadline_s;
  obs::TraceSink* const sink;
  search::AnnealTelemetry telem;
  /// Annealers only pay the per-proposal telemetry increments when somebody
  /// will read them; null stays on the single-branch disabled path.
  search::AnnealTelemetry* const telem_ptr;
  common::SerialExecutor serial;
  common::Executor& exec;
  const estimators::LinkConstants links;
  std::shared_ptr<const cluster::ProfileResult> profiled;
  /// Seconds spent in each Phase; negative for a phase this request skipped.
  std::array<double, kPhases> phase_s;
};

/// Opens one stage of Algorithm 1: its `phase.<name>` trace span, the
/// stopwatch behind the stage's *_wall_s field, the seconds the request's
/// metrics flush observes into `pipette.phase.<name>.seconds`, and the
/// request's deadline check.
class PipetteConfigurator::PhaseScope {
 public:
  PhaseScope(Request& rq, Phase phase, double* wall_s = nullptr, std::string args = {})
      : rq_(rq), phase_(phase), wall_s_(wall_s) {
    if (rq_.sink) rq_.sink->begin_span(kPhaseNames[phase_].span, std::move(args));
    watch_.restart();
  }
  ~PhaseScope() {
    const double s = watch_.seconds();
    rq_.phase_s[phase_] = s;
    if (wall_s_) *wall_s_ = s;
    if (rq_.sink) rq_.sink->end_span(kPhaseNames[phase_].span);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// True once the request's deadline has passed (never without one).
  bool past_deadline() const {
    return rq_.deadlined() && rq_.watch.seconds() >= rq_.deadline_s;
  }

 private:
  Request& rq_;
  const Phase phase_;
  double* const wall_s_;
  common::Stopwatch watch_;
};

struct PipetteConfigurator::Scored {
  Candidate cand;
  double default_cost = 0.0;
  std::shared_ptr<const estimators::ComputeProfile> profile;
};

PipetteConfigurator::PipetteConfigurator(PipetteOptions opt) : opt_(std::move(opt)) {}

std::string PipetteConfigurator::name() const {
  return opt_.use_worker_dedication ? "PPT-LF" : "PPT-L";
}

ConfiguratorResult PipetteConfigurator::configure(const cluster::Topology& topo,
                                                  const model::TrainingJob& job) {
  std::string reason = model::validate(job);
  if (reason.empty()) reason = cluster::validate(topo.spec());
  if (reason.empty()) reason = validate(opt_);
  if (!reason.empty()) throw std::invalid_argument(reason);
  Request rq(opt_, topo, job, name());

  profile(rq);         // line 1
  load_estimator(rq);  // the one-time memory estimator
  if (const std::vector<Candidate> cands = filter(rq); !cands.empty()) {  // lines 3-7
    const std::vector<Scored> scored = score(rq, cands);                    // line 8
    if (opt_.use_worker_dedication) dedicate(rq, scored);                   // lines 9-15
  }

  ConfiguratorResult& res = rq.res;
  if (res.mapping) {
    res.health.degraded_links_used =
        count_degraded_links(*res.mapping, topo.gpus_per_node(), rq.profiled->sanitize);
  }
  if (rq.deadlined()) {
    res.health.deadline_s = rq.deadline_s;
    res.health.overrun_s = std::max(0.0, rq.watch.seconds() - rq.deadline_s);
    if (rq.sink && res.health.deadline_exceeded) rq.sink->instant("deadline.exceeded");
  }
  flush_request_metrics(opt_.metrics, res, rq.telem, rq.phase_s);
  return std::move(res);
}

void PipetteConfigurator::profile(Request& rq) const {
  // Line 1: profile the actual bandwidth matrix — or reuse a snapshot the
  // engine's cluster cache already took of this fabric on this day. Like
  // mem_train_wall_s, profile_wall_s reports only the cost this request paid
  // (the profile's simulated cost, Table II): zero when the snapshot's owner
  // already paid it.
  ConfiguratorResult& res = rq.res;
  rq.profiled = opt_.profile_snapshot;
  if (!rq.profiled) {
    const PhaseScope phase(rq, kProfile);
    rq.profiled = std::make_shared<const cluster::ProfileResult>(
        cluster::profile_network(rq.topo, opt_.profile));
    res.profile_wall_s = rq.profiled->wall_time_s;
  }
  // Snapshot provenance: how much of the matrix is measurement vs repair.
  // Applies to cached snapshots too — a degraded profile stays degraded for
  // every request it serves.
  const cluster::SanitizeReport& san = rq.profiled->sanitize;
  res.health.repaired_readings = san.repaired_readings();
  res.health.imputed_symmetric = san.imputed_symmetric;
  res.health.imputed_neighbor = san.imputed_neighbor;
  res.health.imputed_floor = san.imputed_floor;
  res.health.quarantined_nodes = san.quarantined_nodes;
  if (san.total_readings > 0) {
    res.health.confidence =
        1.0 - static_cast<double>(san.repaired_readings()) / san.total_readings;
  }
  if (rq.sink && !san.clean()) {
    rq.sink->instant("profile.degraded",
                     obs::json_object("repaired_readings", san.repaired_readings(),
                                      "quarantined_nodes",
                                      static_cast<long>(san.quarantined_nodes.size())));
  }
}

void PipetteConfigurator::load_estimator(Request& rq) const {
  // The one-time memory estimator (trained from small-scale profiling runs):
  // an injected opt_.memory, trusted as-is, else a fresh training run.
  ConfiguratorResult& res = rq.res;
  if (opt_.memory) {
    res.memory_estimator = opt_.memory;
  } else {
    const PhaseScope phase(rq, kMemTrain, &res.mem_train_wall_s);
    res.memory_estimator = std::make_shared<const estimators::MlpMemoryEstimator>(
        estimators::MlpMemoryEstimator::train_for_cluster(rq.topo, model::gpt_zoo(),
                                                          opt_.memory_training));
  }
}

std::vector<Candidate> PipetteConfigurator::filter(Request& rq) const {
  // Lines 3-7, over the enlarged plan space: enumerate the base plans (plain
  // + interleaved), memory-filter each one, and — where a base plan is near
  // or over the fit threshold — escalate through the recompute/ZeRO-1 relief
  // ladder, keeping the cheapest fitting variant per family so the candidate
  // count stays bounded. Each base plan is independent, so this fans out
  // across the executor; kept plans land in index-addressed slots and are
  // merged in enumeration order, keeping the set schedule-independent.
  ConfiguratorResult& res = rq.res;
  const estimators::MlpMemoryEstimator& memory = *res.memory_estimator;
  const std::vector<Candidate> bases = parallel::enumerate_base_plans(
      rq.topo.num_gpus(), rq.topo.gpus_per_node(), rq.job.model.num_layers,
      rq.job.global_batch, opt_.constraints);

  const PhaseScope phase(rq, kMemFilter, &res.mem_est_wall_s,
                         rq.args("base_plans", static_cast<long>(bases.size())));
  const double mem_limit = rq.topo.spec().gpu_memory_bytes;
  struct PlanSlot {
    std::vector<Candidate> kept;
    int evaluated = 0;
    int rejected = 0;
    double wall_s = 0.0;
  };
  std::vector<PlanSlot> plan_slots(bases.size());
  rq.exec.parallel_for(static_cast<int>(bases.size()), [&](int i) {
    PlanSlot& slot = plan_slots[static_cast<std::size_t>(i)];
    const Candidate& base = bases[static_cast<std::size_t>(i)];
    const common::Stopwatch t0;
    const double margin = 1.0 + memory.soft_margin();
    const double base_est = memory.estimate_bytes(rq.job, base) * margin;
    const bool base_fits = base_est <= mem_limit;
    ++slot.evaluated;
    if (base_fits) {
      slot.kept.push_back(base);
    } else {
      ++slot.rejected;
    }
    if (!base_fits || base_est > kVariantTriggerFrac * mem_limit) {
      bool kept_plain_family = false, kept_zero_family = false;
      for (const Candidate& variant : parallel::memory_relief_variants(base, opt_.constraints)) {
        bool& kept_family = variant.zero1 ? kept_zero_family : kept_plain_family;
        if (kept_family) continue;
        ++slot.evaluated;
        if (memory.estimate_bytes(rq.job, variant) * margin <= mem_limit) {
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
    cands.insert(cands.end(), slot.kept.begin(), slot.kept.end());
  }
  return cands;
}

std::vector<PipetteConfigurator::Scored> PipetteConfigurator::score(
    Request& rq, const std::vector<Candidate>& cands) const {
  // Line 8: profile each candidate's compute and price the Megatron-default
  // placement. Profiles depend only on the plan's compute shape, so each
  // distinct ComputeShapeKey is profiled once — by its first candidate in
  // enumeration order, fanned out over the executor — and every (dp, zero1)
  // sibling shares the result.
  ConfiguratorResult& res = rq.res;
  const PhaseScope phase(rq, kScore, &res.score_wall_s,
                         rq.args("candidates", static_cast<long>(cands.size())));
  struct Shape {
    int rep;
    std::shared_ptr<const estimators::ComputeProfile> profile;
    double wall_s = 0.0;
  };
  std::map<estimators::ComputeShapeKey, Shape> shapes;
  std::vector<const Shape*> shape_of(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const auto key = estimators::ComputeShapeKey::of(rq.job, cands[i]);
    shape_of[i] = &shapes.try_emplace(key, Shape{static_cast<int>(i), nullptr}).first->second;
  }
  std::vector<Shape*> distinct;
  for (auto& entry : shapes) distinct.push_back(&entry.second);
  rq.exec.parallel_for(static_cast<int>(distinct.size()), [&](int i) {
    Shape& shape = *distinct[static_cast<std::size_t>(i)];
    obs::Span span(rq.sink, "score.profile_shape");
    const common::Stopwatch t0;
    shape.profile =
        std::make_shared<const estimators::ComputeProfile>(estimators::profile_compute(
            rq.topo, rq.job, cands[static_cast<std::size_t>(shape.rep)], opt_.compute_profile));
    shape.wall_s = t0.seconds();
  });
  for (const Shape* shape : distinct) res.score_cpu_s += shape->wall_s;
  res.shapes_profiled = static_cast<int>(distinct.size());
  res.shapes_reused = static_cast<int>(cands.size() - distinct.size());

  std::vector<Scored> scored(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) scored[i] = {cands[i], 0.0, shape_of[i]->profile};

  std::vector<double> slot_wall(cands.size());
  rq.exec.parallel_for(static_cast<int>(cands.size()), [&](int i) {
    Scored& s = scored[static_cast<std::size_t>(i)];
    const common::Stopwatch t0;
    const estimators::PipetteLatencyModel model(rq.job, s.cand, *s.profile, &rq.profiled->bw,
                                                rq.links);
    s.default_cost = model.estimate(parallel::Mapping::megatron_default(s.cand.pc));
    slot_wall[static_cast<std::size_t>(i)] = t0.seconds();
  });
  for (const double w : slot_wall) res.score_cpu_s += w;

  // Stable sort: equal costs keep enumeration order, so the ranking is the
  // same no matter how the scoring pass was scheduled.
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.default_cost < b.default_cost;
  });
  for (const Scored& s : scored) {
    if (static_cast<int>(res.ranking.size()) >= kRankingSize) break;
    res.ranking.push_back({s.cand, s.default_cost});
  }
  // The default-placement head: PPT-L's answer, and the cost worker
  // dedication starts from.
  res.found = true;
  res.best = scored.front().cand;
  res.predicted_s = scored.front().default_cost;
  res.mapping = parallel::Mapping::megatron_default(res.best.pc);
  return scored;
}

void PipetteConfigurator::dedicate(Request& rq, const std::vector<Scored>& scored) const {
  // Lines 9-15: fine-grained worker dedication, budgeted by the
  // successive-halving race (SaHalvingOptions). Each chain runs on the
  // incremental evaluator — bit-identical costs to model.estimate, so the
  // annealed mappings match full re-evaluation move for move while proposals
  // cost O(touched groups).
  ConfiguratorResult& res = rq.res;
  const PhaseScope phase(rq, kSa, &res.search_wall_s,
                         rq.args("candidates", static_cast<long>(scored.size())));
  if (phase.past_deadline()) {
    // The earlier phases consumed the whole budget: the default-placement
    // ranking is the best-so-far answer. Skip SA, flag the truncation.
    res.health.deadline_exceeded = true;
    if (rq.sink) rq.sink->instant("deadline.sa_skipped");
    return;
  }
  const std::size_t racers = scored.size();
  int rungs = 1;
  while ((std::size_t{1} << (rungs - 1)) < racers) ++rungs;
  const long full = opt_.sa.max_iters;
  const long rung0 = opt_.sa_halving.rung0_iters > 0 ? opt_.sa_halving.rung0_iters
                                                     : std::max<long>(1, full >> (rungs - 1));

  // Each chain's seed derives from the candidate itself, not its rank, so
  // serial and parallel schedules anneal each candidate identically. Every
  // chain is armed with the shared absolute deadline: N chains on fewer
  // threads still collectively stop on time, each keeping its best-so-far
  // (the anytime contract).
  std::vector<Entrant> race(racers);
  rq.exec.parallel_for(static_cast<int>(racers), [&](int i) {
    const Scored& s = scored[static_cast<std::size_t>(i)];
    Entrant& e = race[static_cast<std::size_t>(i)];
    e.model = std::make_unique<estimators::PipetteLatencyModel>(rq.job, s.cand, *s.profile,
                                                                &rq.profiled->bw, rq.links);
    search::SaOptions so = opt_.sa;
    so.seed = search::derive_seed(opt_.sa.seed, s.cand.str());
    e.chain = std::make_unique<search::ResumableMappingAnneal>(
        *e.model, parallel::Mapping::megatron_default(s.cand.pc), rq.topo.gpus_per_node(), so,
        opt_.moves);
    if (rq.deadlined()) e.chain->set_deadline(&rq.watch, rq.deadline_s);
    e.chain->set_telemetry(rq.telem_ptr ? &e.telem : nullptr);
  });
  auto cost_order = [&](int a, int b) {
    return race[static_cast<std::size_t>(a)].cost() < race[static_cast<std::size_t>(b)].cost();
  };

  std::vector<int> alive(racers);
  std::iota(alive.begin(), alive.end(), 0);
  long prev_target = 0;
  for (int r = 0; r < rungs; ++r) {
    // Between rungs is the cheap place to stop starting work; chains
    // already running cut themselves off via their armed deadline.
    if (phase.past_deadline()) {
      res.health.deadline_exceeded = true;
      break;
    }
    // rung0 << r clamped to full, shift-before-compare so a user-set
    // rung0_iters can never signed-overflow: the cap doubles per rung and
    // the final rung always lands exactly on the full budget.
    const long target = (r == rungs - 1 || rung0 > (full >> r)) ? full : rung0 << r;
    const long inc = target - prev_target;
    prev_target = target;
    // Every alive chain is granted the rung's increment; spent < granted
    // then flags a tripped per-chain deadline in the explain report.
    res.sa_iters_granted += static_cast<long>(alive.size()) * inc;
    {
      const obs::Span rung_span(rq.sink, "sa.rung",
                                rq.args("rung", r, "target_iters", target, "alive",
                                        static_cast<long>(alive.size())));
      rq.exec.parallel_for(static_cast<int>(alive.size()), [&](int u) {
        const int cand = alive[static_cast<std::size_t>(u)];
        const obs::Span span(rq.sink, "sa.chain",
                             rq.args("plan", scored[static_cast<std::size_t>(cand)].cand.str()));
        race[static_cast<std::size_t>(cand)].chain->run_to(target);
      });
    }
    ++res.sa_rungs;
    if (alive.size() <= 1) continue;
    // Keep the best half plus the slack band around the leader; `alive`
    // enters in default-cost rank order, so the stable sort resolves equal
    // costs to the better-ranked candidate, and re-sorting the survivors
    // restores rank order for the next rung.
    std::stable_sort(alive.begin(), alive.end(), cost_order);
    const Entrant& leader = race[static_cast<std::size_t>(alive.front())];
    const double band = leader.cost() * (1.0 + kKeepSlack);
    std::size_t keep = (alive.size() + 1) / 2;
    while (keep < alive.size() && race[static_cast<std::size_t>(alive[keep])].cost() <= band) {
      ++keep;
    }
    if (rq.sink) {
      rq.sink->counter("sa.alive", static_cast<double>(keep));
      rq.sink->counter("sa.leader_cost", leader.cost());
      rq.sink->counter("sa.leader_temp", leader.chain->temperature());
    }
    alive.resize(keep);
    std::sort(alive.begin(), alive.end());
  }
  std::stable_sort(alive.begin(), alive.end(), cost_order);
  const std::size_t winner = static_cast<std::size_t>(alive.front());
  const Entrant& won = race[winner];
  res.best = scored[winner].cand;
  res.predicted_s = won.cost();
  res.mapping = won.chain->best_mapping();
  for (const Entrant& e : race) {
    res.sa_iters += e.chain->total_iters();
    res.search_cpu_s += e.chain->wall_s();
    if (e.chain->deadline_tripped()) res.health.deadline_exceeded = true;
    rq.telem.merge(e.telem);
  }
  // Keep the ranking's head consistent with the dedicated choice. If the
  // winner fell outside a truncated ranking, leave the ranking untouched
  // rather than mislabel the head with another candidate's SA cost.
  promote_winner(res.ranking, res.best, res.predicted_s);
}

}  // namespace pipette::core
