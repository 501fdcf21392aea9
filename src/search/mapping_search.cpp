#include "search/mapping_search.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace pipette::search {

const char* AnnealTelemetry::kind_name(int k) {
  static constexpr const char* kNames[kKinds] = {"migrate", "swap", "reverse", "node_swap",
                                                 "node_reverse"};
  return (k >= 0 && k < kKinds) ? kNames[k] : "unknown";
}

void AnnealTelemetry::merge(const AnnealTelemetry& other) {
  for (int k = 0; k < kKinds; ++k) {
    proposed[k] += other.proposed[k];
    accepted[k] += other.accepted[k];
    bounded[k] += other.bounded[k];
  }
  rollbacks += other.rollbacks;
  dirty.cells += other.dirty.cells;
  dirty.stages += other.dirty.stages;
  dirty.flows += other.dirty.flows;
  dirty.cols += other.dirty.cols;
  dirty.paths += other.dirty.paths;
  dirty.groups += other.dirty.groups;
  dirty.terms += other.dirty.terms;
}

namespace {

/// Second endpoint of a span-bounded wide move: uniform within `span` of
/// `first`, clamped to [0, n). With span == 0 the draw is uniform over all of
/// [0, n) — the historical (and paper's) unbounded behaviour, consuming the
/// identical rng stream.
int draw_second_endpoint(common::Rng& rng, int first, int n, int span) {
  if (span <= 0) return rng.uniform_int(0, n - 1);
  const int lo = std::max(0, first - span);
  const int hi = std::min(n - 1, first + span);
  return rng.uniform_int(lo, hi);
}

}  // namespace

parallel::MappingMoveDesc draw_mapping_move(const parallel::Mapping& m, common::Rng& rng,
                                            const MoveSet& moves, int gpus_per_node) {
  using parallel::MoveKind;
  const int n = m.num_workers();
  const int nodes = (n + gpus_per_node - 1) / gpus_per_node;
  const bool node_moves_possible = nodes >= 2;
  const bool any_enabled = moves.migrate || moves.swap || moves.reverse ||
                           ((moves.node_swap || moves.node_reverse) && node_moves_possible);
  if (!any_enabled) {
    // Degenerate move set — including node-only sets on a single-node
    // cluster, where the retry loop below would never terminate: fall back
    // to swap so the annealer still explores.
    const int i = rng.uniform_int(0, n - 1);
    const int j = rng.uniform_int(0, n - 1);
    return {MoveKind::kSwap, i, j};
  }
  for (;;) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        if (!moves.migrate) break;
        const int from = rng.uniform_int(0, n - 1);
        const int to = draw_second_endpoint(rng, from, n, moves.wide_span);
        return {MoveKind::kMigrate, from, to};
      }
      case 1: {
        if (!moves.swap) break;
        const int i = rng.uniform_int(0, n - 1);
        const int j = rng.uniform_int(0, n - 1);
        return {MoveKind::kSwap, i, j};
      }
      case 2: {
        if (!moves.reverse) break;
        const int i = rng.uniform_int(0, n - 1);
        const int j = draw_second_endpoint(rng, i, n, moves.wide_span);
        return {MoveKind::kReverse, i, j};
      }
      case 3: {
        if (!moves.node_swap || !node_moves_possible) break;
        const int n1 = rng.uniform_int(0, nodes - 1);
        const int n2 = rng.uniform_int(0, nodes - 1);
        return {MoveKind::kNodeSwap, n1, n2};
      }
      default: {
        if (!moves.node_reverse || !node_moves_possible) break;
        const int n1 = rng.uniform_int(0, nodes - 1);
        const int n2 = draw_second_endpoint(rng, n1, nodes, moves.node_span);
        return {MoveKind::kNodeReverse, n1, n2};
      }
    }
  }
}

MappingMove random_mapping_move(parallel::Mapping& m, common::Rng& rng, const MoveSet& moves,
                                int gpus_per_node) {
  const parallel::MappingMoveDesc mv = draw_mapping_move(m, rng, moves, gpus_per_node);
  parallel::apply_move(m, mv, gpus_per_node);
  return mv.kind;
}

SaResult optimize_mapping(parallel::Mapping& m, const estimators::PipetteLatencyModel& model,
                          int gpus_per_node, const SaOptions& opt, const MoveSet& moves,
                          AnnealTelemetry* telemetry) {
  ResumableMappingAnneal chain(model, m, gpus_per_node, opt, moves);
  chain.set_telemetry(telemetry);
  chain.run_to(opt.max_iters);
  SaResult res;
  res.initial_cost = chain.initial_cost();
  res.best_cost = chain.best_cost();
  res.iters = chain.total_iters();
  res.accepted = chain.accepted();
  res.wall_s = chain.wall_s();
  m = chain.best_mapping();
  return res;
}

SaResult optimize_mapping_multichain(parallel::Mapping& m,
                                     const estimators::PipetteLatencyModel& model,
                                     int gpus_per_node, const SaOptions& opt,
                                     const MultiChainOptions& mc, const MoveSet& moves,
                                     AnnealTelemetry* telemetry) {
  if (mc.chains <= 1) return optimize_mapping(m, model, gpus_per_node, opt, moves, telemetry);
  const common::Stopwatch watch;
  struct ChainSlot {
    SaResult res;
    parallel::Mapping mapping;
    AnnealTelemetry telem;
  };
  std::vector<ChainSlot> slots(static_cast<std::size_t>(mc.chains), ChainSlot{{}, m, {}});
  common::SerialExecutor serial;
  common::Executor& exec = mc.executor ? *mc.executor : serial;
  exec.parallel_for(mc.chains, [&](int i) {
    ChainSlot& slot = slots[static_cast<std::size_t>(i)];
    SaOptions copt = opt;
    // Chain 0 keeps the caller's stream (the single-chain trajectory is
    // always in the set); higher chains get index-keyed streams, so the
    // replica set is a pure function of (seed, chains) — never of the
    // schedule.
    if (i > 0) copt.seed = derive_seed(opt.seed, "mc-chain-" + std::to_string(i));
    slot.res = optimize_mapping(slot.mapping, model, gpus_per_node, copt, moves,
                                telemetry ? &slot.telem : nullptr);
  });
  // Canonical merge: lowest best cost, ties to the lowest chain index.
  std::size_t best = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].res.best_cost < slots[best].res.best_cost) best = i;
  }
  SaResult out = slots[best].res;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (telemetry) telemetry->merge(slots[i].telem);
    if (i == best) continue;
    out.iters += slots[i].res.iters;
    out.accepted += slots[i].res.accepted;
  }
  out.wall_s = watch.seconds();
  m = std::move(slots[best].mapping);
  return out;
}

ResumableMappingAnneal::ResumableMappingAnneal(const estimators::PipetteLatencyModel& model,
                                               const parallel::Mapping& start, int gpus_per_node,
                                               const SaOptions& opt, const MoveSet& moves)
    : eval_(model, start, gpus_per_node), moves_(moves), gpn_(gpus_per_node), opt_(opt),
      rng_(opt.seed) {
  cur_cost_ = eval_.cost();
  best_cost_ = cur_cost_;
  initial_cost_ = cur_cost_;
  best_ = eval_.mapping().raw();
  temp_ = std::max(opt.init_temp_frac * cur_cost_, 1e-300);
}

void ResumableMappingAnneal::run_to(long target_iters) {
  const common::Stopwatch watch;
  // simulated_annealing's loop with every loop-carried variable a member.
  // The deadline check counts the chain's *cumulative* wall time across
  // rungs, so a caller mixing a finite time_limit_s with an iteration cap
  // still stops at whichever bound hits first (a tripping wall-clock bound is
  // inherently schedule-dependent; generous limits never trip and stay
  // bit-exact).
  const bool timed = std::isfinite(opt_.time_limit_s) || deadline_watch_ != nullptr;
  while (iters_ < target_iters) {
    if (timed && (since_temp_step_ == 0 || (iters_ & 255) == 0)) {
      if (over_time(watch)) break;
    }
    const parallel::MappingMoveDesc mv = draw_mapping_move(eval_.mapping(), rng_, moves_, gpn_);
    // Peek the uniform metropolis_accept would draw for a worsening move: it
    // bounds the cost increase that can still be accepted, so the evaluator
    // may stop pricing once the move's rejection is certain.
    common::Rng after_draw = rng_;
    const double max_delta = detail::metropolis_max_delta(temp_, after_draw.uniform());
    const double c = eval_.propose(mv, max_delta);
    if (telemetry_) {
      ++telemetry_->proposed[static_cast<int>(mv.kind)];
      telemetry_->add_dirty(eval_.last_dirty());
    }
    if (!eval_.exact()) {
      // A bounded stop: the move's delta exceeds max_delta > 0, so
      // metropolis_accept would have drawn exactly the peeked uniform and
      // rejected. Consume that draw and reject.
      rng_ = after_draw;
      eval_.rollback();
      if (telemetry_) {
        ++telemetry_->bounded[static_cast<int>(mv.kind)];
        ++telemetry_->rollbacks;
      }
    } else if (detail::metropolis_accept(c - cur_cost_, temp_, rng_)) {
      eval_.commit();
      cur_cost_ = c;
      ++accepted_;
      if (cur_cost_ < best_cost_) {
        best_cost_ = cur_cost_;
        best_ = eval_.mapping().raw();
      }
      if (telemetry_) ++telemetry_->accepted[static_cast<int>(mv.kind)];
    } else {
      eval_.rollback();
      if (telemetry_) ++telemetry_->rollbacks;
    }
    if (++since_temp_step_ >= opt_.iters_per_temp) {
      temp_ *= opt_.alpha;
      since_temp_step_ = 0;
    }
    ++iters_;
  }
  wall_s_ += watch.seconds();
}

parallel::Mapping ResumableMappingAnneal::best_mapping() const {
  parallel::Mapping m = eval_.mapping();
  m.set_raw(best_);
  return m;
}

}  // namespace pipette::search
