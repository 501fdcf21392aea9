#include "search/mapping_search.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

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

parallel::Move draw_mapping_move(const parallel::Mapping& m, common::Rng& rng,
                                 const MoveSet& moves, int gpus_per_node) {
  const int n = m.num_workers();
  const int nodes = (n + gpus_per_node - 1) / gpus_per_node;
  const bool node_moves_possible = nodes >= 2;
  // Indexed by parallel::MoveKind: three string moves, then two node moves.
  const bool enabled[AnnealTelemetry::kKinds] = {
      moves.migrate, moves.swap, moves.reverse, moves.node_swap && node_moves_possible,
      moves.node_reverse && node_moves_possible};
  if (std::none_of(std::begin(enabled), std::end(enabled), [](bool e) { return e; })) {
    // Degenerate move set — including node-only sets on a single-node
    // cluster, where the retry loop below would never terminate: fall back
    // to swap so the annealer still explores.
    const int i = rng.uniform_int(0, n - 1);
    const int j = rng.uniform_int(0, n - 1);
    return {parallel::MoveKind::kSwap, i, j};
  }
  for (;;) {
    const int kind = rng.uniform_int(0, AnnealTelemetry::kKinds - 1);
    if (!enabled[kind]) continue;
    const int range = kind <= static_cast<int>(parallel::MoveKind::kReverse) ? n : nodes;
    const int a = rng.uniform_int(0, range - 1);
    const int b = rng.uniform_int(0, range - 1);
    return {static_cast<parallel::MoveKind>(kind), a, b};
  }
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

ResumableMappingAnneal::ResumableMappingAnneal(const estimators::PipetteLatencyModel& model,
                                               const parallel::Mapping& start, int gpus_per_node,
                                               const SaOptions& opt, const MoveSet& moves)
    : eval_(model, start), moves_(moves), gpn_(gpus_per_node), opt_(opt), rng_(opt.seed) {
  if (gpus_per_node != model.gpus_per_node()) {  // blocks that are not nodes
    throw std::invalid_argument("ResumableMappingAnneal: gpus_per_node " +
                                std::to_string(gpus_per_node) + " is not the fabric's " +
                                std::to_string(model.gpus_per_node()));
  }
  cur_cost_ = eval_.cost();
  best_cost_ = cur_cost_;
  initial_cost_ = cur_cost_;
  best_ = eval_.mapping().raw();
  temp_ = std::max(kInitTempFrac * cur_cost_, 1e-300);
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
    if (timed && since_temp_step_ == 0 && over_time(watch)) break;
    const parallel::Move mv = draw_mapping_move(eval_.mapping(), rng_, moves_, gpn_);
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
    if (++since_temp_step_ >= kItersPerTemp) {
      temp_ *= kAlpha;
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
