#include "sim/pipeline_sim.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "parallel/groups.h"
#include "parallel/parallel_config.h"
#include "sim/collectives.h"

namespace pipette::sim {

using common::Rng;

std::vector<PipeOp> stage_schedule(ScheduleKind kind, int pp, int stage, int num_microbatches) {
  std::vector<PipeOp> ops;
  ops.reserve(2 * static_cast<std::size_t>(num_microbatches));
  if (kind == ScheduleKind::kMemoryUnaware) {
    for (int j = 0; j < num_microbatches; ++j) ops.push_back({true, j, 0});
    for (int j = num_microbatches - 1; j >= 0; --j) ops.push_back({false, j, 0});
    return ops;
  }
  // 1F1B (PipeDream-flush): stage p runs min(pp-1-p, n) warmup forwards, then
  // steady one-forward-one-backward, then drains the remaining backwards.
  const int warmup = std::min(pp - 1 - stage, num_microbatches);
  for (int j = 0; j < warmup; ++j) ops.push_back({true, j, 0});
  for (int j = warmup; j < num_microbatches; ++j) {
    ops.push_back({true, j, 0});
    ops.push_back({false, j - warmup, 0});
  }
  for (int j = std::max(num_microbatches - warmup, 0); j < num_microbatches; ++j) {
    ops.push_back({false, j, 0});
  }
  return ops;
}

std::vector<PipeOp> interleaved_stage_schedule(int pp, int v, int position, int num_microbatches) {
  // Public API: a violating call would produce out-of-range microbatch
  // indices (silent out-of-bounds writes downstream), so reject it loudly in
  // every build mode, matching simulate_iteration's validation.
  if (num_microbatches % pp != 0) {
    throw std::invalid_argument("interleaved_stage_schedule: microbatches must divide into pp-sized groups");
  }
  const int total = num_microbatches * v;
  const int group = pp * v;
  auto fwd_op = [&](int i) {
    const int pos = i % group;
    return PipeOp{true, (i / group) * pp + (i % pp), pos / pp};
  };
  auto bwd_op = [&](int i) {
    const int pos = i % group;
    return PipeOp{false, (i / group) * pp + (i % pp), v - 1 - pos / pp};
  };
  const int warmup = std::min(total, 2 * (pp - position - 1) + (v - 1) * pp);
  std::vector<PipeOp> ops;
  ops.reserve(2 * static_cast<std::size_t>(total));
  for (int i = 0; i < warmup; ++i) ops.push_back(fwd_op(i));
  for (int i = warmup; i < total; ++i) {
    ops.push_back(fwd_op(i));
    ops.push_back(bwd_op(i - warmup));
  }
  for (int i = total - warmup; i < total; ++i) ops.push_back(bwd_op(i));
  return ops;
}

namespace {

/// Scheduling state of one (position, dp-replica) entity. end[] slots are
/// indexed chunk * nmb + microbatch.
struct Entity {
  std::vector<PipeOp> ops;
  std::vector<double> durations;       // per op, jitter applied
  std::size_t next = 0;
  double avail = 0.0;                  // time the executor frees up
  std::vector<double> fwd_end;         // per (chunk, microbatch)
  std::vector<double> bwd_end;
  double busy = 0.0;
};

/// Total bytes and slowest link per ordered node pair a hop's inter-node
/// flows straddle. Boundary tensors are scatter-gathered across TP ranks
/// (Megatron's scatter/gather optimization), so each (y, z) flow carries
/// msg/tp bytes; flows of different replicas straddling the same node pair
/// share that node's NIC. Depends only on (from, to), so callers build it
/// once per hop and price every replica against it. `to` may wrap
/// (chunked pipelines send pp-1 -> 0 between chunks).
struct PairLoad {
  int n1, n2;
  double bytes;
  double min_bw;
};

std::vector<PairLoad> hop_pair_loads(const cluster::Topology& topo,
                                     const parallel::Mapping& mapping,
                                     const parallel::ParallelConfig& pc, double flow_bytes,
                                     int from, int to) {
  std::vector<PairLoad> pairs;
  for (int z = 0; z < pc.dp; ++z) {
    for (int y = 0; y < pc.tp; ++y) {
      const int g1 = mapping.gpu_of(from, y, z);
      const int g2 = mapping.gpu_of(to, y, z);
      if (topo.same_node(g1, g2)) continue;
      const int n1 = topo.node_of(g1), n2 = topo.node_of(g2);
      auto it = std::find_if(pairs.begin(), pairs.end(),
                             [&](const PairLoad& p) { return p.n1 == n1 && p.n2 == n2; });
      if (it == pairs.end()) {
        pairs.push_back({n1, n2, flow_bytes, topo.bandwidth(g1, g2)});
      } else {
        it->bytes += flow_bytes;
        it->min_bw = std::min(it->min_bw, topo.bandwidth(g1, g2));
      }
    }
  }
  return pairs;
}

/// Noiseless transfer time of replica `z` across one hop: the completion
/// time of every NIC-sharing flow is the pair's total bytes over the pair's
/// bandwidth, and the receiving TP group needs all of its ranks' shards, so
/// the hop costs the max over the replica's flows.
double price_hop(const cluster::Topology& topo, const parallel::Mapping& mapping,
                 const parallel::ParallelConfig& pc, double flow_bytes, int from, int to, int z,
                 const std::vector<PairLoad>& pairs) {
  double t = 0.0;
  for (int y = 0; y < pc.tp; ++y) {
    const int g1 = mapping.gpu_of(from, y, z);
    const int g2 = mapping.gpu_of(to, y, z);
    if (topo.same_node(g1, g2)) {
      t = std::max(t, flow_bytes / topo.bandwidth(g1, g2) + topo.latency(g1, g2));
    } else {
      const int n1 = topo.node_of(g1), n2 = topo.node_of(g2);
      const auto it = std::find_if(pairs.begin(), pairs.end(),
                                   [&](const PairLoad& p) { return p.n1 == n1 && p.n2 == n2; });
      t = std::max(t, it->bytes / it->min_bw + topo.latency(g1, g2));
    }
  }
  return t;
}

}  // namespace

IterationBreakdown simulate_iteration(const cluster::Topology& topo, const model::TrainingJob& job,
                                      const parallel::Mapping& mapping,
                                      const parallel::TrainPlan& plan, const SimOptions& opt) {
  const auto& pc = plan.pc;
  if (!(pc == mapping.config())) {
    throw std::invalid_argument("simulate_iteration: plan and mapping disagree on (pp, tp, dp)");
  }
  if (job.global_batch % pc.dp != 0 || (job.global_batch / pc.dp) % plan.micro_batch != 0) {
    throw std::invalid_argument("simulate_iteration: batch geometry does not divide");
  }
  if (mapping.num_workers() > topo.num_gpus()) {
    throw std::invalid_argument("simulate_iteration: mapping addresses " +
                                std::to_string(mapping.num_workers()) + " workers but cluster has " +
                                std::to_string(topo.num_gpus()) + " GPUs");
  }
  if (plan.virtual_stages != 1 && !plan.valid_for(job.model.num_layers, job.global_batch)) {
    throw std::invalid_argument("simulate_iteration: invalid interleaved plan " + plan.str());
  }
  const int nmb = parallel::num_microbatches(job.global_batch, pc, plan.micro_batch);
  const int pp = pc.pp, dp = pc.dp, v = plan.virtual_stages;
  const std::size_t slots = static_cast<std::size_t>(v) * nmb;

  Rng root(opt.seed);
  auto jitter = [&](Rng& r) {
    return opt.jitter_sigma <= 0.0 ? 1.0 : std::max(0.5, 1.0 + r.normal(0.0, opt.jitter_sigma));
  };

  // One entity per (position, replica). Chunk c of position p is costed as
  // pipeline stage c*pp + p; a flat schedule is the one-chunk case, so the
  // schedule kind only picks the op order. Jitter is drawn in op order, so
  // results do not depend on the scheduling visit order.
  std::vector<Entity> ent(static_cast<std::size_t>(pp) * dp);
  auto eidx = [pp](int p, int z) { return static_cast<std::size_t>(z) * pp + p; };
  std::vector<StageCosts> chunk_costs(static_cast<std::size_t>(v));
  for (int z = 0; z < dp; ++z) {
    for (int p = 0; p < pp; ++p) {
      Entity& e = ent[eidx(p, z)];
      e.ops = v > 1 ? interleaved_stage_schedule(pp, v, p, nmb)
                    : stage_schedule(plan.schedule, pp, p, nmb);
      for (int c = 0; c < v; ++c) {
        chunk_costs[static_cast<std::size_t>(c)] =
            stage_costs(topo, job, mapping, plan, c * pp + p, z);
      }
      Rng r = root.fork(0x5eed0000ull + static_cast<std::uint64_t>(z) * 1024 + p);
      e.durations.reserve(e.ops.size());
      for (const PipeOp& op : e.ops) {
        const StageCosts& costs = chunk_costs[static_cast<std::size_t>(op.chunk)];
        e.durations.push_back((op.fwd ? costs.fwd_s : costs.bwd_s) * jitter(r));
      }
      e.fwd_end.assign(slots, -1.0);
      e.bwd_end.assign(slots, -1.0);
    }
  }

  // Hop h carries position h -> (h+1) % pp (direction 0) and back
  // (direction 1); hop pp-1 is the wrap between consecutive chunks, so it
  // exists only when chunked. Each replica draws one jittered transfer per
  // (hop, slot, direction) from its own stream.
  const int hops = v > 1 ? pp : pp - 1;
  const double flow_bytes = model::pp_message_bytes(job.model, plan.micro_batch) / pc.tp;
  std::vector<double> base_hop[2];  // [dir][h * dp + z], noiseless
  for (int dir = 0; dir < 2; ++dir) base_hop[dir].resize(static_cast<std::size_t>(hops) * dp);
  for (int h = 0; h < hops; ++h) {
    for (int dir = 0; dir < 2; ++dir) {
      const int from = dir == 0 ? h : (h + 1) % pp;
      const int to = dir == 0 ? (h + 1) % pp : h;
      const auto pairs = hop_pair_loads(topo, mapping, pc, flow_bytes, from, to);
      for (int z = 0; z < dp; ++z) {
        base_hop[dir][static_cast<std::size_t>(h) * dp + z] =
            price_hop(topo, mapping, pc, flow_bytes, from, to, z, pairs);
      }
    }
  }
  std::vector<double> comm[2];  // [dir][(z * hops + h) * slots + slot]
  for (int dir = 0; dir < 2; ++dir) comm[dir].resize(static_cast<std::size_t>(dp) * hops * slots);
  auto comm_at = [&](int dir, int z, int h, int slot) -> double& {
    return comm[dir][(static_cast<std::size_t>(z) * hops + h) * slots + slot];
  };
  for (int z = 0; z < dp; ++z) {
    Rng r = root.fork(0xc033ull + static_cast<std::uint64_t>(z));
    for (int h = 0; h < hops; ++h) {
      const double base_f = base_hop[0][static_cast<std::size_t>(h) * dp + z];
      const double base_b = base_hop[1][static_cast<std::size_t>(h) * dp + z];
      for (int j = 0; j < static_cast<int>(slots); ++j) {
        comm_at(0, z, h, j) = base_f * jitter(r);
        comm_at(1, z, h, j) = base_b * jitter(r);
      }
    }
  }

  // An op is ready once its producer has finished and the transfer landed. A
  // forward's producer is the previous position, which for position 0 is the
  // last position's previous chunk; a backward's is the next position, which
  // for the last position is position 0's next chunk. Hop h links positions
  // h and (h+1) % pp.
  auto ready_time = [&](int p, int z, const PipeOp& op, double& ready) {
    ready = 0.0;
    const bool wraps = op.fwd ? p == 0 : p == pp - 1;
    const int chunk = wraps ? op.chunk + (op.fwd ? -1 : 1) : op.chunk;
    if (chunk < 0 || chunk >= v) return true;  // the first forward or last backward
    const int src = op.fwd ? (p + pp - 1) % pp : (p + 1) % pp;
    const int slot = chunk * nmb + op.microbatch;
    const Entity& producer = ent[eidx(src, z)];
    const double dep = (op.fwd ? producer.fwd_end : producer.bwd_end)[static_cast<std::size_t>(slot)];
    if (dep < 0.0) return false;
    ready = dep + comm_at(op.fwd ? 0 : 1, z, op.fwd ? src : p, slot);
    return true;
  };

  // Greedy list scheduling. Each entity executes its ops strictly in schedule
  // order; an op starts when the executor is free and its producer has
  // finished plus the transfer time. Every schedule's op order is a valid
  // topological order, so the sweep always progresses.
  std::size_t remaining = 0;
  for (const auto& e : ent) remaining += e.ops.size();
  while (remaining > 0) {
    bool progressed = false;
    for (int z = 0; z < dp; ++z) {
      for (int p = 0; p < pp; ++p) {
        Entity& e = ent[eidx(p, z)];
        while (e.next < e.ops.size()) {
          const PipeOp op = e.ops[e.next];
          double ready = 0.0;
          if (!ready_time(p, z, op, ready)) break;
          const double start = std::max(e.avail, ready);
          const double dur = e.durations[e.next];
          const double end = start + dur;
          (op.fwd ? e.fwd_end
                  : e.bwd_end)[static_cast<std::size_t>(op.chunk * nmb + op.microbatch)] = end;
          e.avail = end;
          e.busy += dur;
          ++e.next;
          --remaining;
          progressed = true;
        }
      }
    }
    if (!progressed) throw std::logic_error("simulate_iteration: schedule deadlock");
  }

  // Data-parallel gradient sync: per (position, tp-rank) group, all replicas
  // must finish their last backward, then the hierarchical all-reduce runs.
  // All groups sync near-simultaneously, so every node's NIC is shared by
  // all node-crossing rings that have a member on it.
  IterationBreakdown out;
  std::vector<int> node_flows(static_cast<std::size_t>(topo.num_nodes()), 0);
  if (dp > 1) {
    for (int p = 0; p < pp; ++p) {
      for (int y = 0; y < pc.tp; ++y) {
        const auto group = parallel::dp_group_gpus(mapping, p, y);
        const auto subgroups = parallel::split_by_node(group, topo.gpus_per_node());
        if (subgroups.size() < 2) continue;
        for (const auto& sg : subgroups) {
          ++node_flows[static_cast<std::size_t>(topo.node_of(sg.front()))];
        }
      }
    }
  }
  double iteration_end = 0.0;
  for (int p = 0; p < pp; ++p) {
    double stage_ready = 0.0;
    for (int z = 0; z < dp; ++z) {
      stage_ready = std::max(stage_ready, ent[eidx(p, z)].avail);
    }
    out.last_backward_s = std::max(out.last_backward_s, stage_ready);
    double stage_end = stage_ready;
    if (dp > 1) {
      const double grad_bytes = dp_sync_bytes(job.model, plan, p);
      for (int y = 0; y < pc.tp; ++y) {
        const auto group = parallel::dp_group_gpus(mapping, p, y);
        int flows = 1;
        for (int g : group) flows = std::max(flows, node_flows[static_cast<std::size_t>(topo.node_of(g))]);
        const double ar = hierarchical_allreduce_time(topo, group, grad_bytes, flows);
        stage_end = std::max(stage_end, stage_ready + ar);
      }
    }
    if (stage_end > iteration_end) {
      iteration_end = stage_end;
      out.critical_stage = p;
    }
  }
  out.total_s = iteration_end;
  out.dp_sync_s = iteration_end - out.last_backward_s;

  for (const auto& e : ent) out.max_stage_busy_s = std::max(out.max_stage_busy_s, e.busy);
  out.bubble_fraction =
      out.total_s <= 0.0 ? 0.0 : std::max(0.0, 1.0 - out.max_stage_busy_s / out.total_s);
  return out;
}

}  // namespace pipette::sim
