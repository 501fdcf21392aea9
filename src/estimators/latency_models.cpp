#include "estimators/latency_models.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_config.h"
#include "sim/stage_costs.h"

namespace pipette::estimators {

LinkConstants LinkConstants::from_spec(const cluster::ClusterSpec& spec) {
  LinkConstants l;
  l.spec_inter_bw = spec.inter_node.bandwidth_Bps;
  l.spec_intra_bw = spec.intra_node.bandwidth_Bps;
  l.inter_latency_s = spec.inter_node.latency_s;
  l.intra_latency_s = spec.intra_node.latency_s;
  l.gpus_per_node = spec.gpus_per_node;
  return l;
}

using detail::ring_allreduce;

PipetteLatencyModel::PipetteLatencyModel(const model::TrainingJob& job,
                                         const parallel::TrainPlan& plan, ComputeProfile profile,
                                         const cluster::BandwidthMatrix* profiled_bw,
                                         const LinkConstants& links)
    : job_(&job),
      plan_(plan),
      pc_(plan.pc),
      nmb_(parallel::num_microbatches(job.global_batch, plan.pc, plan.micro_batch)),
      profile_(std::move(profile)),
      bw_(profiled_bw),
      links_(links),
      pp_msg_bytes_(model::pp_message_bytes(job.model, plan.micro_batch)),
      tp_msg_bytes_(model::tp_message_bytes(job.model, plan.micro_batch)),
      ppcomm_scale_(static_cast<double>(plan.virtual_stages)),
      fill_scale_(1.0 / static_cast<double>(plan.virtual_stages)),
      num_nodes_(profiled_bw->num_nodes()) {
  if (links.gpus_per_node != profiled_bw->gpus_per_node()) {
    throw std::invalid_argument(
        "PipetteLatencyModel: links.gpus_per_node differs from the profiled matrix's node width");
  }
}

double PipetteLatencyModel::tp_time(const parallel::Mapping& m, int stage, int dpr) const {
  if (pc_.tp < 2) return 0.0;
  // Min profiled bandwidth within the TP group; latency class from whether
  // the group stays inside one node (fine-grained dedication can break that,
  // and then this term punishes it).
  double min_bw = std::numeric_limits<double>::infinity();
  bool crosses_node = false;
  for (int y1 = 0; y1 < pc_.tp; ++y1) {
    const int g1 = m.gpu_of(stage, y1, dpr);
    for (int y2 = 0; y2 < pc_.tp; ++y2) {
      if (y1 == y2) continue;
      const int g2 = m.gpu_of(stage, y2, dpr);
      min_bw = std::min(min_bw, bw_->at(g1, g2));
      if (g1 / links_.gpus_per_node != g2 / links_.gpus_per_node) crosses_node = true;
    }
  }
  const double lat = crosses_node ? links_.inter_latency_s : links_.intra_latency_s;
  const int layers = parallel::layers_of_position(job_->model.num_layers, plan_, stage);
  // Two all-reduces in forward and two in backward per layer.
  return 4.0 * layers * ring_allreduce(tp_msg_bytes_, pc_.tp, min_bw, lat);
}

double PipetteLatencyModel::max_stage_block(const parallel::Mapping& m) const {
  double worst = 0.0;
  for (int x = 0; x < pc_.pp; ++x) {
    const double c = profile_.stage_fwd_s[static_cast<std::size_t>(x)] +
                     profile_.stage_bwd_s[static_cast<std::size_t>(x)];
    for (int z = 0; z < pc_.dp; ++z) {
      worst = std::max(worst, c + tp_time(m, x, z));
    }
  }
  return worst;
}

double PipetteLatencyModel::pp_comm_term(const parallel::Mapping& m) const {
  if (pc_.pp < 2) return 0.0;
  // Eq. (5) with two refinements that mirror the real cluster: boundary
  // tensors are scatter-gathered over TP ranks (each flow carries msg/tp),
  // and flows of different replicas that straddle the same node pair share
  // that NIC — the profiled B() is a single-flow measurement, so sharing
  // divides it. The term is the slowest end-to-end pipeline path, priced per
  // boundary message (interleaving's v-fold message count is applied by the
  // caller through ppcomm_scale_).
  const double flow_bytes = pp_msg_bytes_ / pc_.tp;
  // One replica's hop terms are materialized and folded with the shared
  // fixed blocking (detail::blocked_sum) so the incremental evaluator can
  // cache per-column terms and refold only dirty paths bit-identically.
  static thread_local std::vector<double> scratch_hops_;
  if (scratch_hops_.size() < static_cast<std::size_t>(pc_.pp - 1)) {
    scratch_hops_.resize(static_cast<std::size_t>(pc_.pp - 1));
  }
  double worst = 0.0;
  for (int z = 0; z < pc_.dp; ++z) {
    for (int x = 0; x + 1 < pc_.pp; ++x) {
      double hop = 0.0;
      for (int y = 0; y < pc_.tp; ++y) {
        const int g1 = m.gpu_of(x, y, z);
        const int g2 = m.gpu_of(x + 1, y, z);
        const int n1 = g1 / links_.gpus_per_node, n2 = g2 / links_.gpus_per_node;
        double fwd, bwd;
        if (n1 == n2) {
          fwd = flow_bytes / bw_->at(g1, g2) + links_.intra_latency_s;
          bwd = flow_bytes / bw_->at(g2, g1) + links_.intra_latency_s;
        } else {
          // Flows of this hop sharing the (n1, n2) NIC pair. The same set of
          // flows reuses the reverse pair during the backward phase.
          double shared_bytes = 0.0;
          for (int z2 = 0; z2 < pc_.dp; ++z2) {
            for (int y2 = 0; y2 < pc_.tp; ++y2) {
              const int h1 = m.gpu_of(x, y2, z2);
              const int h2 = m.gpu_of(x + 1, y2, z2);
              if (h1 / links_.gpus_per_node == n1 && h2 / links_.gpus_per_node == n2) {
                shared_bytes += flow_bytes;
              }
            }
          }
          fwd = shared_bytes / bw_->at(g1, g2) + links_.inter_latency_s;
          bwd = shared_bytes / bw_->at(g2, g1) + links_.inter_latency_s;
        }
        hop = std::max(hop, fwd + bwd);
      }
      scratch_hops_[static_cast<std::size_t>(x)] = hop;
    }
    worst = std::max(worst, detail::blocked_sum(scratch_hops_.data(), pc_.pp - 1));
  }
  return worst;
}

double PipetteLatencyModel::bubble_term(const parallel::Mapping& m) const {
  // Eq. (4) generalized to heterogeneous stages: one steady-state round
  // moves pp microbatches and costs the full down-and-up dependency cycle
  // (sum of all stage blocks plus the path communication — v messages per
  // hop when interleaved), but can never beat the bottleneck stage's busy
  // time.
  // Stage blocks are folded with the shared fixed blocking (see
  // detail::blocked_sum) — the bracketing the incremental evaluator reuses.
  static thread_local std::vector<double> scratch_blocks_;
  if (scratch_blocks_.size() < static_cast<std::size_t>(pc_.pp)) {
    scratch_blocks_.resize(static_cast<std::size_t>(pc_.pp));
  }
  double max_block = 0.0;
  for (int x = 0; x < pc_.pp; ++x) {
    const double c = profile_.stage_fwd_s[static_cast<std::size_t>(x)] +
                     profile_.stage_bwd_s[static_cast<std::size_t>(x)];
    double block = c;
    for (int z = 0; z < pc_.dp; ++z) block = std::max(block, c + tp_time(m, x, z));
    scratch_blocks_[static_cast<std::size_t>(x)] = block;
    max_block = std::max(max_block, block);
  }
  const double sum_blocks = detail::blocked_sum(scratch_blocks_.data(), pc_.pp);
  return std::max(sum_blocks + ppcomm_scale_ * pp_comm_term(m), pc_.pp * max_block);
}

double PipetteLatencyModel::straggler_term(const parallel::Mapping& m) const {
  // The pipeline fills with per-chunk blocks: 1/v of a position's block when
  // interleaved (fill_scale_ is exactly 1.0 for flat schedules).
  return (pc_.pp - 1) * max_stage_block(m) * fill_scale_;
}

double PipetteLatencyModel::dp_comm_term(const parallel::Mapping& m) const {
  if (pc_.dp < 2) return 0.0;
  // Eq. (6) generalized: the paper prices only stage 1's gradient sync,
  // which is sound for the uniform default placement, but under arbitrary
  // fine-grained permutations any stage's ring can become critical (stage
  // shards differ — the last carries the tied embedding copy — and a
  // permutation can push one group onto slow links), so we take the max over
  // all stages. Hierarchical ring all-reduce bounded by the slowest
  // participating link; every ring syncs at the same moment, so a node's NIC
  // is shared by all node-crossing rings with a member on it and the profiled
  // single-flow bandwidth divides accordingly.

  // Node-crossing rings resident per node, over all (stage, tp-rank) groups.
  // The scratch buffers are sized from the profiled topology (no fixed node
  // cap) and reused across calls — thread_local so estimate() stays const AND
  // safe to call concurrently on one instance; counts are reset via the
  // distinct-node list so each group costs O(dp), not O(num_nodes). The
  // counts buffer is all-zero outside a group iteration (grow-fill keeps new
  // entries zero), which is what lets the reset stay O(touched).
  static thread_local std::vector<int> scratch_node_flows_;
  static thread_local std::vector<int> scratch_counts_;
  static thread_local std::vector<int> scratch_nodes_;
  const auto nodes_needed = static_cast<std::size_t>(num_nodes_);
  if (scratch_counts_.size() < nodes_needed) {
    scratch_node_flows_.resize(nodes_needed);
    scratch_counts_.resize(nodes_needed, 0);
    scratch_nodes_.reserve(nodes_needed);
  }
  std::fill(scratch_node_flows_.begin(), scratch_node_flows_.begin() + num_nodes_, 0);
  for (int x = 0; x < pc_.pp; ++x) {
    for (int y = 0; y < pc_.tp; ++y) {
      // Distinct member nodes, first-seen order; the ring crosses nodes iff
      // there is more than one.
      scratch_nodes_.clear();
      for (int z = 0; z < pc_.dp; ++z) {
        const int n = m.gpu_of(x, y, z) / links_.gpus_per_node;
        if (scratch_counts_[static_cast<std::size_t>(n)]++ == 0) scratch_nodes_.push_back(n);
      }
      for (int n : scratch_nodes_) scratch_counts_[static_cast<std::size_t>(n)] = 0;
      if (scratch_nodes_.size() < 2) continue;
      for (int n : scratch_nodes_) ++scratch_node_flows_[static_cast<std::size_t>(n)];
    }
  }

  double worst = 0.0;
  for (int stage = 0; stage < pc_.pp; ++stage) {
    const double msg = sim::dp_sync_bytes(job_->model, plan_, stage);
    for (int y = 0; y < pc_.tp; ++y) {
      double min_intra = std::numeric_limits<double>::infinity();
      double min_inter = std::numeric_limits<double>::infinity();
      int max_same_node = 1;
      int flows = 1;
      scratch_nodes_.clear();
      for (int z = 0; z < pc_.dp; ++z) {
        const int n = m.gpu_of(stage, y, z) / links_.gpus_per_node;
        if (scratch_counts_[static_cast<std::size_t>(n)]++ == 0) scratch_nodes_.push_back(n);
        flows = std::max(flows, scratch_node_flows_[static_cast<std::size_t>(n)]);
      }
      const int num_nodes_used = static_cast<int>(scratch_nodes_.size());
      for (int n : scratch_nodes_) {
        max_same_node = std::max(max_same_node, scratch_counts_[static_cast<std::size_t>(n)]);
        scratch_counts_[static_cast<std::size_t>(n)] = 0;
      }
      for (int z1 = 0; z1 < pc_.dp; ++z1) {
        const int g1 = m.gpu_of(stage, y, z1);
        for (int z2 = 0; z2 < pc_.dp; ++z2) {
          if (z1 == z2) continue;
          const int g2 = m.gpu_of(stage, y, z2);
          const double b = bw_->at(g1, g2);
          if (g1 / links_.gpus_per_node == g2 / links_.gpus_per_node) {
            min_intra = std::min(min_intra, b);
          } else {
            min_inter = std::min(min_inter, b);
          }
        }
      }
      double t = 0.0;
      if (max_same_node > 1) {
        const double ni = static_cast<double>(max_same_node);
        t += 4.0 * (ni - 1.0) * msg / (ni * min_intra);
      }
      if (num_nodes_used > 1) {
        const double nn = static_cast<double>(num_nodes_used);
        t += 2.0 * (nn - 1.0) * msg / (nn * min_inter / flows);
      }
      worst = std::max(worst, t);
    }
  }
  return worst;
}

double PipetteLatencyModel::estimate(const parallel::Mapping& m) const {
  // Eq. (3): the bubble is paid once per steady-state round (n_mb / pp
  // rounds), plus the pipeline-fill straggler and the DP sync.
  const double rounds = static_cast<double>(nmb_) / pc_.pp;
  return bubble_term(m) * rounds + straggler_term(m) + dp_comm_term(m);
}

double amp_latency_estimate(const model::TrainingJob& job, const parallel::TrainPlan& plan,
                            const ComputeProfile& profile, const LinkConstants& links) {
  const auto& pc = plan.pc;
  const int micro_batch = plan.micro_batch;
  const int nmb = parallel::num_microbatches(job.global_batch, pc, micro_batch);
  // C + T_TP with document bandwidth (TP groups assumed intra-node).
  const double tp_ar =
      ring_allreduce(model::tp_message_bytes(job.model, micro_batch), pc.tp, links.spec_intra_bw,
                     links.intra_latency_s);
  const int max_layers = parallel::layers_of_stage(job.model.num_layers, pc.pp, 0);
  const double block = profile.c_block_s + 4.0 * max_layers * tp_ar;

  // Per-hop pipeline transfer at spec bandwidth. Under the default placement
  // adjacent stages share a node iff a stage occupies less than a node.
  double t_pp_hop = 0.0;
  if (pc.pp > 1) {
    const bool inter = pc.tp * pc.dp >= links.gpus_per_node;
    const double bw = inter ? links.spec_inter_bw : links.spec_intra_bw;
    const double lat = inter ? links.inter_latency_s : links.intra_latency_s;
    t_pp_hop = 2.0 * (model::pp_message_bytes(job.model, micro_batch) / bw + lat);
  }

  // Hierarchical DP all-reduce under the default placement. AMP models the
  // collective's *structure* (it is heterogeneity-aware in shape) but prices
  // it with static document bandwidths — the paper's first criticism. It
  // predates ZeRO/interleaving, so it prices the plain all-reduce volume.
  double t_dp = 0.0;
  if (pc.dp > 1) {
    const double msg = sim::dp_gradient_bytes(job.model, pc, 0);
    // Default placement: a DP group strides by tp within a node first.
    const int members_per_node = std::max(1, std::min(pc.dp, links.gpus_per_node / pc.tp));
    const int nodes_used = std::max(1, pc.dp / members_per_node);
    if (members_per_node > 1) {
      const double ni = members_per_node;
      t_dp += 4.0 * (ni - 1.0) * msg / (ni * links.spec_intra_bw);
    }
    if (nodes_used > 1) {
      // Concurrent crossing rings per node: the tp groups, times the stages
      // co-resident on a node when a stage occupies less than one node.
      const int stages_per_node =
          std::max(1, links.gpus_per_node / std::max(1, pc.tp * members_per_node));
      const int flows = pc.tp * stages_per_node;
      const double nn = nodes_used;
      t_dp += 2.0 * (nn - 1.0) * msg / (nn * links.spec_inter_bw / flows);
    }
  }

  // Eq. (1).
  return (nmb - 1) * block + pc.pp * block + (pc.pp - 1) * t_pp_hop + t_dp;
}

}  // namespace pipette::estimators
