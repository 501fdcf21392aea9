#include "estimators/incremental_latency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <ranges>

#include "parallel/parallel_config.h"
#include "sim/stage_costs.h"

namespace pipette::estimators {

namespace {

/// max over {init, p[0..n)}, folded left to right.
double max_fold(const double* p, int n, double init) {
  double m = init;
  for (int i = 0; i < n; ++i) m = m > p[i] ? m : p[i];
  return m;
}

}  // namespace

IncrementalLatencyEvaluator::IncrementalLatencyEvaluator(const PipetteLatencyModel& model,
                                                         const parallel::Mapping& start)
    : model_(&model), cur_(start) {
  const parallel::ParallelConfig& pc = model.pc_;
  pp_ = pc.pp;
  tp_ = pc.tp;
  dp_ = pc.dp;
  const int n = cur_.num_workers();
  const int num_gpus = model.bw_->num_gpus();
  num_nodes_ = model.num_nodes_;
  link_gpn_ = model.links_.gpus_per_node;
  inter_bw_ = model.bw_->inter_readings().data();
  intra_bw_ = model.bw_->intra_readings().data();
  num_groups_ = pp_ * tp_;
  rounds_ = static_cast<double>(model.nmb_) / pc.pp;
  flow_bytes_ = model.pp_msg_bytes_ / pc.tp;
  ppcomm_scale_ = model.ppcomm_scale_;
  fill_scale_ = model.fill_scale_;

  pos_stage_.resize(static_cast<std::size_t>(n));
  pos_tpr_.resize(static_cast<std::size_t>(n));
  pos_dpr_.resize(static_cast<std::size_t>(n));
  for (int x = 0; x < pp_; ++x) {
    for (int y = 0; y < tp_; ++y) {
      for (int z = 0; z < dp_; ++z) {
        const auto w = static_cast<std::size_t>(cur_.worker_index(x, y, z));
        pos_stage_[w] = x;
        pos_tpr_[w] = y;
        pos_dpr_[w] = z;
      }
    }
  }
  // Both lookups cover every GPU of the fabric: a node-granular move relabels
  // whole fabric nodes, so it never produces a GPU id past the last node
  // (even when the workers fill the final node only partly).
  node_of_gpu_.resize(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) node_of_gpu_[static_cast<std::size_t>(g)] = g / link_gpn_;
  inv_pos_.assign(static_cast<std::size_t>(num_gpus), -1);

  layers_.resize(static_cast<std::size_t>(pp_));
  c_.resize(static_cast<std::size_t>(pp_));
  msg_.resize(static_cast<std::size_t>(pp_));
  for (int x = 0; x < pp_; ++x) {
    layers_[static_cast<std::size_t>(x)] =
        parallel::layers_of_position(model.job_->model.num_layers, model.plan_, x);
    c_[static_cast<std::size_t>(x)] = model.profile_.stage_fwd_s[static_cast<std::size_t>(x)] +
                                      model.profile_.stage_bwd_s[static_cast<std::size_t>(x)];
    msg_[static_cast<std::size_t>(x)] = sim::dp_sync_bytes(model.job_->model, model.plan_, x);
  }
  // The full model builds an inter-node hop's shared byte count by adding
  // flow_bytes once per sharing flow; precomputing the same running sums keeps
  // the incremental result bit-identical without the O(dp·tp) inner loop.
  shared_sum_.resize(static_cast<std::size_t>(dp_ * tp_) + 1);
  shared_sum_[0] = 0.0;
  for (std::size_t k = 1; k < shared_sum_.size(); ++k) {
    shared_sum_[k] = shared_sum_[k - 1] + flow_bytes_;
  }

  const int cells = pp_ * dp_;
  const int hops = std::max(0, pp_ - 1);
  const int groups = num_groups_;
  const int flows = hops * dp_ * tp_;
  tp_term_.assign(static_cast<std::size_t>(cells), 0.0);
  block_.assign(static_cast<std::size_t>(pp_), 0.0);
  hop_.assign(static_cast<std::size_t>(hops * dp_), 0.0);
  path_.assign(static_cast<std::size_t>(dp_), 0.0);
  flow_pair_.assign(static_cast<std::size_t>(flows), -1);
  gpu_out_.assign(static_cast<std::size_t>(num_gpus), -1);
  g_min_intra_.assign(static_cast<std::size_t>(groups), 0.0);
  g_min_inter_.assign(static_cast<std::size_t>(groups), 0.0);
  g_max_same_.assign(static_cast<std::size_t>(groups), 1);
  g_num_nodes_.assign(static_cast<std::size_t>(groups), 0);
  g_nodes_.assign(static_cast<std::size_t>(groups * dp_), 0);
  node_flows_.assign(static_cast<std::size_t>(num_nodes_), 0);
  g_term_.assign(static_cast<std::size_t>(groups), 0.0);
  node_groups_.assign(static_cast<std::size_t>(num_nodes_) * static_cast<std::size_t>(groups), 0);
  node_groups_len_.assign(static_cast<std::size_t>(num_nodes_), 0);
  node_group_pos_.assign(static_cast<std::size_t>(groups) * static_cast<std::size_t>(num_nodes_),
                         -1);

  stamp_cell_.assign(static_cast<std::size_t>(cells), 0);
  stamp_stage_.assign(static_cast<std::size_t>(pp_), 0);
  stamp_group_.assign(static_cast<std::size_t>(groups), 0);
  stamp_flow_.assign(static_cast<std::size_t>(flows), 0);
  stamp_col_.assign(static_cast<std::size_t>(hops * dp_), 0);
  stamp_path_.assign(static_cast<std::size_t>(dp_), 0);
  stamp_term_.assign(static_cast<std::size_t>(groups), 0);
  stamp_node_.assign(static_cast<std::size_t>(num_nodes_), 0);
  dirty_cells_.reserve(static_cast<std::size_t>(cells));
  dirty_stages_.reserve(static_cast<std::size_t>(pp_));
  dirty_groups_.reserve(static_cast<std::size_t>(groups));
  dirty_flows_.reserve(static_cast<std::size_t>(flows));
  dirty_cols_.reserve(static_cast<std::size_t>(hops * dp_));
  dirty_paths_.reserve(static_cast<std::size_t>(dp_));
  dirty_terms_.reserve(static_cast<std::size_t>(groups));
  changed_nodes_.reserve(static_cast<std::size_t>(num_nodes_));
  changed_pairs_.reserve(static_cast<std::size_t>(2 * std::max(1, flows)));
  touched_pos_.reserve(static_cast<std::size_t>(n));
  undo_gpu_.reserve(static_cast<std::size_t>(n));
  new_gpu_.reserve(static_cast<std::size_t>(n));
  undo_tp_.resize(static_cast<std::size_t>(cells));
  undo_block_.resize(static_cast<std::size_t>(pp_));
  undo_hop_.resize(static_cast<std::size_t>(hops * dp_));
  undo_path_.resize(static_cast<std::size_t>(dp_));
  undo_term_.resize(static_cast<std::size_t>(groups));
  undo_flow_pair_.resize(static_cast<std::size_t>(std::max(1, flows)));
  // One write per dirty flow's upstream GPU, touched last-stage GPU, and GPU
  // a node move emptied; the last two are touched positions' GPUs.
  undo_out_.reserve(static_cast<std::size_t>(flows + 2 * n));
  undo_g_min_intra_.resize(static_cast<std::size_t>(groups));
  undo_g_min_inter_.resize(static_cast<std::size_t>(groups));
  undo_g_max_same_.resize(static_cast<std::size_t>(groups));
  undo_g_num_nodes_.resize(static_cast<std::size_t>(groups));
  undo_g_nodes_.resize(static_cast<std::size_t>(groups * dp_));
  scratch_node_.resize(static_cast<std::size_t>(dp_));
  scratch_gpu_.resize(static_cast<std::size_t>(dp_));
  scratch_counts_.assign(static_cast<std::size_t>(num_nodes_), 0);
  scratch_row_.resize(static_cast<std::size_t>(groups));

  // The slow-pair prefix, only where some ring can be dense. partial_sort_copy
  // keeps the K lowest pair ids without materialising all N(N-1) pairs.
  if (dp_ * dp_ > kDenseRingSqPerNode * num_nodes_) {
    auto pairs = std::views::iota(0, num_nodes_ * num_nodes_) | std::views::filter([this](int p) {
                   return p / num_nodes_ != p % num_nodes_ && !std::isnan(inter_bw_[p]);
                 });
    std::vector<int> ids(static_cast<std::size_t>(kSlowPairsPerNode * num_nodes_));
    const auto copied = std::ranges::partial_sort_copy(pairs, ids, [this](int p, int q) {
      return inter_bw_[p] < inter_bw_[q] || (inter_bw_[p] == inter_bw_[q] && p < q);
    });
    ids.erase(copied.out, ids.end());  // fewer pairs than K
    slow_pairs_.reserve(ids.size());
    for (const int p : ids) slow_pairs_.push_back({p / num_nodes_, p % num_nodes_});
  }

  full_recompute();
}

double IncrementalLatencyEvaluator::bw_at(int g1, int g2) const {
  const int n1 = node_of_gpu_[static_cast<std::size_t>(g1)];
  const int n2 = node_of_gpu_[static_cast<std::size_t>(g2)];
  if (n1 != n2) {
    return inter_bw_[static_cast<std::size_t>(n1) * static_cast<std::size_t>(num_nodes_) +
                     static_cast<std::size_t>(n2)];
  }
  return intra_bw_[static_cast<std::size_t>(g1) * static_cast<std::size_t>(link_gpn_) +
                   static_cast<std::size_t>(g2 - n1 * link_gpn_)];
}

void IncrementalLatencyEvaluator::set_out(int gpu, int key) {
  int& slot = gpu_out_[static_cast<std::size_t>(gpu)];
  undo_out_.push_back({gpu, slot});
  slot = key;
}

void IncrementalLatencyEvaluator::recompute_tp_cell(int stage, int dpr) {
  // Mirrors PipetteLatencyModel::tp_time over the cell's member pairs (min
  // is exact, so bw_at's table reads fold the same values); for tp < 2 the
  // ring term is zero either way.
  const int cell = stage * dp_ + dpr;
  const int* members = cur_.raw().data() + (dpr * pp_ + stage) * tp_;  // consecutive in y
  const int n0 = node_of_gpu_[static_cast<std::size_t>(members[0])];
  double min_bw = std::numeric_limits<double>::infinity();
  bool crosses_node = false;
  for (int y1 = 0; y1 < tp_; ++y1) {
    const int g1 = members[y1];
    crosses_node |= node_of_gpu_[static_cast<std::size_t>(g1)] != n0;
    for (int y2 = 0; y2 < tp_; ++y2) {
      if (y1 != y2) min_bw = std::min(min_bw, bw_at(g1, members[y2]));
    }
  }
  const double lat = crosses_node ? model_->links_.inter_latency_s : model_->links_.intra_latency_s;
  tp_term_[static_cast<std::size_t>(cell)] =
      4.0 * layers_[static_cast<std::size_t>(stage)] *
      detail::ring_allreduce(model_->tp_msg_bytes_, tp_, min_bw, lat);
}

void IncrementalLatencyEvaluator::recompute_block(int stage) {
  const double c = c_[static_cast<std::size_t>(stage)];
  double block = c;
  for (int z = 0; z < dp_; ++z) {
    block = std::max(block, c + tp_term_[static_cast<std::size_t>(stage * dp_ + z)]);
  }
  block_[static_cast<std::size_t>(stage)] = block;
}

void IncrementalLatencyEvaluator::reprice_hop_column(int hop, int dpr) {
  // Mirrors the per-replica flow pricing of PipetteLatencyModel::pp_comm_term;
  // gpu_out_'s keys turn the full model's O(dp·tp) sharing scan per flow into
  // a compare over the upstream node's gpus_per_node keys.
  const double intra_lat = model_->links_.intra_latency_s;
  const double inter_lat = model_->links_.inter_latency_s;
  const int base = (hop * dp_ + dpr) * tp_;
  // Flow y runs from the stage-`hop` worker on lane (y, dpr) to the next
  // stage's, tp_ positions further along the string. Each flow is priced
  // with the full model's per-element expressions and folded into the max in
  // the same order, so the column is bit-identical.
  const int* up = cur_.raw().data() + (dpr * pp_ + hop) * tp_;
  double slowest = 0.0;
  // A cell's tp lanes usually share one node pair: count a run of equal
  // pairs once, as the upstream node's GPUs keyed for the downstream node.
  int counted_pair = -1, count = 0;
  for (int y = 0; y < tp_; ++y) {
    const int pair = flow_pair_[static_cast<std::size_t>(base + y)];
    const int g1 = up[y];
    const int g2 = up[y + tp_];
    double bytes = flow_bytes_;
    double lat = intra_lat;
    if (pair >= 0) {
      if (pair != counted_pair) {
        counted_pair = pair;
        const int* out = gpu_out_.data() + node_of_gpu_[static_cast<std::size_t>(g1)] * link_gpn_;
        const int key = hop * num_nodes_ + node_of_gpu_[static_cast<std::size_t>(g2)];
        count = 0;
        for (int o = 0; o < link_gpn_; ++o) count += out[o] == key;
      }
      bytes = shared_sum_[static_cast<std::size_t>(count)];
      lat = inter_lat;
    }
    const double fwd = bytes / bw_at(g1, g2) + lat;
    const double bwd = bytes / bw_at(g2, g1) + lat;
    const double s = fwd + bwd;
    slowest = slowest > s ? slowest : s;
  }
  hop_[static_cast<std::size_t>(hop * dp_ + dpr)] = slowest;
}

void IncrementalLatencyEvaluator::recompute_path(int dpr) {
  // hop_ is [hop*dp + dpr]: replica dpr's column starts at dpr with stride
  // dp_. Same fixed blocking as the full model's pp_comm_term fold.
  path_[static_cast<std::size_t>(dpr)] = detail::blocked_sum(hop_.data() + dpr, pp_ - 1, dp_);
}

void IncrementalLatencyEvaluator::recompute_group(int stage, int tpr) {
  // Re-derives ring (stage, tpr)'s census — distinct member nodes in
  // first-seen order and the largest same-node count — and its profiled
  // bandwidth mins, split intra/inter like PipetteLatencyModel::dp_comm_term.
  // Mins are exact, so any scan folding the same pair values is bit-identical.
  const int gidx = stage * tp_ + tpr;
  const int* perm = cur_.raw().data();
  const int wstride = pp_ * tp_;  // members stride pp·tp in z
  int* counts = scratch_counts_.data();  // all-zero on entry and on exit
  int* node = scratch_node_.data();
  int* gpu = scratch_gpu_.data();
  int* nodes = &g_nodes_[static_cast<std::size_t>(gidx * dp_)];
  int num = 0;
  for (int z = 0, w = gidx; z < dp_; ++z, w += wstride) {
    node[z] = node_of_gpu_[static_cast<std::size_t>(perm[w])];
    if (counts[node[z]]++ == 0) nodes[num++] = node[z];
  }
  int max_same = 1;
  for (int i = 0; i < num; ++i) max_same = std::max(max_same, counts[nodes[i]]);
  // Priced while the counts still mark the census.
  const double min_inter = census_min_inter(nodes, num);
  // Bucket the members by node (counting sort over the census: each count
  // becomes its bucket's write cursor, which ends at the next bucket's
  // start), so every pair's class is known from its buckets.
  for (int i = 0, start = 0; i < num; ++i) {
    const int c = counts[nodes[i]];
    counts[nodes[i]] = start;
    start += c;
  }
  for (int z = 0, w = gidx; z < dp_; ++z, w += wstride) gpu[counts[node[z]]++] = perm[w];

  double min_intra = std::numeric_limits<double>::infinity();
  for (int i = 0, begin = 0; i < num; ++i) {
    const int end = counts[nodes[i]];
    counts[nodes[i]] = 0;
    for (int a = begin; a < end; ++a) {
      for (int b = begin; b < end; ++b) {
        if (a != b) min_intra = std::min(min_intra, bw_at(gpu[a], gpu[b]));
      }
    }
    begin = end;
  }
  g_max_same_[static_cast<std::size_t>(gidx)] = max_same;
  g_num_nodes_[static_cast<std::size_t>(gidx)] = num;
  g_min_intra_[static_cast<std::size_t>(gidx)] = min_intra;
  g_min_inter_[static_cast<std::size_t>(gidx)] = min_inter;
}

double IncrementalLatencyEvaluator::census_min_inter(const int* nodes, int num) const {
  // Every GPU pair across member nodes a != b reads the node-pair reading
  // a -> b, so the inter-node min is a min over ordered pairs of distinct
  // member nodes. A dense census takes the first member pair of the
  // slow-pair prefix: the pairs after it in the prefix read no less, and so
  // do the non-NaN pairs outside it (the loop's std::min skips NaN).
  const int* counts = scratch_counts_.data();
  if (num * num > kDenseRingSqPerNode * num_nodes_) {
    const std::size_t probes = std::min(
        slow_pairs_.size(), static_cast<std::size_t>(num) * static_cast<std::size_t>(num));
    for (std::size_t k = 0; k < probes; ++k) {
      const NodePair& p = slow_pairs_[k];
      if (counts[p.a] != 0 && counts[p.b] != 0) {
        return inter_bw_[static_cast<std::size_t>(p.a) * static_cast<std::size_t>(num_nodes_) +
                         static_cast<std::size_t>(p.b)];
      }
    }
  }
  double min_inter = std::numeric_limits<double>::infinity();
  for (int i = 0; i < num; ++i) {
    const double* row = inter_bw_ + static_cast<std::size_t>(nodes[i]) *
                                        static_cast<std::size_t>(num_nodes_);
    for (int j = 0; j < num; ++j) {
      if (j != i) min_inter = std::min(min_inter, row[nodes[j]]);
    }
  }
  return min_inter;
}

void IncrementalLatencyEvaluator::swap_node_side(int a, int b) {
  if (a == b) return;
  const auto as = static_cast<std::size_t>(a), bs = static_cast<std::size_t>(b);
  std::swap(node_flows_[as], node_flows_[bs]);
  const int la = node_groups_len_[as], lb = node_groups_len_[bs];
  int* ra = &node_groups_[as * static_cast<std::size_t>(num_groups_)];
  int* rb = &node_groups_[bs * static_cast<std::size_t>(num_groups_)];
  for (int i = 0; i < la; ++i) {
    node_group_pos_[static_cast<std::size_t>(ra[i]) * static_cast<std::size_t>(num_nodes_) + as] =
        -1;
  }
  for (int i = 0; i < lb; ++i) {
    node_group_pos_[static_cast<std::size_t>(rb[i]) * static_cast<std::size_t>(num_nodes_) + bs] =
        -1;
  }
  for (int i = 0; i < la; ++i) scratch_row_[static_cast<std::size_t>(i)] = ra[i];
  for (int i = 0; i < lb; ++i) ra[i] = rb[i];
  for (int i = 0; i < la; ++i) rb[i] = scratch_row_[static_cast<std::size_t>(i)];
  node_groups_len_[as] = lb;
  node_groups_len_[bs] = la;
  for (int i = 0; i < lb; ++i) {
    node_group_pos_[static_cast<std::size_t>(ra[i]) * static_cast<std::size_t>(num_nodes_) + as] =
        i;
  }
  for (int i = 0; i < la; ++i) {
    node_group_pos_[static_cast<std::size_t>(rb[i]) * static_cast<std::size_t>(num_nodes_) + bs] =
        i;
  }
}

void IncrementalLatencyEvaluator::apply_node_sigma() {
  using parallel::MoveKind;
  if (pending_move_.kind == MoveKind::kNodeSwap) {
    swap_node_side(pending_move_.a, pending_move_.b);
  } else {
    const int lo = std::min(pending_move_.a, pending_move_.b);
    const int hi = std::max(pending_move_.a, pending_move_.b);
    for (int i = 0; lo + i < hi - i; ++i) swap_node_side(lo + i, hi - i);
  }
}

void IncrementalLatencyEvaluator::recompute_group_term(int gidx) {
  const auto gi = static_cast<std::size_t>(gidx);
  const int num = g_num_nodes_[gi];
  const int* nodes = &g_nodes_[gi * static_cast<std::size_t>(dp_)];
  int flows = 1;
  for (int i = 0; i < num; ++i) {
    flows = std::max(flows, node_flows_[static_cast<std::size_t>(nodes[i])]);
  }
  const double msg = msg_[static_cast<std::size_t>(gidx / tp_)];
  double t = 0.0;
  if (g_max_same_[gi] > 1) {
    const auto ni = static_cast<double>(g_max_same_[gi]);
    t += 4.0 * (ni - 1.0) * msg / (ni * g_min_intra_[gi]);
  }
  if (num > 1) {
    const auto nn = static_cast<double>(num);
    t += 2.0 * (nn - 1.0) * msg / (nn * g_min_inter_[gi] / flows);
  }
  g_term_[gi] = t;
}

void IncrementalLatencyEvaluator::update_group_flows(int gidx, const int* nodes, int num,
                                                     int delta) {
  const auto gi = static_cast<std::size_t>(gidx);
  if (num < 2) return;  // only node-crossing rings occupy a NIC
  for (int i = 0; i < num; ++i) {
    const int n = nodes[i];
    const auto ns = static_cast<std::size_t>(n);
    if (stamp_node_[ns] != epoch_) {
      stamp_node_[ns] = epoch_;
      changed_nodes_.push_back({n, node_flows_[ns]});
    }
    node_flows_[ns] += delta;
    if (delta > 0) {
      node_group_pos_[gi * static_cast<std::size_t>(num_nodes_) + ns] = node_groups_len_[ns];
      node_groups_[ns * static_cast<std::size_t>(num_groups_) +
                   static_cast<std::size_t>(node_groups_len_[ns]++)] = gidx;
    } else {
      const int pos = node_group_pos_[gi * static_cast<std::size_t>(num_nodes_) + ns];
      const int last = --node_groups_len_[ns];
      const int moved =
          node_groups_[ns * static_cast<std::size_t>(num_groups_) + static_cast<std::size_t>(last)];
      node_groups_[ns * static_cast<std::size_t>(num_groups_) + static_cast<std::size_t>(pos)] =
          moved;
      node_group_pos_[static_cast<std::size_t>(moved) * static_cast<std::size_t>(num_nodes_) + ns] =
          pos;
      node_group_pos_[gi * static_cast<std::size_t>(num_nodes_) + ns] = -1;
    }
  }
}

void IncrementalLatencyEvaluator::mark_term_dirty(int gidx) {
  const auto gi = static_cast<std::size_t>(gidx);
  if (stamp_term_[gi] == epoch_) return;
  stamp_term_[gi] = epoch_;
  undo_term_[dirty_terms_.size()] = g_term_[gi];
  dirty_terms_.push_back(gidx);
}

double IncrementalLatencyEvaluator::reduce(Phase priced) const {
  // Fold the cached decomposition exactly as PipetteLatencyModel::estimate
  // does: stage blocks with the shared fixed blocking (detail::blocked_sum),
  // cached per-replica path sums (same blocking), and the same max/add/divide
  // expressions, so the result is bit-identical. Everything priced here was
  // already recomputed along the dirty paths — this is O(pp + dp + pp·tp)
  // cached reads. A phase not yet priced for the pending move contributes
  // zero instead of its term; every term is >= 0 and each step below (+, ×
  // by a positive constant, max) is monotone in IEEE arithmetic, so the
  // result is then a lower bound on the exact fold, bit for bit.
  const double max_block = max_fold(block_.data(), pp_, 0.0);
  const double sum_blocks = detail::blocked_sum(block_.data(), pp_);
  const double pp_comm = priced == Phase::kPipeline ? max_fold(path_.data(), dp_, 0.0) : 0.0;
  const double bubble = std::max(sum_blocks + ppcomm_scale_ * pp_comm, pp_ * max_block);
  const double straggler = (pp_ - 1) * max_block * fill_scale_;
  const double dp_comm =
      dp_ >= 2 && priced != Phase::kTp ? max_fold(g_term_.data(), num_groups_, 0.0) : 0.0;
  return bubble * rounds_ + straggler + dp_comm;
}

void IncrementalLatencyEvaluator::full_recompute() {
  std::fill(inv_pos_.begin(), inv_pos_.end(), -1);
  for (int p = 0; p < cur_.num_workers(); ++p) {
    inv_pos_[static_cast<std::size_t>(cur_.gpu_at(p))] = p;
  }
  for (int x = 0; x < pp_; ++x) {
    for (int z = 0; z < dp_; ++z) {
      recompute_tp_cell(x, z);
    }
    recompute_block(x);
  }
  std::fill(gpu_out_.begin(), gpu_out_.end(), -1);
  for (int e = 0; e + 1 < pp_; ++e) {
    for (int z = 0; z < dp_; ++z) {
      for (int y = 0; y < tp_; ++y) {
        const int g1 = cur_.gpu_of(e, y, z);
        const int g2 = cur_.gpu_of(e + 1, y, z);
        const int n1 = node_of_gpu_[static_cast<std::size_t>(g1)];
        const int n2 = node_of_gpu_[static_cast<std::size_t>(g2)];
        flow_pair_[static_cast<std::size_t>((e * dp_ + z) * tp_ + y)] =
            n1 == n2 ? -1 : n1 * num_nodes_ + n2;
        gpu_out_[static_cast<std::size_t>(g1)] = e * num_nodes_ + n2;
      }
    }
  }
  for (int e = 0; e + 1 < pp_; ++e) {
    for (int z = 0; z < dp_; ++z) reprice_hop_column(e, z);
  }
  for (int z = 0; z < dp_; ++z) {
    path_[static_cast<std::size_t>(z)] = pp_ > 1 ? detail::blocked_sum(hop_.data() + z, pp_ - 1, dp_) : 0.0;
  }
  std::fill(node_flows_.begin(), node_flows_.end(), 0);
  std::fill(node_groups_len_.begin(), node_groups_len_.end(), 0);
  std::fill(node_group_pos_.begin(), node_group_pos_.end(), -1);
  for (int x = 0; x < pp_; ++x) {
    for (int y = 0; y < tp_; ++y) {
      recompute_group(x, y);
      const int gidx = x * tp_ + y;
      update_group_flows(gidx, &g_nodes_[static_cast<std::size_t>(gidx * dp_)],
                         g_num_nodes_[static_cast<std::size_t>(gidx)], +1);
    }
  }
  for (int g = 0; g < num_groups_; ++g) recompute_group_term(g);
  changed_nodes_.clear();
  cost_ = reduce(Phase::kPipeline);
  pending_ = false;
}

void IncrementalLatencyEvaluator::collect_node_block(int node, int delta_nodes) {
  const int base = node * link_gpn_;
  const int delta = delta_nodes * link_gpn_;
  for (int o = 0; o < link_gpn_; ++o) {
    const int g = base + o;
    const int p = inv_pos_[static_cast<std::size_t>(g)];
    if (p < 0) continue;
    touched_pos_.push_back(p);
    undo_gpu_.push_back(g);
    new_gpu_.push_back(g + delta);
  }
}

void IncrementalLatencyEvaluator::apply_and_collect(const parallel::Move& mv) {
  // Applies the move as parallel::apply_move does and records the positions
  // it touched. Node moves walk the affected node blocks through the
  // maintained inverse permutation — O(touched), no whole-permutation scan,
  // no divisions — and every path records the pre-move GPUs so rollback is a
  // plain write-back.
  using parallel::MoveKind;
  touched_pos_.clear();
  undo_gpu_.clear();
  switch (mv.kind) {
    case MoveKind::kSwap:
      if (mv.a != mv.b) {
        touched_pos_.push_back(mv.a);
        touched_pos_.push_back(mv.b);
        undo_gpu_.push_back(cur_.gpu_at(mv.a));
        undo_gpu_.push_back(cur_.gpu_at(mv.b));
        cur_.swap(mv.a, mv.b);
        inv_pos_[static_cast<std::size_t>(cur_.gpu_at(mv.a))] = mv.a;
        inv_pos_[static_cast<std::size_t>(cur_.gpu_at(mv.b))] = mv.b;
      }
      break;
    case MoveKind::kMigrate:
    case MoveKind::kReverse: {
      const int lo = std::min(mv.a, mv.b), hi = std::max(mv.a, mv.b);
      if (lo == hi) break;
      for (int p = lo; p <= hi; ++p) {
        touched_pos_.push_back(p);
        undo_gpu_.push_back(cur_.gpu_at(p));
      }
      if (mv.kind == MoveKind::kMigrate) {
        cur_.migrate(mv.a, mv.b);
      } else {
        cur_.reverse(mv.a, mv.b);
      }
      for (int p = lo; p <= hi; ++p) {
        inv_pos_[static_cast<std::size_t>(cur_.gpu_at(p))] = p;
      }
      break;
    }
    case MoveKind::kNodeSwap:
    case MoveKind::kNodeReverse: {
      new_gpu_.clear();
      if (mv.kind == MoveKind::kNodeSwap) {
        if (mv.a != mv.b) {
          collect_node_block(mv.a, mv.b - mv.a);
          collect_node_block(mv.b, mv.a - mv.b);
        }
      } else {
        const int lo = std::min(mv.a, mv.b), hi = std::max(mv.a, mv.b);
        for (int node = lo; node <= hi; ++node) {
          const int d = lo + hi - 2 * node;
          if (d != 0) collect_node_block(node, d);
        }
      }
      // Clear stale inverse entries first: with partial node blocks the old
      // and new GPU id sets need not coincide.
      for (std::size_t i = 0; i < touched_pos_.size(); ++i) {
        inv_pos_[static_cast<std::size_t>(undo_gpu_[i])] = -1;
      }
      for (std::size_t i = 0; i < touched_pos_.size(); ++i) {
        cur_.set_gpu_at(touched_pos_[i], new_gpu_[i]);
        inv_pos_[static_cast<std::size_t>(new_gpu_[i])] = touched_pos_[i];
      }
      break;
    }
  }
}

double IncrementalLatencyEvaluator::propose(const parallel::Move& mv, double max_delta) {
  assert(!pending_ && "propose() requires a commit() or rollback() first");
  pending_ = true;
  pending_move_ = mv;
  pending_sigma_ = false;
  exact_ = true;
  // Clear the previous proposal's dirty lists up front: a no-op proposal, or
  // one stopped before a phase ran, must leave that phase's lists empty too,
  // so its rollback restores nothing there.
  dirty_cells_.clear();
  dirty_stages_.clear();
  dirty_groups_.clear();
  dirty_flows_.clear();
  dirty_cols_.clear();
  dirty_paths_.clear();
  dirty_terms_.clear();
  changed_nodes_.clear();
  changed_pairs_.clear();
  undo_out_.clear();
  apply_and_collect(mv);
  if (touched_pos_.empty()) {
    // Self-inverse draw (a == b): the mapping is unchanged, so the cost is
    // too.
    pending_cost_ = cost_;
    return pending_cost_;
  }

  if (++epoch_ == 0) {  // stamp wrap-around: invalidate all stamps once
    std::fill(stamp_cell_.begin(), stamp_cell_.end(), 0u);
    std::fill(stamp_stage_.begin(), stamp_stage_.end(), 0u);
    std::fill(stamp_group_.begin(), stamp_group_.end(), 0u);
    std::fill(stamp_flow_.begin(), stamp_flow_.end(), 0u);
    std::fill(stamp_col_.begin(), stamp_col_.end(), 0u);
    std::fill(stamp_path_.begin(), stamp_path_.end(), 0u);
    std::fill(stamp_term_.begin(), stamp_term_.end(), 0u);
    std::fill(stamp_node_.begin(), stamp_node_.end(), 0u);
    epoch_ = 1;
  }
  // tp < 2 leaves every TP term at zero and every block at C forever, dp < 2
  // zeroes the whole DP term, and pp < 2 has no pipeline hops — skip the
  // respective phase. After each of the first two phases, stop once the
  // lower bound says the move is rejected anyway.
  const bool bounded = max_delta < std::numeric_limits<double>::infinity();
  if (tp_ >= 2) {
    price_tp_phase();
    if (bounded && stop_if_rejected(Phase::kTp, max_delta)) return pending_cost_;
  }
  if (dp_ >= 2) {
    price_dp_phase();
    if (bounded && stop_if_rejected(Phase::kDp, max_delta)) return pending_cost_;
  }
  if (pp_ >= 2) price_pipeline_phase();
  pending_cost_ = reduce(Phase::kPipeline);
  return pending_cost_;
}

bool IncrementalLatencyEvaluator::stop_if_rejected(Phase priced, double max_delta) {
  // Delta space, like the caller's Metropolis test: bound - cost_ <= the
  // exact c - cost_, whatever the rounding of either cost.
  const double bound = reduce(priced);
  if (!(bound - cost_ > max_delta)) return false;
  pending_cost_ = bound;
  exact_ = false;
  return true;
}

void IncrementalLatencyEvaluator::price_tp_phase() {
  // TP cells and stage blocks: reprice the cells holding a touched position,
  // and refold their stages.
  for (const int p : touched_pos_) {
    const int x = pos_stage_[static_cast<std::size_t>(p)];
    const int z = pos_dpr_[static_cast<std::size_t>(p)];
    const int cell = x * dp_ + z;
    if (stamp_cell_[static_cast<std::size_t>(cell)] != epoch_) {
      stamp_cell_[static_cast<std::size_t>(cell)] = epoch_;
      dirty_cells_.push_back({cell, x, z});
    }
    if (stamp_stage_[static_cast<std::size_t>(x)] != epoch_) {
      stamp_stage_[static_cast<std::size_t>(x)] = epoch_;
      dirty_stages_.push_back(x);
    }
  }
  for (std::size_t i = 0; i < dirty_cells_.size(); ++i) {
    const DirtyCell& dc = dirty_cells_[i];
    undo_tp_[i] = tp_term_[static_cast<std::size_t>(dc.idx)];
    recompute_tp_cell(dc.stage, dc.dpr);
  }
  for (std::size_t i = 0; i < dirty_stages_.size(); ++i) {
    const int x = dirty_stages_[i];
    undo_block_[i] = block_[static_cast<std::size_t>(x)];
    recompute_block(x);
  }
}

void IncrementalLatencyEvaluator::price_dp_phase() {
  // DP rings: recompute the stats of the groups the move touched. Node moves
  // take the relabel-aware kernel: the move is a label permutation σ, so the
  // node-side state permutes wholesale, every dirty ring's census becomes its
  // relabelled image, and each ring's NIC-sharing factor is invariant. String
  // moves take the generic path: a group's NIC occupancy (node_flows_) moves
  // only when its member-node census changed, and a moved count dirties
  // other rings' terms only when it did not cancel out within the proposal —
  // the node→groups index then marks exactly the rings sharing that node.
  for (const int p : touched_pos_) {
    const int x = pos_stage_[static_cast<std::size_t>(p)];
    const int y = pos_tpr_[static_cast<std::size_t>(p)];
    const int gidx = x * tp_ + y;
    if (stamp_group_[static_cast<std::size_t>(gidx)] != epoch_) {
      stamp_group_[static_cast<std::size_t>(gidx)] = epoch_;
      dirty_groups_.push_back({gidx, x, y, false});
    }
  }
  using parallel::MoveKind;
  const bool sigma_move = pending_move_.kind == MoveKind::kNodeSwap ||
                          pending_move_.kind == MoveKind::kNodeReverse;
  pending_sigma_ = sigma_move;
  if (sigma_move) apply_node_sigma();
  for (std::size_t i = 0; i < dirty_groups_.size(); ++i) {
    DirtyGroup& dg = dirty_groups_[i];
    const auto gidx = static_cast<std::size_t>(dg.gidx);
    undo_g_min_intra_[i] = g_min_intra_[gidx];
    undo_g_min_inter_[i] = g_min_inter_[gidx];
    undo_g_max_same_[i] = g_max_same_[gidx];
    const int old_num = g_num_nodes_[gidx];
    undo_g_num_nodes_[i] = old_num;
    const int* cur_nodes = &g_nodes_[gidx * static_cast<std::size_t>(dp_)];
    int* old_nodes = &undo_g_nodes_[i * static_cast<std::size_t>(dp_)];
    for (int j = 0; j < old_num; ++j) old_nodes[j] = cur_nodes[j];
    mark_term_dirty(dg.gidx);  // saves the committed term before any change
    recompute_group(dg.stage, dg.tpr);
    if (sigma_move) continue;  // σ already moved the node-side state
    const int new_num = g_num_nodes_[gidx];
    bool census_changed = new_num != old_num;
    for (int j = 0; !census_changed && j < new_num; ++j) {
      census_changed = cur_nodes[j] != old_nodes[j];
    }
    dg.census_changed = census_changed;
    if (census_changed) {
      update_group_flows(dg.gidx, old_nodes, old_num, -1);
      update_group_flows(dg.gidx, cur_nodes, new_num, +1);
    }
  }
  for (const ChangedNode& cn : changed_nodes_) {
    if (node_flows_[static_cast<std::size_t>(cn.node)] == cn.old_count) continue;  // net no-op
    const int* groups = &node_groups_[static_cast<std::size_t>(cn.node) *
                                      static_cast<std::size_t>(num_groups_)];
    const int len = node_groups_len_[static_cast<std::size_t>(cn.node)];
    for (int i = 0; i < len; ++i) mark_term_dirty(groups[i]);
  }
  for (int gidx : dirty_terms_) recompute_group_term(gidx);
}

void IncrementalLatencyEvaluator::price_pipeline_phase() {
  // Pipeline flows: collect the flow into and out of each touched worker's
  // stage (both on the worker's own (tp, dp) lane), refresh each such flow's
  // ordered node pair and gpu_out_ key, then reprice exactly the columns
  // that hold a touched flow or a flow whose sharing count changed, and
  // refold exactly the per-replica path sums holding a repriced column.
  using parallel::MoveKind;
  const bool node_move = pending_move_.kind == MoveKind::kNodeSwap ||
                         pending_move_.kind == MoveKind::kNodeReverse;
  const int* perm = cur_.raw().data();
  for (const int p : touched_pos_) {
    const int x = pos_stage_[static_cast<std::size_t>(p)];
    const int y = pos_tpr_[static_cast<std::size_t>(p)];
    const int z = pos_dpr_[static_cast<std::size_t>(p)];
    if (x > 0) {
      const int fl = ((x - 1) * dp_ + z) * tp_ + y;
      if (stamp_flow_[static_cast<std::size_t>(fl)] != epoch_) {
        stamp_flow_[static_cast<std::size_t>(fl)] = epoch_;
        dirty_flows_.push_back({fl, x - 1, z, p - tp_});
      }
    }
    if (x + 1 < pp_) {
      const int fl = (x * dp_ + z) * tp_ + y;
      if (stamp_flow_[static_cast<std::size_t>(fl)] != epoch_) {
        stamp_flow_[static_cast<std::size_t>(fl)] = epoch_;
        dirty_flows_.push_back({fl, x, z, p});
      }
    } else {
      set_out(perm[p], -1);  // a last-stage worker sends no flow
    }
  }
  if (node_move) {
    // With partial node blocks a node move can leave GPUs empty.
    for (const int g : undo_gpu_) {
      if (inv_pos_[static_cast<std::size_t>(g)] < 0) set_out(g, -1);
    }
  }
  for (std::size_t fi = 0; fi < dirty_flows_.size(); ++fi) {
    const DirtyFlow& df = dirty_flows_[fi];
    const int g1 = perm[df.w1];
    const int g2 = perm[df.w1 + tp_];
    const int n1 = node_of_gpu_[static_cast<std::size_t>(g1)];
    const int n2 = node_of_gpu_[static_cast<std::size_t>(g2)];
    set_out(g1, df.hop * num_nodes_ + n2);
    const int new_pair = n1 == n2 ? -1 : n1 * num_nodes_ + n2;
    const int old_pair = flow_pair_[static_cast<std::size_t>(df.idx)];
    undo_flow_pair_[fi] = old_pair;
    const int col = df.hop * dp_ + df.dpr;
    if (stamp_col_[static_cast<std::size_t>(col)] != epoch_) {
      stamp_col_[static_cast<std::size_t>(col)] = epoch_;
      dirty_cols_.push_back({col, df.hop, df.dpr});
    }
    if (new_pair == old_pair) continue;
    flow_pair_[static_cast<std::size_t>(df.idx)] = new_pair;
    if (node_move) continue;  // node moves need no sweep (below)
    // Dedup for the sweep below (a repeat only sweeps twice): a touched
    // worker's in- and out-flow come in turn, each leaving one pair for
    // another, so the next lane of a cell repeats the entries four back.
    for (const int pair : {old_pair, new_pair}) {
      if (pair < 0) continue;
      const auto recent =
          changed_pairs_.end() - std::min<std::ptrdiff_t>(4, std::ssize(changed_pairs_));
      const bool repeat = std::any_of(recent, changed_pairs_.end(), [&](const ChangedPair& cp) {
        return cp.hop == df.hop && cp.pair == pair;
      });
      if (!repeat) changed_pairs_.push_back({df.hop, pair});
    }
  }
  // Every flow on a changed (hop, pair) needs its column repriced. A node
  // move needs no sweep for them: it relabels whole nodes, so a pair whose
  // count it changed has a relabelled node at one end, every worker now on
  // that node was moved, and every flow on the pair — with an endpoint on
  // that node — is one of the dirty flows above, its column already marked.
  // A string move sweeps each changed pair's upstream node for its flows.
  if (!node_move) {
    for (const ChangedPair& cp : changed_pairs_) {
      const int up = cp.pair / num_nodes_;
      const int key = cp.hop * num_nodes_ + cp.pair % num_nodes_;
      for (int g = up * link_gpn_; g < (up + 1) * link_gpn_; ++g) {
        if (gpu_out_[static_cast<std::size_t>(g)] != key) continue;
        const int z = pos_dpr_[static_cast<std::size_t>(inv_pos_[static_cast<std::size_t>(g)])];
        const int col = cp.hop * dp_ + z;
        if (stamp_col_[static_cast<std::size_t>(col)] == epoch_) continue;  // already dirty
        stamp_col_[static_cast<std::size_t>(col)] = epoch_;
        dirty_cols_.push_back({col, cp.hop, z});
      }
    }
  }
  for (std::size_t i = 0; i < dirty_cols_.size(); ++i) {
    undo_hop_[i] = hop_[static_cast<std::size_t>(dirty_cols_[i].idx)];
    reprice_hop_column(dirty_cols_[i].hop, dirty_cols_[i].dpr);
    const int z = dirty_cols_[i].dpr;
    if (stamp_path_[static_cast<std::size_t>(z)] != epoch_) {
      stamp_path_[static_cast<std::size_t>(z)] = epoch_;
      undo_path_[dirty_paths_.size()] = path_[static_cast<std::size_t>(z)];
      dirty_paths_.push_back(z);
    }
  }
  for (int z : dirty_paths_) recompute_path(z);
}

void IncrementalLatencyEvaluator::commit() {
  assert(pending_ && "commit() without a pending propose()");
  assert(exact_ && "commit() after a bounded stop: the move was never priced in full");
  cost_ = pending_cost_;
  pending_ = false;
}

void IncrementalLatencyEvaluator::rollback() {
  assert(pending_ && "rollback() without a pending propose()");
  // The pre-move GPUs were recorded per touched position, so undoing the
  // mapping is a plain write-back (plus the inverse-permutation fix-up).
  for (int p : touched_pos_) {
    inv_pos_[static_cast<std::size_t>(cur_.gpu_at(p))] = -1;
  }
  for (std::size_t i = 0; i < touched_pos_.size(); ++i) {
    cur_.set_gpu_at(touched_pos_[i], undo_gpu_[i]);
    inv_pos_[static_cast<std::size_t>(undo_gpu_[i])] = touched_pos_[i];
  }
  for (std::size_t i = 0; i < dirty_cells_.size(); ++i) {
    tp_term_[static_cast<std::size_t>(dirty_cells_[i].idx)] = undo_tp_[i];
  }
  for (std::size_t i = 0; i < dirty_stages_.size(); ++i) {
    block_[static_cast<std::size_t>(dirty_stages_[i])] = undo_block_[i];
  }
  for (auto it = undo_out_.rbegin(); it != undo_out_.rend(); ++it) {
    gpu_out_[static_cast<std::size_t>(it->gpu)] = it->old_key;
  }
  for (std::size_t fi = 0; fi < dirty_flows_.size(); ++fi) {
    flow_pair_[static_cast<std::size_t>(dirty_flows_[fi].idx)] = undo_flow_pair_[fi];
  }
  for (std::size_t i = 0; i < dirty_cols_.size(); ++i) {
    hop_[static_cast<std::size_t>(dirty_cols_[i].idx)] = undo_hop_[i];
  }
  for (std::size_t i = 0; i < dirty_paths_.size(); ++i) {
    path_[static_cast<std::size_t>(dirty_paths_[i])] = undo_path_[i];
  }
  for (std::size_t i = 0; i < dirty_groups_.size(); ++i) {
    const DirtyGroup& dg = dirty_groups_[i];
    const auto gidx = static_cast<std::size_t>(dg.gidx);
    int* cur_nodes = &g_nodes_[gidx * static_cast<std::size_t>(dp_)];
    if (dg.census_changed) {  // drop the proposed contribution
      update_group_flows(dg.gidx, cur_nodes, g_num_nodes_[gidx], -1);
    }
    g_min_intra_[gidx] = undo_g_min_intra_[i];
    g_min_inter_[gidx] = undo_g_min_inter_[i];
    g_max_same_[gidx] = undo_g_max_same_[i];
    g_num_nodes_[gidx] = undo_g_num_nodes_[i];
    for (int j = 0; j < g_num_nodes_[gidx]; ++j) {
      cur_nodes[j] = undo_g_nodes_[i * static_cast<std::size_t>(dp_) + static_cast<std::size_t>(j)];
    }
    if (dg.census_changed) {  // restore the committed contribution
      update_group_flows(dg.gidx, cur_nodes, g_num_nodes_[gidx], +1);
    }
  }
  for (std::size_t i = 0; i < dirty_terms_.size(); ++i) {
    const auto gidx = static_cast<std::size_t>(dirty_terms_[i]);
    g_term_[gidx] = undo_term_[i];
  }
  // σ is an involution: re-applying it restores the permuted node side.
  if (pending_sigma_) apply_node_sigma();
  pending_ = false;
}

IncrementalLatencyEvaluator::DirtyStats IncrementalLatencyEvaluator::last_dirty() const {
  DirtyStats s;
  s.cells = static_cast<int>(dirty_cells_.size());
  s.stages = static_cast<int>(dirty_stages_.size());
  s.flows = static_cast<int>(dirty_flows_.size());
  s.cols = static_cast<int>(dirty_cols_.size());
  s.paths = static_cast<int>(dirty_paths_.size());
  s.groups = static_cast<int>(dirty_groups_.size());
  s.terms = static_cast<int>(dirty_terms_.size());
  return s;
}

}  // namespace pipette::estimators
