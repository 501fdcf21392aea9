// Incremental evaluation of PipetteLatencyModel::estimate for the simulated
// annealing hot loop (paper §IV). The full model re-scans every TP group,
// pipeline hop, and DP ring on each call — O(pp·dp·tp²) TP scans done twice
// (bubble and straggler), an O(pp·dp·tp · dp·tp) NIC-sharing pass, and an
// O(pp·tp·dp²) DP-ring pass — although one SA move dirties only the few
// groups its touched workers belong to. This evaluator caches the cost
// decomposition and recomputes just what a move dirtied:
//
//   * per (stage, dp-replica) TP cell: the T_TP ring term,
//   * per (hop, dp-replica) column: the slowest fwd+bwd pipeline transfer.
//     Each GPU keeps one key for the flow its worker sends, (hop, downstream
//     node), so a flow's NIC-sharing count is a compare over its upstream
//     node's keys, and a move reprices only the columns holding a moved flow
//     or a flow on a node pair whose sharing count it changed,
//   * per (stage, tp-rank) DP ring: the member-node census and min profiled
//     bandwidths, plus per-node crossing-ring counts and a node→groups
//     reverse index, so a ring term is recomputed only when its own stats or
//     the crossing-ring count of one of its member nodes changed.
//
// Every dirtied entry is priced, and pricing one reads only its members. A TP
// cell folds its ≤tp² member pairs, and a hop column reads the two readings
// of each of its tp flows. A DP ring re-derives its member-node census and
// prices from it: the profile holds one reading per ordered node pair
// (cluster::BandwidthMatrix), so the inter-node min is a min over ordered
// pairs of distinct member nodes and the intra-node min a min over each
// node's bucket of members. A dense ring — more member nodes than
// √(2N) on an N-node fabric — first scans a prefix of the fabric's slowest
// node pairs, built once per evaluator, and takes the reading of the first
// pair whose two nodes are both members: every pair outside the prefix reads
// at least the prefix's last value, so that pair carries the min, usually
// within a few probes. When none of the scanned pairs is a member pair, and
// for every sparser ring, the min is folded over the m² ordered member-node
// pairs. Either way the ring reads the profile's own tables instead of the
// full model's dp² GPU pairs. Mins are exact, so every scan order is
// bit-identical.
//
// The final reduction is itself incremental: per-replica pipeline path sums
// and per-group DP ring terms are cached, so reduce() folds O(pp + dp +
// pp·tp) already-priced doubles instead of re-deriving them. The sums are
// bracketed with the fixed blocking of detail::blocked_sum, and
// PipetteLatencyModel::estimate folds with the same blocking — so every
// returned cost stays bit-identical to model.estimate(mapping), a property
// tests/incremental_test.cpp enforces over randomized sweeps of all five
// move kinds.
//
// Protocol: propose(move) applies the move tentatively and returns the total
// iteration latency; exactly one of commit()/rollback() must follow before
// the next propose(). After construction no heap allocation happens on the
// propose/commit/rollback path: all term tables, dirty lists, undo logs, and
// scratch buffers are preallocated to their worst-case sizes.
//
// Metropolis-bounded proposals. Most SA proposals are rejected, and the
// uniform that rejects a worsening move is drawn before the move is priced,
// so the annealer passes propose(move, max_delta): the largest cost increase
// that draw could still accept (search::detail::metropolis_max_delta).
// propose prices the move in three phases — TP cells and stage blocks, then
// DP rings and their terms, then pipeline flows, hop columns and path sums —
// and after each of the first two folds a lower bound: reduce() with the
// terms of the phases not yet run set to zero (every term is >= 0, and the
// fold's +, × by positive constants and max are IEEE-monotone, so the bound
// is <= the exact cost bit for bit). Once bound - cost() > max_delta the
// move is certain to be rejected: propose stops, returns the bound and
// reports exact() == false. rollback() then undoes exactly the phases that
// ran (the dirty lists of the others stay empty), and commit() is an error.
// The default max_delta = +inf never stops, so propose(move) prices every
// move in full. The phases run in the order that decides rejections
// soonest: on shapes with pp >= 2 and tp >= 2 the TP bound alone decides
// most rejected string moves (migrate, swap, reverse), TP plus DP decides
// nearly all of them on every shape, and the pipeline phase runs only for
// moves the first two could not reject.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "estimators/latency_models.h"
#include "parallel/mapping.h"

namespace pipette::estimators {

class IncrementalLatencyEvaluator {
 public:
  /// Sizes of the dirty sets the last propose() priced — a bounded stop
  /// leaves the phases it skipped at zero. Each count is exact: every entry
  /// a phase dirties is priced. The bench's dirtied-entries histogram reads
  /// this; all counts are free byproducts of the dirty lists.
  struct DirtyStats {
    int cells = 0;   ///< TP cells repriced
    int stages = 0;  ///< stage blocks refolded
    int flows = 0;   ///< pipeline flows re-paired
    int cols = 0;    ///< hop columns repriced
    int paths = 0;   ///< per-replica path sums refolded
    int groups = 0;  ///< DP rings whose stats were recomputed
    int terms = 0;   ///< DP ring terms re-derived (own stats or a member node's count moved)
    int total() const { return cells + stages + flows + cols + paths + groups + terms; }
  };

  /// `model` must outlive the evaluator; `start` becomes the committed state.
  /// Node-granular moves relabel whole nodes of the model's profiled fabric,
  /// whose node width and GPU count size every table.
  IncrementalLatencyEvaluator(const PipetteLatencyModel& model, const parallel::Mapping& start);

  /// The committed mapping.
  const parallel::Mapping& mapping() const { return cur_; }

  /// Latency of the committed mapping; equals model.estimate(mapping()).
  double cost() const { return cost_; }

  /// Applies `mv` tentatively and returns the resulting total latency,
  /// recomputing only the term-table entries the move dirtied. With a finite
  /// `max_delta`, pricing stops as soon as a lower bound on the new cost
  /// exceeds cost() by more than max_delta; the return value is then that
  /// bound and exact() is false.
  double propose(const parallel::Move& mv,
                 double max_delta = std::numeric_limits<double>::infinity());

  /// Whether the last propose() priced the move in full (its return value is
  /// the exact cost). False after a bounded stop.
  bool exact() const { return exact_; }

  /// Accepts the pending move: the proposed mapping becomes committed state.
  /// Requires exact().
  void commit();

  /// Undoes the pending move exactly: the mapping, every cached term, and the
  /// flow keys return to their committed values.
  void rollback();

  /// Dirty-set sizes of the last propose() (valid until the next propose).
  DirtyStats last_dirty() const;

 private:
  /// propose()'s pricing phases, in the order they run.
  enum class Phase { kTp, kDp, kPipeline };

  void full_recompute();
  void apply_and_collect(const parallel::Move& mv);
  /// Appends the live workers of node block `node` to the touched/undo/new
  /// scratch, relabelled by `delta_nodes` blocks (node-move collection).
  void collect_node_block(int node, int delta_nodes);
  /// Sets gpu_out_[gpu] = key, logging the old key for rollback.
  void set_out(int gpu, int key);
  void recompute_tp_cell(int stage, int dpr);
  void recompute_block(int stage);
  void reprice_hop_column(int hop, int dpr);
  /// Refolds replica `dpr`'s cached hop column with the shared blocking.
  void recompute_path(int dpr);
  /// Re-derives DP ring (stage, tpr)'s member-node census and its intra-
  /// and inter-node bandwidth mins.
  void recompute_group(int stage, int tpr);
  /// The inter-node bandwidth min of a census: its `num` distinct member
  /// `nodes`, with scratch_counts_ nonzero exactly on them. Dense censuses
  /// scan the slow-pair prefix first; the rest, and misses, fold every
  /// ordered pair of distinct member nodes.
  double census_min_inter(const int* nodes, int num) const;
  /// Exchanges the whole node-side state of labels `a` and `b`: flow counts,
  /// group lists, and position slots (one transposition of the relabel σ).
  void swap_node_side(int a, int b);
  /// Applies the pending node move's label permutation σ to the node-side
  /// state (an involution: the same call undoes it on rollback).
  void apply_node_sigma();
  /// Re-derives group `gidx`'s DP ring term from its cached stats and the
  /// current NIC-sharing factor.
  void recompute_group_term(int gidx);
  /// Adds (`delta` = +1) or removes (-1) a crossing ring's per-node flow
  /// contribution for group `gidx` over the explicit member-node list
  /// (`nodes`, `num` entries), maintaining the node→groups reverse index and
  /// recording each touched node's pre-change count. The explicit list lets
  /// propose/rollback replay the committed membership from the undo buffer.
  void update_group_flows(int gidx, const int* nodes, int num, int delta);
  /// Marks group `gidx`'s ring term dirty (dedup by stamp), saving its undo.
  void mark_term_dirty(int gidx);
  /// Reads bandwidth(g1, g2) from the profile's node-pair or intra-node
  /// table, resolving nodes through node_of_gpu_ (defined in the .cpp; every
  /// call site lives there, so it inlines within the translation unit).
  double bw_at(int g1, int g2) const;
  /// Folds the cached decomposition into Eq. (3): O(pp + dp + pp·tp) reads,
  /// bracketed exactly like PipetteLatencyModel::estimate. The terms of the
  /// phases after `priced` count as zero, which makes the fold a lower bound
  /// while a proposal is part-priced.
  double reduce(Phase priced) const;
  /// The pricing phases: each collects its own dirty entries from the
  /// touched positions, saves their undo values, and reprices them.
  void price_tp_phase();
  void price_dp_phase();
  void price_pipeline_phase();
  /// Stops the pending proposal if the bound through phase `priced` is more
  /// than `max_delta` above cost().
  bool stop_if_rejected(Phase priced, double max_delta);

  const PipetteLatencyModel* model_;
  parallel::Mapping cur_;
  int pp_ = 1, tp_ = 1, dp_ = 1;
  int num_nodes_ = 1;      ///< nodes of the profiled fabric
  int link_gpn_ = 1;       ///< node width of the profiled fabric
  int num_groups_ = 1;     ///< pp · tp (DP rings)
  double rounds_ = 1.0;    ///< n_mb / pp of Eq. (3)
  double flow_bytes_ = 0.0;  ///< per-TP-rank pipeline flow (pp_msg / tp)
  /// Interleaving constants copied from the model so reduce() folds the
  /// cached tables with the exact same expressions (both are 1.0 for flat
  /// schedules — see PipetteLatencyModel).
  double ppcomm_scale_ = 1.0;
  double fill_scale_ = 1.0;

  // Mapping-independent tables (no division in the inner loops).
  std::vector<int> pos_stage_, pos_tpr_, pos_dpr_;  ///< worker position -> coords
  std::vector<int> node_of_gpu_;
  std::vector<int> layers_;         ///< per stage
  std::vector<double> c_;           ///< per stage fwd+bwd compute
  std::vector<double> msg_;         ///< per stage DP gradient bytes
  std::vector<double> shared_sum_;  ///< k sequential additions of flow_bytes_

  // Cached cost decomposition.
  std::vector<int> inv_pos_;     ///< gpu -> worker position (-1 when unused)
  std::vector<double> tp_term_;  ///< [stage*dp + dpr] T_TP of the cell
  std::vector<double> block_;    ///< [stage] C + max_z T_TP
  std::vector<double> hop_;      ///< [hop*dp + dpr] slowest fwd+bwd of the hop
  std::vector<double> path_;     ///< [dpr] blocked sum of the replica's hops
  std::vector<int> flow_pair_;   ///< [(hop*dp + dpr)*tp + tpr] ordered node
                                 ///< pair id of the flow, -1 when intra-node
  /// [gpu] hop·num_nodes + downstream node of the pipeline flow the GPU's
  /// worker sends; -1 when the GPU holds no worker or a last-stage one. A
  /// GPU holds at most one worker and a worker sends at most one flow, so
  /// the flows of hop h on node pair (a, b) are exactly node a's GPUs keyed
  /// h·num_nodes + b: every sharing count is a compare over one node's
  /// contiguous entries, and no table is sized by node pairs.
  std::vector<int> gpu_out_;
  std::vector<double> g_min_intra_, g_min_inter_;  ///< [stage*tp + tpr]
  std::vector<int> g_max_same_, g_num_nodes_;
  std::vector<int> g_nodes_;     ///< [gidx*dp + i] distinct member nodes
  std::vector<int> node_flows_;  ///< crossing rings resident per node
  std::vector<double> g_term_;   ///< [gidx] cached DP ring term of Eq. (6)
  /// The model's profiled readings (views, not copies):
  /// BandwidthMatrix::inter_readings() and intra_readings().
  const double* inter_bw_ = nullptr;  ///< [n1*num_nodes + n2]
  const double* intra_bw_ = nullptr;  ///< [g1*link_gpn + local(g2)]
  // Slow-pair prefix for census_min_inter: the K = kSlowPairsPerNode·N
  // off-diagonal node pairs with the lowest readings, ascending by (reading,
  // pair id), without NaN readings (the loop's std::min never returns one).
  // Built once, only when dp² > 2N so that some ring can be dense, and
  // read-only afterwards: no proposal logs an undo for it.
  //
  // Cost model. The loop reads m(m−1) readings for an m-node census; a probe
  // reads the census counts of one pair's two nodes. Were a census a uniform
  // draw of m of the N nodes, a prefix pair would be a member pair with
  // probability about (m/N)², so a hit would take about (N/m)² probes, fewer
  // than the loop's reads once m > √N. But the annealer steers rings off slow
  // pairs, so a census is no uniform draw, and one near √N often holds no
  // prefix pair at all. On annealed chains of 8- and 16-node fabrics, the
  // scans of rings with m² ≤ 2N missed 18–63% of the time and cost 0.9–1.8×
  // the loop's reads in probes plus fallbacks; wider rings missed at most
  // 24% and cost 1.4–56× less. So a ring is dense, and scans, when
  // m² > kDenseRingSqPerNode·N. At that threshold a uniform census needs
  // about N/2 probes, an eighth of K. Capping the scan at min(K, m²) probes
  // keeps a miss within about twice the loop's reads.
  static constexpr int kSlowPairsPerNode = 4;
  static constexpr int kDenseRingSqPerNode = 2;
  struct NodePair {
    int a, b;
  };
  std::vector<NodePair> slow_pairs_;
  // node→groups reverse index: which crossing rings have a member on a node
  // (exactly the rings add_group_flows credits). Lets a node_flows_ change
  // dirty only the ring terms it can actually move.
  std::vector<int> node_groups_;      ///< [node*num_groups + i] group ids
  std::vector<int> node_groups_len_;  ///< [node]
  std::vector<int> node_group_pos_;   ///< [gidx*num_nodes + node] slot or -1

  double cost_ = 0.0;          ///< committed cost
  double pending_cost_ = 0.0;  ///< proposed cost (a lower bound when !exact_)
  bool exact_ = true;          ///< the pending proposal was priced in full

  // Dirty tracking (epoch stamps dedup without clearing).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_cell_, stamp_stage_, stamp_group_;
  std::vector<std::uint32_t> stamp_flow_, stamp_col_;
  std::vector<std::uint32_t> stamp_path_, stamp_term_, stamp_node_;
  struct DirtyCell {
    int idx, stage, dpr;
  };
  struct DirtyGroup {
    int gidx, stage, tpr;
    /// True when the recompute changed the member-node census, i.e. the
    /// node_flows_ contribution was actually moved (and must be moved back
    /// on rollback).
    bool census_changed;
  };
  struct DirtyFlow {
    int idx, hop, dpr, w1;  ///< w1: worker position of the upstream endpoint
  };
  struct DirtyCol {
    int idx, hop, dpr;
  };
  std::vector<DirtyCell> dirty_cells_;
  std::vector<int> dirty_stages_;
  std::vector<DirtyGroup> dirty_groups_;
  std::vector<DirtyFlow> dirty_flows_;
  std::vector<DirtyCol> dirty_cols_;
  std::vector<int> dirty_paths_;  ///< dpr values
  std::vector<int> dirty_terms_;  ///< gidx values
  struct ChangedNode {
    int node, old_count;  ///< pre-change count: net no-ops propagate nothing
  };
  std::vector<ChangedNode> changed_nodes_;
  struct ChangedPair {
    int hop, pair;
  };
  std::vector<ChangedPair> changed_pairs_;

  // Undo logs for rollback (preallocated; parallel to the dirty lists).
  bool pending_ = false;
  parallel::Move pending_move_;
  /// True when the pending proposal is a node move, priced by the
  /// relabel-aware kernel: the node-side state was permuted by σ (not
  /// rebuilt), and rollback must re-apply the involution.
  bool pending_sigma_ = false;
  std::vector<int> touched_pos_;
  std::vector<int> undo_gpu_;  ///< pre-move GPU of each touched position
  std::vector<int> new_gpu_;   ///< node-move scratch: post-move GPUs
  std::vector<double> undo_tp_, undo_block_, undo_hop_, undo_path_, undo_term_;
  std::vector<int> undo_flow_pair_;  ///< parallel to dirty_flows_
  struct OutWrite {
    int gpu, old_key;
  };
  std::vector<OutWrite> undo_out_;  ///< every gpu_out_ write, in order
  std::vector<double> undo_g_min_intra_, undo_g_min_inter_;
  std::vector<int> undo_g_max_same_, undo_g_num_nodes_, undo_g_nodes_;

  // Recompute scratch: a ring's member nodes, its member GPUs bucketed by
  // node, per-node member counts (all-zero between calls), and one node-list
  // row for σ.
  std::vector<int> scratch_node_, scratch_gpu_, scratch_counts_, scratch_row_;
};

}  // namespace pipette::estimators
