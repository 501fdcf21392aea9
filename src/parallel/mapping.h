// The worker->GPU assignment of Eq. (2): a bijection f from logical workers
// W = [pp] x [tp] x [dp] onto the physical GPUs. The flat permutation string
// is exactly what Pipette's simulated annealing mutates with its three moves
// (migrate, swap, reverse).
#pragma once

#include <vector>

#include "parallel/parallel_config.h"

namespace pipette::parallel {

class Mapping {
 public:
  /// Identity mapping: worker index w -> GPU w ("alphabetical" baseline of
  /// the paper's Fig. 4a).
  explicit Mapping(ParallelConfig cfg);

  /// Megatron-LM's default rank order: GPU = stage*(tp*dp) + dpr*tp + tpr.
  /// TP groups land on consecutive GPUs (one node), pipeline stages on
  /// different nodes — the placement expert-tuned frameworks use.
  static Mapping megatron_default(ParallelConfig cfg);

  const ParallelConfig& config() const { return cfg_; }
  int num_workers() const { return static_cast<int>(perm_.size()); }

  /// Flat worker index. TP rank varies fastest, then stage, then DP replica,
  /// so that `reverse` on a substring tends to reverse pipeline order within
  /// one replica — the structure the paper's reverse move exploits.
  int worker_index(int stage, int tpr, int dpr) const {
    return (dpr * cfg_.pp + stage) * cfg_.tp + tpr;
  }

  /// Physical GPU of logical worker (stage, tpr, dpr).
  int gpu_of(int stage, int tpr, int dpr) const { return perm_[worker_index(stage, tpr, dpr)]; }
  int gpu_at(int widx) const { return perm_[widx]; }

  /// SA moves (paper §IV). All preserve the bijection.
  void swap(int i, int j);             ///< exchange two elements
  void migrate(int from, int to);      ///< remove element, reinsert at position
  void reverse(int i, int j);          ///< reverse the substring [min,max]

  /// Node-granular moves realizing the paper's Fig. 4 "reordering/regrouping
  /// the nodes": relabel the physical GPUs by a node permutation, preserving
  /// each node's internal structure. `gpus_per_node` defines the blocks.
  void swap_nodes(int n1, int n2, int gpus_per_node);
  /// Reverses the node order on the label range [min(n1,n2), max(n1,n2)] —
  /// the node-level analogue of the reverse move (exploits the nearly
  /// symmetric bidirectional bandwidths).
  void reverse_nodes(int n1, int n2, int gpus_per_node);

  /// True iff the permutation is a bijection onto [0, num_workers).
  bool is_valid_permutation() const;

  const std::vector<int>& raw() const { return perm_; }
  void set_raw(std::vector<int> perm);

  /// Unchecked single-element write for incremental move kernels (the
  /// evaluator's O(touched) node-move apply/rollback paths). The caller must
  /// restore the bijection across its batch of writes; nothing is validated.
  void set_gpu_at(int widx, int gpu) { perm_[static_cast<std::size_t>(widx)] = gpu; }

  bool operator==(const Mapping&) const = default;

 private:
  ParallelConfig cfg_;
  std::vector<int> perm_;  // worker index -> gpu
};

/// The five SA move kinds over a Mapping (paper §IV plus the node-granular
/// variants of Fig. 4).
enum class MoveKind { kMigrate, kSwap, kReverse, kNodeSwap, kNodeReverse };

/// A move as data, so it can be drawn once and then applied, undone, and
/// cost-evaluated incrementally. Operand semantics per kind:
///   kSwap / kReverse      a, b = worker positions
///   kMigrate              a = from position, b = to position
///   kNodeSwap / kNodeReverse  a, b = node labels
struct Move {
  MoveKind kind = MoveKind::kSwap;
  int a = 0;
  int b = 0;
};

/// Applies `mv` to `m` (dispatch onto the member moves above).
void apply_move(Mapping& m, const Move& mv, int gpus_per_node);

/// The move that exactly undoes `mv`: every kind is an involution except
/// migrate, whose inverse swaps the endpoints.
Move inverse_move(const Move& mv);

}  // namespace pipette::parallel
