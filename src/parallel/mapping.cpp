#include "parallel/mapping.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace pipette::parallel {

Mapping::Mapping(ParallelConfig cfg) : cfg_(cfg), perm_(static_cast<std::size_t>(cfg.ways())) {
  std::iota(perm_.begin(), perm_.end(), 0);
}

Mapping Mapping::megatron_default(ParallelConfig cfg) {
  Mapping m(cfg);
  for (int x = 0; x < cfg.pp; ++x) {
    for (int y = 0; y < cfg.tp; ++y) {
      for (int z = 0; z < cfg.dp; ++z) {
        m.perm_[static_cast<std::size_t>(m.worker_index(x, y, z))] =
            x * (cfg.tp * cfg.dp) + z * cfg.tp + y;
      }
    }
  }
  return m;
}

void Mapping::swap(int i, int j) {
  std::swap(perm_[static_cast<std::size_t>(i)], perm_[static_cast<std::size_t>(j)]);
}

void Mapping::migrate(int from, int to) {
  // Remove-at-from / reinsert-at-to equals a one-step rotation of
  // [min, max], which moves only that range instead of the erase/insert
  // O(n) tail shift.
  if (from == to) return;
  if (from < to) {
    std::rotate(perm_.begin() + from, perm_.begin() + from + 1, perm_.begin() + to + 1);
  } else {
    std::rotate(perm_.begin() + to, perm_.begin() + from, perm_.begin() + from + 1);
  }
}

void Mapping::reverse(int i, int j) {
  if (i > j) std::swap(i, j);
  std::reverse(perm_.begin() + i, perm_.begin() + j + 1);
}

void Mapping::swap_nodes(int n1, int n2, int gpus_per_node) {
  if (n1 == n2) return;
  for (int& g : perm_) {
    const int node = g / gpus_per_node;
    if (node == n1) {
      g = n2 * gpus_per_node + g % gpus_per_node;
    } else if (node == n2) {
      g = n1 * gpus_per_node + g % gpus_per_node;
    }
  }
}

void Mapping::reverse_nodes(int n1, int n2, int gpus_per_node) {
  if (n1 > n2) std::swap(n1, n2);
  for (int& g : perm_) {
    const int node = g / gpus_per_node;
    if (node >= n1 && node <= n2) {
      g = (n1 + n2 - node) * gpus_per_node + g % gpus_per_node;
    }
  }
}

bool Mapping::is_valid_permutation() const {
  std::vector<bool> seen(perm_.size(), false);
  for (int g : perm_) {
    if (g < 0 || g >= static_cast<int>(perm_.size()) || seen[static_cast<std::size_t>(g)]) {
      return false;
    }
    seen[static_cast<std::size_t>(g)] = true;
  }
  return true;
}

void apply_move(Mapping& m, const Move& mv, int gpus_per_node) {
  switch (mv.kind) {
    case MoveKind::kSwap:
      m.swap(mv.a, mv.b);
      break;
    case MoveKind::kMigrate:
      m.migrate(mv.a, mv.b);
      break;
    case MoveKind::kReverse:
      m.reverse(mv.a, mv.b);
      break;
    case MoveKind::kNodeSwap:
      m.swap_nodes(mv.a, mv.b, gpus_per_node);
      break;
    case MoveKind::kNodeReverse:
      m.reverse_nodes(mv.a, mv.b, gpus_per_node);
      break;
  }
}

Move inverse_move(const Move& mv) {
  if (mv.kind == MoveKind::kMigrate) return {mv.kind, mv.b, mv.a};
  return mv;
}

void Mapping::set_raw(std::vector<int> perm) {
  if (perm.size() != perm_.size()) {
    throw std::invalid_argument("Mapping::set_raw: wrong permutation size");
  }
  perm_ = std::move(perm);
  if (!is_valid_permutation()) {
    throw std::invalid_argument("Mapping::set_raw: not a bijection");
  }
}

}  // namespace pipette::parallel
