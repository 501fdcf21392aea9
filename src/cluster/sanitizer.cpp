#include "cluster/sanitizer.h"

#include <algorithm>
#include <cmath>

namespace pipette::cluster {

namespace {

bool healthy(double v) { return std::isfinite(v) && v > 0.0; }

/// Median of a scratch vector (destructive). Returns NaN when empty so the
/// caller falls through to the next donor tier.
double median_of(std::vector<double>& vals) {
  if (vals.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = vals.size() / 2;
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid), vals.end());
  return vals[mid];
}

}  // namespace

SanitizeReport sanitize_bandwidth(BandwidthMatrix& bw) {
  SanitizeReport rep;
  const int nn = bw.num_nodes();
  const int gpn = bw.gpus_per_node();
  rep.total_readings = nn * (nn - 1) + nn * gpn * (gpn - 1);

  // Pass 1: classify every inter-node reading from the *original* matrix.
  // Donors are drawn exclusively from this snapshot — a repaired value never
  // donates to a later repair, so repair order cannot change the result.
  std::vector<char> inter_good(static_cast<std::size_t>(nn) * nn, 1);
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 == n2) continue;
      inter_good[static_cast<std::size_t>(n1) * nn + n2] = healthy(bw.inter(n1, n2)) ? 1 : 0;
    }
  }

  // Pass 2: quarantine nodes whose inter-node readings are all bad in both
  // directions. Their links get the floor, not an imputed value — a
  // node we cannot reach should look expensive, not average.
  std::vector<char> quarantined(static_cast<std::size_t>(nn), 0);
  if (nn > 1) {
    const int per_node = 2 * (nn - 1);
    for (int n = 0; n < nn; ++n) {
      int bad = 0;
      for (int m = 0; m < nn; ++m) {
        if (m == n) continue;
        bad += inter_good[static_cast<std::size_t>(n) * nn + m] ? 0 : 1;
        bad += inter_good[static_cast<std::size_t>(m) * nn + n] ? 0 : 1;
      }
      if (bad == per_node) {
        quarantined[static_cast<std::size_t>(n)] = 1;
        rep.quarantined_nodes.push_back(n);
      }
    }
  }

  auto classify = [&rep](double v) {
    if (!std::isfinite(v)) {
      ++rep.repaired_nonfinite;
    } else {
      ++rep.repaired_nonpositive;
    }
  };

  // Pass 3a: repair inter-node readings. Donor hierarchy: symmetric reading,
  // then the median of healthy readings touching either endpoint, then the
  // global healthy inter-node median, then the floor.
  std::vector<double> global_inter;
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 != n2 && inter_good[static_cast<std::size_t>(n1) * nn + n2]) {
        global_inter.push_back(bw.inter(n1, n2));
      }
    }
  }
  const double global_inter_med = median_of(global_inter);
  std::vector<double> scratch;
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 == n2 || inter_good[static_cast<std::size_t>(n1) * nn + n2]) continue;
      classify(bw.inter(n1, n2));
      double repl;
      if (quarantined[static_cast<std::size_t>(n1)] || quarantined[static_cast<std::size_t>(n2)]) {
        repl = kFloorBw;
        ++rep.imputed_floor;
      } else if (inter_good[static_cast<std::size_t>(n2) * nn + n1]) {
        repl = bw.inter(n2, n1);
        ++rep.imputed_symmetric;
      } else {
        scratch.clear();
        for (int m = 0; m < nn; ++m) {
          if (m != n1 && m != n2 && inter_good[static_cast<std::size_t>(n1) * nn + m]) {
            scratch.push_back(bw.inter(n1, m));
          }
          if (m != n1 && m != n2 && inter_good[static_cast<std::size_t>(m) * nn + n2]) {
            scratch.push_back(bw.inter(m, n2));
          }
        }
        double med = median_of(scratch);
        if (healthy(med)) {
          repl = med;
          ++rep.imputed_neighbor;
        } else if (healthy(global_inter_med)) {
          repl = global_inter_med;
          ++rep.imputed_neighbor;
        } else {
          repl = kFloorBw;
          ++rep.imputed_floor;
        }
      }
      bw.set_inter(n1, n2, repl);
      rep.repaired_node_pairs.emplace_back(n1, n2);
    }
  }

  // Pass 3b: repair intra-node readings (per ordered GPU pair). Donors:
  // symmetric pair, then the node's healthy intra median, then the global
  // intra median, then the floor. Quarantine does not apply — it is an
  // inter-node reachability statement.
  std::vector<char> intra_good(static_cast<std::size_t>(nn) * gpn * gpn, 1);
  std::vector<double> global_intra;
  auto intra_idx = [&](int n, int a, int b) {
    return (static_cast<std::size_t>(n) * gpn + a) * gpn + b;
  };
  for (int n = 0; n < nn; ++n) {
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a == b) continue;
        const double v = bw.intra(n, a, b);
        if (healthy(v)) {
          global_intra.push_back(v);
        } else {
          intra_good[intra_idx(n, a, b)] = 0;
        }
      }
    }
  }
  const double global_intra_med = median_of(global_intra);
  for (int n = 0; n < nn; ++n) {
    bool node_repaired = false;
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a == b || intra_good[intra_idx(n, a, b)]) continue;
        classify(bw.intra(n, a, b));
        double repl;
        if (intra_good[intra_idx(n, b, a)]) {
          repl = bw.intra(n, b, a);
          ++rep.imputed_symmetric;
        } else {
          scratch.clear();
          for (int x = 0; x < gpn; ++x) {
            for (int y = 0; y < gpn; ++y) {
              if (x != y && intra_good[intra_idx(n, x, y)]) {
                scratch.push_back(bw.intra(n, x, y));
              }
            }
          }
          double med = median_of(scratch);
          if (healthy(med)) {
            repl = med;
            ++rep.imputed_neighbor;
          } else if (healthy(global_intra_med)) {
            repl = global_intra_med;
            ++rep.imputed_neighbor;
          } else {
            repl = kFloorBw;
            ++rep.imputed_floor;
          }
        }
        // The symmetric donor is read back through intra_good, which still
        // reflects the original matrix — but the value itself may have been
        // overwritten only if (b, a) was bad, which intra_good excludes.
        bw.set_intra(n, a, b, repl);
        node_repaired = true;
      }
    }
    if (node_repaired) rep.repaired_node_pairs.emplace_back(n, n);
  }

  return rep;
}

}  // namespace pipette::cluster
