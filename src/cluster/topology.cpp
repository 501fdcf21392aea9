#include "cluster/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hashing.h"
#include "common/rng.h"

namespace pipette::cluster {

using common::Rng;

Topology::Topology(ClusterSpec spec, HeterogeneityOptions het, std::uint64_t seed)
    : spec_(std::move(spec)), het_(het), seed_(seed) {
  const int nn = spec_.num_nodes;
  const int gpn = spec_.gpus_per_node;
  inter_base_.assign(static_cast<std::size_t>(nn) * nn, 1.0);
  inter_daily_.assign(static_cast<std::size_t>(nn) * nn, 1.0);
  intra_base_.assign(static_cast<std::size_t>(nn) * gpn * gpn, 1.0);

  Rng root(seed_);
  Rng inter_rng = root.fork(1);
  Rng intra_rng = root.fork(2);

  // Inter-node: draw one symmetric base factor per unordered pair, then apply
  // a small directional asymmetry (the paper observes bidirectional
  // bandwidths are "often almost symmetric", which motivates the SA reverse
  // move — we reproduce that structure).
  for (int i = 0; i < nn; ++i) {
    for (int j = i + 1; j < nn; ++j) {
      double f = inter_rng.normal(het_.inter_mean, het_.inter_spread);
      if (inter_rng.bernoulli(het_.slow_pair_prob)) f *= het_.slow_pair_factor;
      f = std::clamp(f, het_.inter_min, het_.inter_max);
      const double fwd = std::clamp(f * (1.0 + inter_rng.normal(0.0, het_.asym_sigma)),
                                    het_.inter_min, het_.inter_max);
      const double bwd = std::clamp(f * (1.0 + inter_rng.normal(0.0, het_.asym_sigma)),
                                    het_.inter_min, het_.inter_max);
      inter_base_[static_cast<std::size_t>(i) * nn + j] = fwd;
      inter_base_[static_cast<std::size_t>(j) * nn + i] = bwd;
    }
  }

  // Intra-node NVLink: nearly homogeneous, symmetric per GPU pair.
  for (int n = 0; n < nn; ++n) {
    for (int a = 0; a < gpn; ++a) {
      for (int b = a + 1; b < gpn; ++b) {
        double f = std::clamp(intra_rng.normal(het_.intra_mean, het_.intra_spread), 0.6, 1.0);
        intra_base_[(static_cast<std::size_t>(n) * gpn + a) * gpn + b] = f;
        intra_base_[(static_cast<std::size_t>(n) * gpn + b) * gpn + a] = f;
      }
    }
  }
}

Topology Topology::homogeneous(ClusterSpec spec) {
  return Topology(std::move(spec), HeterogeneityOptions::none(), /*seed=*/0);
}

double Topology::inter_factor(int n1, int n2) const {
  const std::size_t idx = static_cast<std::size_t>(n1) * spec_.num_nodes + n2;
  return inter_base_[idx] * inter_daily_[idx];
}

double Topology::bandwidth(int g1, int g2) const {
  assert(g1 >= 0 && g1 < num_gpus() && g2 >= 0 && g2 < num_gpus());
  if (g1 == g2) return std::numeric_limits<double>::infinity();
  const int n1 = node_of(g1), n2 = node_of(g2);
  if (n1 == n2) {
    const int gpn = spec_.gpus_per_node;
    const int a = g1 % gpn, b = g2 % gpn;
    return spec_.intra_node.bandwidth_Bps *
           intra_base_[(static_cast<std::size_t>(n1) * gpn + a) * gpn + b];
  }
  return spec_.inter_node.bandwidth_Bps * inter_factor(n1, n2);
}

double Topology::latency(int g1, int g2) const {
  if (g1 == g2) return 0.0;
  return same_node(g1, g2) ? spec_.intra_node.latency_s : spec_.inter_node.latency_s;
}

double Topology::spec_bandwidth(int g1, int g2) const {
  if (g1 == g2) return std::numeric_limits<double>::infinity();
  return same_node(g1, g2) ? spec_.intra_node.bandwidth_Bps : spec_.inter_node.bandwidth_Bps;
}

void Topology::advance_day() {
  ++day_;
  // AR(1) walk on the daily multiplier of every ordered inter-node pair. The
  // innovation stream is keyed by (seed, day, pair) so the whole 40-day trace
  // is reproducible and independent of call patterns.
  Rng day_rng = Rng(seed_).fork(0xda11ull + static_cast<std::uint64_t>(day_));
  const int nn = spec_.num_nodes;
  for (int i = 0; i < nn; ++i) {
    for (int j = 0; j < nn; ++j) {
      if (i == j) continue;
      const std::size_t idx = static_cast<std::size_t>(i) * nn + j;
      const double prev = inter_daily_[idx] - 1.0;
      double next = het_.daily_rho * prev + day_rng.normal(0.0, het_.daily_sigma);
      next = std::clamp(next, -het_.daily_clamp, het_.daily_clamp);
      inter_daily_[idx] = 1.0 + next;
    }
  }
}

BandwidthMatrix Topology::true_matrix() const {
  const int nn = num_nodes(), gpn = gpus_per_node();
  BandwidthMatrix m(nn, gpn);
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 != n2) m.set_inter(n1, n2, bandwidth(n1 * gpn, n2 * gpn));
    }
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a != b) m.set_intra(n1, a, b, bandwidth(n1 * gpn + a, n1 * gpn + b));
      }
    }
  }
  return m;
}

std::uint64_t Topology::fingerprint() const {
  using common::hash_combine;
  // Digest the actual link state, not the construction recipe: sub_cluster()
  // slices factors out of the parent's larger RNG draw, so a sliced 3-node
  // cluster and a directly built one share (spec, het, seed, day) yet attain
  // different bandwidths — only the factor vectors tell them apart.
  std::uint64_t h = hash_combine(0x9172e7b2d4f1ull, spec_digest(spec_));
  for (const double f : inter_base_) h = hash_combine(h, f);
  for (const double f : inter_daily_) h = hash_combine(h, f);
  for (const double f : intra_base_) h = hash_combine(h, f);
  h = hash_combine(h, seed_);
  h = hash_combine(h, static_cast<std::uint64_t>(day_));
  return h;
}

Topology Topology::sub_cluster(int num_nodes) const {
  assert(num_nodes >= 1 && num_nodes <= spec_.num_nodes);
  ClusterSpec sub = spec_;
  sub.num_nodes = num_nodes;
  Topology t(sub, het_, seed_);
  // Copy the first num_nodes x num_nodes block of link factors so the
  // sub-cluster is literally a subset of this cluster's links.
  for (int i = 0; i < num_nodes; ++i) {
    for (int j = 0; j < num_nodes; ++j) {
      t.inter_base_[static_cast<std::size_t>(i) * num_nodes + j] =
          inter_base_[static_cast<std::size_t>(i) * spec_.num_nodes + j];
      t.inter_daily_[static_cast<std::size_t>(i) * num_nodes + j] =
          inter_daily_[static_cast<std::size_t>(i) * spec_.num_nodes + j];
    }
  }
  const int gpn = spec_.gpus_per_node;
  std::copy_n(intra_base_.begin(), static_cast<std::size_t>(num_nodes) * gpn * gpn,
              t.intra_base_.begin());
  t.day_ = day_;
  return t;
}

}  // namespace pipette::cluster
