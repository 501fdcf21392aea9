#include "cluster/profiler.h"

#include <algorithm>

#include "common/rng.h"

namespace pipette::cluster {

using common::Rng;

ProfileResult profile_network(const Topology& topo, const ProfileOptions& opt) {
  ProfileFaultHook* faults = opt.faults;
  if (faults != nullptr) faults->on_profile_start();

  ProfileResult out;
  const int nn = topo.num_nodes();
  const int gpn = topo.gpus_per_node();
  out.bw = BandwidthMatrix(nn, gpn);
  Rng rng(opt.seed);
  out.wall_time_s += kNodeInitS * nn;

  // Multiplicative Gaussian noise can in principle draw below -1 and flip a
  // measurement non-positive; a real benchmark never reports <= 0 bytes/s, so
  // clamp each reading at a tiny fraction of truth. At the default sigma the
  // clamp is ~50 standard deviations out — existing noise streams are
  // untouched bit for bit.
  auto noisy = [&](double truth) {
    const double measured = truth * (1.0 + rng.normal(0.0, opt.noise_sigma));
    return std::max(measured, 1e-6 * truth);
  };

  // Inter-node: probe each ordered node pair through its lead GPUs, average
  // kProbeRounds noisy measurements, and store the average as the pair's one
  // reading (node-to-node resolution, like mpiGraph). Pairs the fault hook
  // drops are skipped entirely — no rng draws, no wall time — and keep the
  // unmeasured default for the sanitizer to repair.
  for (int n1 = 0; n1 < nn; ++n1) {
    for (int n2 = 0; n2 < nn; ++n2) {
      if (n1 == n2) continue;
      if (faults != nullptr && faults->drop_inter(nn, n1, n2)) continue;
      const int g1 = n1 * gpn, g2 = n2 * gpn;
      const double truth = topo.bandwidth(g1, g2);
      double acc = 0.0;
      for (int r = 0; r < kProbeRounds; ++r) {
        double measured = noisy(truth);
        if (faults != nullptr) measured = faults->corrupt_inter(nn, n1, n2, measured);
        acc += measured;
        out.wall_time_s += kProbeBytes / truth + kProbeSetupS;
        ++out.num_measurements;
      }
      out.bw.set_inter(n1, n2, acc / kProbeRounds);
    }
  }

  // Intra-node: probe each GPU pair in each node. NVLink probes are cheap and
  // run concurrently across nodes, so only one node's worth of wall time is
  // accounted.
  double intra_wall = 0.0;
  for (int n = 0; n < nn; ++n) {
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) {
        if (a == b) continue;
        const int g1 = n * gpn + a, g2 = n * gpn + b;
        const double truth = topo.bandwidth(g1, g2);
        double acc = 0.0;
        for (int r = 0; r < kProbeRounds; ++r) {
          double measured = noisy(truth);
          if (faults != nullptr) measured = faults->corrupt_intra(n, a, b, measured);
          acc += measured;
          if (n == 0) intra_wall += kProbeBytes / truth + kProbeSetupS;
          ++out.num_measurements;
        }
        out.bw.set_intra(n, a, b, acc / kProbeRounds);
      }
    }
  }
  out.wall_time_s += intra_wall;

  if (faults != nullptr) out.wall_time_s *= faults->wall_time_factor();

  // Whatever the fabric or the fault hook did, hand downstream a matrix of
  // finite positive bandwidths. No-op (and no report entries) when clean.
  out.sanitize = sanitize_bandwidth(out.bw);
  return out;
}

}  // namespace pipette::cluster
