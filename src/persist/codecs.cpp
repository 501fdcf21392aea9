#include "persist/codecs.h"

#include <cmath>
#include <limits>

namespace pipette::persist {

namespace {

// Structural bounds: far above anything the engine produces, low enough that
// a corrupted length field cannot demand absurd allocations before the
// element-wise bounds checks run.
constexpr std::size_t kMaxGpus = 1 << 20;
constexpr std::size_t kMaxVec = std::size_t{1} << 32;

void require(bool ok, const char* what) {
  if (!ok) throw DecodeError(what);
}

double finite(double v, const char* what) {
  require(std::isfinite(v), what);
  return v;
}

int non_negative(int v, const char* what) {
  require(v >= 0, what);
  return v;
}

}  // namespace

std::vector<unsigned char> encode_profile(const cluster::ProfileResult& profile) {
  ByteWriter w;
  const auto& bw = profile.bw;
  w.i32(bw.num_nodes());
  w.i32(bw.gpus_per_node());
  for (const auto table : {bw.inter_readings(), bw.intra_readings()}) {
    w.bytes(reinterpret_cast<const unsigned char*>(table.data()), table.size() * sizeof(double));
  }
  w.f64(profile.wall_time_s);
  w.i32(profile.num_measurements);
  const auto& s = profile.sanitize;
  w.i32(s.total_readings);
  w.i32(s.repaired_nonfinite);
  w.i32(s.repaired_nonpositive);
  w.i32(s.imputed_symmetric);
  w.i32(s.imputed_neighbor);
  w.i32(s.imputed_floor);
  w.i32_vec(s.quarantined_nodes);
  w.u64(s.repaired_node_pairs.size());
  for (const auto& [a, b] : s.repaired_node_pairs) {
    w.i32(a);
    w.i32(b);
  }
  return w.take();
}

cluster::ProfileResult decode_profile(const unsigned char* payload, std::size_t n) {
  ByteReader r(payload, n);
  const int nodes = r.i32();
  const int gpn = r.i32();
  const auto nn = static_cast<std::size_t>(nodes), width = static_cast<std::size_t>(gpn);
  require(nodes > 0 && gpn > 0 && nn * width <= kMaxGpus, "bad node counts");
  require(r.remaining() >= (nn * nn + nn * width * width) * sizeof(double),
          "bandwidth readings truncated");
  cluster::ProfileResult out;
  out.bw = cluster::BandwidthMatrix(nodes, gpn);
  // Self-pairs are +infinity by construction (anything else means the payload
  // is not a BandwidthMatrix image), and the profiler sanitizes before
  // returning, so every other reading is finite positive — the exact
  // invariant the latency models assume.
  auto reading = [&r](bool self_pair) {
    const double v = r.f64();
    require(self_pair ? v == std::numeric_limits<double>::infinity() : std::isfinite(v) && v > 0.0,
            self_pair ? "bad self-pair bandwidth" : "bad bandwidth entry");
    return v;
  };
  for (int n1 = 0; n1 < nodes; ++n1) {
    for (int n2 = 0; n2 < nodes; ++n2) out.bw.set_inter(n1, n2, reading(n1 == n2));
  }
  for (int node = 0; node < nodes; ++node) {
    for (int a = 0; a < gpn; ++a) {
      for (int b = 0; b < gpn; ++b) out.bw.set_intra(node, a, b, reading(a == b));
    }
  }
  out.wall_time_s = finite(r.f64(), "bad wall time");
  require(out.wall_time_s >= 0.0, "negative wall time");
  out.num_measurements = non_negative(r.i32(), "negative measurement count");
  auto& s = out.sanitize;
  s.total_readings = non_negative(r.i32(), "negative sanitize count");
  s.repaired_nonfinite = non_negative(r.i32(), "negative sanitize count");
  s.repaired_nonpositive = non_negative(r.i32(), "negative sanitize count");
  s.imputed_symmetric = non_negative(r.i32(), "negative sanitize count");
  s.imputed_neighbor = non_negative(r.i32(), "negative sanitize count");
  s.imputed_floor = non_negative(r.i32(), "negative sanitize count");
  s.quarantined_nodes = r.i32_vec(kMaxVec);
  for (const int node : s.quarantined_nodes) non_negative(node, "negative quarantined node");
  const std::uint64_t pairs = r.u64();
  require(pairs <= kMaxVec && pairs * 2 * sizeof(std::int32_t) <= r.remaining(),
          "repaired pair list truncated");
  s.repaired_node_pairs.reserve(static_cast<std::size_t>(pairs));
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const int a = non_negative(r.i32(), "negative repaired node");
    const int b = non_negative(r.i32(), "negative repaired node");
    s.repaired_node_pairs.emplace_back(a, b);
  }
  r.expect_end();
  return out;
}

std::vector<unsigned char> encode_memory(const estimators::MlpMemoryEstimator& est) {
  ByteWriter w;
  w.u64(est.training_digest());
  w.f64(est.soft_margin());
  w.i32(est.dataset_size());
  w.f64(est.train_mape_percent());
  const auto& reg = est.regressor();
  w.f64(reg.y_mean());
  w.f64(reg.y_std());
  w.f64_vec(reg.standardizer().mean());
  w.f64_vec(reg.standardizer().std());
  w.i32_vec(reg.network().layer_sizes());
  w.f64_vec(reg.network().parameters());
  return w.take();
}

estimators::MlpMemoryEstimator decode_memory(const unsigned char* payload, std::size_t n) {
  ByteReader r(payload, n);
  const std::uint64_t digest = r.u64();
  const double margin = finite(r.f64(), "bad margin");
  require(margin >= 0.0 && margin < 1.0, "margin out of range");
  const int dataset_size = non_negative(r.i32(), "negative dataset size");
  const double mape = finite(r.f64(), "bad mape");
  const double y_mean = finite(r.f64(), "bad y_mean");
  const double y_std = finite(r.f64(), "bad y_std");
  auto feat_mean = r.f64_vec(kMaxVec);
  auto feat_std = r.f64_vec(kMaxVec);
  for (const double v : feat_mean) finite(v, "bad standardizer mean");
  for (const double v : feat_std) finite(v, "bad standardizer std");
  const auto layer_sizes = r.i32_vec(1024);
  auto params = r.f64_vec(kMaxVec);
  for (const double v : params) finite(v, "bad network parameter");
  r.expect_end();
  try {
    // Regressor::restore re-validates architecture/dimension consistency;
    // fold its complaints into the decode taxonomy.
    auto reg = mlp::Regressor::restore(layer_sizes, params, std::move(feat_mean),
                                       std::move(feat_std), y_mean, y_std);
    return estimators::MlpMemoryEstimator::restore(std::move(reg), margin, dataset_size, mape,
                                                   digest);
  } catch (const std::invalid_argument& e) {
    throw DecodeError(e.what());
  }
}

}  // namespace pipette::persist
