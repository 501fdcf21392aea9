// Payload codecs for the two memoized cluster artifacts. Encoders are pure
// functions of the artifact; decoders validate everything they read — lengths
// against the payload, doubles against the invariants the rest of the
// pipeline assumes (a sanitized bandwidth profile holds only finite positive
// readings; a standardizer's scales are positive) — and throw
// persist::DecodeError on any violation. The CRC in the record
// frame catches flipped bytes; this structural validation is the second wall,
// catching records that are internally consistent bytes but not a valid
// artifact (an encoder bug, a forged file, a version-skewed writer).
//
// Round-trip contract, locked by tests: decode(encode(x)) produces an
// artifact whose every observable behaviour — estimate_bytes(), the bandwidth
// readings — is bit-identical to x, so a warm-restarted service recommends
// exactly what the original would have.
#pragma once

#include <vector>

#include "cluster/profiler.h"
#include "estimators/mlp_memory.h"
#include "persist/format.h"

namespace pipette::persist {

/// Payload: i32 node count, i32 node width, the node-pair readings
/// (count² doubles), the intra-node readings (count · width² doubles), then
/// the wall time, the measurement count and the sanitize report.
std::vector<unsigned char> encode_profile(const cluster::ProfileResult& profile);
/// Throws DecodeError on structural corruption (including any non-finite or
/// non-positive reading — sanitized snapshots never contain those).
cluster::ProfileResult decode_profile(const unsigned char* payload, std::size_t n);

std::vector<unsigned char> encode_memory(const estimators::MlpMemoryEstimator& est);
estimators::MlpMemoryEstimator decode_memory(const unsigned char* payload, std::size_t n);

}  // namespace pipette::persist
