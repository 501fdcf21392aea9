// The snapshot directory: one record file per memoized artifact, named
// `<kind>-<016x key>.snap` so a re-persist of the same artifact atomically
// replaces its own file and nothing else. Loading is the robustness
// centerpiece: every file is independently verified (magic, version, length,
// CRC32C, then codec-level structural validation), a bad record is skipped
// into a typed LoadReport entry — never a crash, never a partially-decoded
// artifact — and a directory of pure garbage simply loads nothing. Leftover
// `.tmp` files are the signature of a write torn by a crash; the loader
// reports them as skipped (kTornWrite) so the operator can see the crash
// happened, and the next clean write of that key replaces them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "persist/codecs.h"
#include "persist/format.h"

namespace pipette::persist {

/// Why a snapshot file was not loaded. The taxonomy mirrors the failure
/// modes a crash or bit rot can produce; every reason is recoverable — the
/// artifact recomputes on its next request.
enum class SkipReason {
  kTornWrite = 0,    ///< a `.tmp` leftover: the writer died mid-record
  kIoError,          ///< the file could not be opened or read
  kBadMagic,         ///< not a snapshot record at all
  kVersionMismatch,  ///< written by a different format version
  kTruncated,        ///< header or payload shorter than declared
  kCrcMismatch,      ///< payload bytes differ from what was written
  kDecodeError,      ///< bytes verified but not a valid artifact
  kForeignFile,      ///< unrecognized name; never touched, reported only
};

const char* to_string(SkipReason r);

struct SkippedRecord {
  std::string file;  ///< basename within the snapshot directory
  SkipReason reason = SkipReason::kDecodeError;
  std::string detail;  ///< the DecodeError / errno message
};

/// The typed outcome of ClusterCache::load(): what warmed the cache, what was
/// skipped and why. load() always returns one of these — corruption shows up
/// here, never as an exception or a crash.
struct LoadReport {
  bool attempted = false;  ///< directory existed and was scanned
  int scanned = 0;         ///< files considered (snap + tmp)
  int loaded_profiles = 0;
  int loaded_estimators = 0;
  std::vector<SkippedRecord> skipped;

  int loaded() const { return loaded_profiles + loaded_estimators; }
  int skipped_count() const { return static_cast<int>(skipped.size()); }
  bool clean() const { return skipped.empty(); }
  /// One-line human summary ("loaded 3 (2 profiles, ...), skipped 1").
  std::string str() const;
  /// Structured JSON (the crash-recovery CI uploads this as an artifact).
  std::string json() const;
};

/// Decoded artifacts a load pass hands back, one callback per clean record.
struct LoadSinks {
  std::function<void(std::uint64_t key, std::shared_ptr<const cluster::ProfileResult>)> profile;
  std::function<void(std::uint64_t key, std::shared_ptr<const estimators::MlpMemoryEstimator>)>
      memory;
};

/// File basename for a record ("profile-00000000deadbeef.snap").
std::string record_filename(RecordKind kind, std::uint64_t key);

/// Writes one framed record atomically into `dir` (created if missing).
/// Throws std::runtime_error on I/O failure — the persister's retry loop owns
/// that. `write_delay_s` widens the torn-write window for the crash CI.
void write_record(const std::string& dir, RecordKind kind, std::uint64_t key,
                  std::vector<unsigned char> payload, double write_delay_s = 0.0);

/// Scans `dir` and loads every verifiable record through `sinks`. Tolerates a
/// missing directory (attempted=false), unreadable files, truncation, flipped
/// bytes, version skew, and foreign files — each lands in the report, and the
/// scan continues. Deterministic: files are visited in sorted name order.
LoadReport load_directory(const std::string& dir, const LoadSinks& sinks);

}  // namespace pipette::persist
