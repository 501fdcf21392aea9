#include "persist/store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/json.h"

namespace pipette::persist {

namespace fs = std::filesystem;

const char* to_string(SkipReason r) {
  switch (r) {
    case SkipReason::kTornWrite: return "torn_write";
    case SkipReason::kIoError: return "io_error";
    case SkipReason::kBadMagic: return "bad_magic";
    case SkipReason::kVersionMismatch: return "version_mismatch";
    case SkipReason::kTruncated: return "truncated";
    case SkipReason::kCrcMismatch: return "crc_mismatch";
    case SkipReason::kDecodeError: return "decode_error";
    case SkipReason::kForeignFile: return "foreign_file";
  }
  return "unknown";
}

std::string LoadReport::str() const {
  std::string s = "loaded " + std::to_string(loaded()) + " (" + std::to_string(loaded_profiles) +
                  " profiles, " + std::to_string(loaded_estimators) + " estimators), skipped " +
                  std::to_string(skipped_count());
  if (!attempted) s += " [no snapshot directory]";
  return s;
}

std::string LoadReport::json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("attempted");
  w.value(attempted);
  w.key("scanned");
  w.value(scanned);
  w.key("loaded");
  w.begin_object();
  w.key("profiles");
  w.value(loaded_profiles);
  w.key("estimators");
  w.value(loaded_estimators);
  w.key("total");
  w.value(loaded());
  w.end_object();
  w.key("skipped");
  w.begin_array();
  for (const auto& rec : skipped) {
    w.begin_object();
    w.key("file");
    w.value(rec.file);
    w.key("reason");
    w.value(to_string(rec.reason));
    w.key("detail");
    w.value(rec.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string record_filename(RecordKind kind, std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return std::string(to_string(kind)) + "-" + buf + ".snap";
}

void write_record(const std::string& dir, RecordKind kind, std::uint64_t key,
                  std::vector<unsigned char> payload, double write_delay_s) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; the open below reports failure
  const std::string path = (fs::path(dir) / record_filename(kind, key)).string();
  write_file_atomic(path, frame_record(kind, key, std::move(payload)), write_delay_s);
}

namespace {

/// Classifies a DecodeError by its reason string — the parse/decode layers
/// throw one exception type, but the report distinguishes what a CRC caught
/// from what structural validation caught (bit rot vs version-skew bugs).
SkipReason classify(const std::string& what) {
  if (what.rfind("bad magic", 0) == 0) return SkipReason::kBadMagic;
  if (what.rfind("version mismatch", 0) == 0) return SkipReason::kVersionMismatch;
  if (what.rfind("truncated", 0) == 0) return SkipReason::kTruncated;
  if (what.rfind("crc mismatch", 0) == 0) return SkipReason::kCrcMismatch;
  return SkipReason::kDecodeError;
}

}  // namespace

LoadReport load_directory(const std::string& dir, const LoadSinks& sinks) {
  LoadReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return report;
  report.attempted = true;

  // Sorted name order: the report (and any load-order-dependent tie, though
  // keys are unique per file) is independent of directory iteration order.
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    const std::string path = (fs::path(dir) / name).string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      ++report.scanned;
      report.skipped.push_back(
          {name, SkipReason::kTornWrite, "temp file left by an interrupted write; discarded"});
      continue;
    }
    if (!name.ends_with(".snap")) {
      // Not ours; leave it alone but make it visible — an operator pointing
      // the store at the wrong directory should find out from the report.
      report.skipped.push_back({name, SkipReason::kForeignFile, "unrecognized file name"});
      continue;
    }
    ++report.scanned;
    std::vector<unsigned char> bytes;
    try {
      bytes = read_file(path);
    } catch (const std::exception& e) {
      report.skipped.push_back({name, SkipReason::kIoError, e.what()});
      continue;
    }
    try {
      const RecordView rec = parse_record(bytes);
      switch (rec.kind) {
        case RecordKind::kProfile: {
          auto profile = std::make_shared<const cluster::ProfileResult>(
              decode_profile(rec.payload, rec.payload_size));
          if (sinks.profile) sinks.profile(rec.key, std::move(profile));
          ++report.loaded_profiles;
          break;
        }
        case RecordKind::kMemory: {
          auto est = std::make_shared<const estimators::MlpMemoryEstimator>(
              decode_memory(rec.payload, rec.payload_size));
          if (sinks.memory) sinks.memory(rec.key, std::move(est));
          ++report.loaded_estimators;
          break;
        }
      }
    } catch (const DecodeError& e) {
      report.skipped.push_back({name, classify(e.what()), e.what()});
    } catch (const std::exception& e) {
      // A sink or allocator failure must degrade to a skip too: load() always
      // terminates with a report.
      report.skipped.push_back({name, SkipReason::kDecodeError, e.what()});
    }
  }
  return report;
}

}  // namespace pipette::persist
