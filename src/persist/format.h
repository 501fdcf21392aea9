// On-disk snapshot framing — the trust boundary of the persistent cache tier.
// Everything above this layer (codecs, the store, ClusterCache::load) may
// assume that a payload handed to it was written by this code at this format
// version and arrived bit-exact; everything below assumes nothing: a snapshot
// file is hostile input until the magic, version, declared length, and CRC32C
// all check out. Decoding never crashes on bad bytes — it throws DecodeError,
// which the store converts into a typed LoadReport skip.
//
// One record per file:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic "PPTSNAP\0"
//        8     4  format version (little-endian u32; readers accept == only)
//       12     4  record kind (persist::RecordKind)
//       16     8  record key (the ClusterCache profile/memory key)
//       24     8  payload length in bytes
//       32     4  CRC32C of bytes [12, 32) + the payload (Castagnoli)
//       36     -  payload (codec-defined, see persist/codecs.h)
//
// The CRC covers the kind, key, and length fields as well as the payload — a
// flipped bit in the key must not deliver an otherwise-valid artifact under
// the wrong cache slot. Magic and version sit outside it (they are validated
// by direct comparison, and version must be checkable before trusting
// anything else about the layout). A torn write can therefore be classified:
// short header -> truncated, length field promising more bytes than the file
// holds -> truncated, bytes present but CRC wrong -> corrupt. Writers never
// expose partial records: they write to `<name>.tmp`, fsync, and rename into
// place, so a crash leaves at worst a stale temp file the loader discards
// (and reports) by name.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipette::persist {

/// Thrown by readers/codecs on any structural violation of a snapshot byte
/// stream. Always caught at the record boundary (SnapshotStore::load) and
/// converted to a LoadReport entry — it must never escape to a caller.
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kMagic = 0x0050414e53545050ull;  // "PPTSNAP\0" LE
/// Bumped whenever a payload layout changes: records of any other version
/// load as version_mismatch skips.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderBytes = 36;

/// What a snapshot record holds. Values are part of the on-disk format:
/// never renumber, only append. Value 3 held a compute-shape cache, which is
/// no longer cached; it is retired and never reused, so a `compute-*.snap`
/// written before then loads as an "unknown record kind 3" decode_error skip.
enum class RecordKind : std::uint32_t {
  kProfile = 1,  ///< cluster::ProfileResult under ClusterCache::profile_key
  kMemory = 2,   ///< estimators::MlpMemoryEstimator under memory_key
};

const char* to_string(RecordKind k);

/// CRC32C (Castagnoli polynomial, the iSCSI/ext4 checksum) over `n` bytes.
/// Software sliced-by-one table: records are small (a 1024-GPU profile is
/// 196,704 bytes, a 4×200 estimator about 1 MB) and are written off the hot
/// path, so portability beats SSE4.2 here. Pass a previous return value as `crc` to chain spans.
std::uint32_t crc32c(const unsigned char* data, std::size_t n, std::uint32_t crc = 0);

/// Little-endian append-only byte sink for codec payloads. All integers are
/// fixed-width little-endian; doubles are IEEE-754 bit patterns — the same
/// bytes on every platform this repo targets, which is what makes snapshot
/// round-trips bit-identical.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void bytes(const unsigned char* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }
  /// Length-prefixed vector of doubles (u64 count, then raw IEEE bits).
  void f64_vec(const std::vector<double>& v);
  /// Length-prefixed vector of i32.
  void i32_vec(const std::vector<int>& v);

  const std::vector<unsigned char>& data() const { return buf_; }
  std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  // resize + memcpy rather than insert: GCC 12 misreads an insert into a
  // freshly constructed vector as an overflow (-Wstringop-overflow).
  void append(const void* p, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<unsigned char> buf_;
};

/// Bounds-checked little-endian reader over a payload span. Every read that
/// would run past the end throws DecodeError — a truncated or lying length
/// field can never walk off the buffer.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t n) : p_(data), end_(data + n) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return take<std::int32_t>(); }
  std::int64_t i64() { return take<std::int64_t>(); }
  double f64() { return take<double>(); }
  std::vector<double> f64_vec(std::size_t max_elems);
  std::vector<int> i32_vec(std::size_t max_elems);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  /// Decoders call this last: trailing garbage means the payload is not what
  /// the codec wrote, even if everything parsed so far looked sane.
  void expect_end() const {
    if (p_ != end_) throw DecodeError("trailing bytes after payload");
  }

 private:
  template <typename T>
  T take() {
    if (remaining() < sizeof(T)) throw DecodeError("payload truncated");
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  const unsigned char* p_;
  const unsigned char* end_;
};

/// Frames `payload` into a full record file image (header + CRC + payload).
std::vector<unsigned char> frame_record(RecordKind kind, std::uint64_t key,
                                        std::vector<unsigned char> payload);

/// Parsed-and-verified view of a record file image. `payload` points into the
/// caller's buffer (no copy); valid while that buffer lives.
struct RecordView {
  RecordKind kind = RecordKind::kProfile;
  std::uint64_t key = 0;
  const unsigned char* payload = nullptr;
  std::size_t payload_size = 0;
};

/// Validates magic, version, kind, length, and CRC; throws DecodeError with a
/// reason string ("bad magic", "version mismatch", "truncated", "crc
/// mismatch", "unknown record kind") on any violation.
RecordView parse_record(const std::vector<unsigned char>& file);

/// Atomically replaces `path` with `bytes`: writes `path + ".tmp"`, fsyncs,
/// then renames over `path`. Throws std::runtime_error on I/O failure (the
/// persister retries those with backoff). `write_delay_s` > 0 splits the
/// payload write in two and sleeps in between — a deliberately widened torn-
/// write window for the crash-recovery CI job; 0 in production.
void write_file_atomic(const std::string& path, const std::vector<unsigned char>& bytes,
                       double write_delay_s = 0.0);

/// Reads a whole file; throws std::runtime_error when it cannot be opened or
/// read (distinct from DecodeError: an unreadable file is an I/O problem, a
/// readable one with bad bytes is a corruption problem).
std::vector<unsigned char> read_file(const std::string& path);

}  // namespace pipette::persist
