#include "persist/format.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pipette::persist {

const char* to_string(RecordKind k) {
  switch (k) {
    case RecordKind::kProfile: return "profile";
    case RecordKind::kMemory: return "memory";
  }
  return "unknown";
}

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);  // reflected Castagnoli
    }
    t[i] = c;
  }
  return t;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const auto table = make_crc32c_table();
  return table;
}

}  // namespace

std::uint32_t crc32c(const unsigned char* data, std::size_t n, std::uint32_t crc) {
  const auto& t = crc32c_table();
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c = t[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void ByteWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void ByteWriter::i32_vec(const std::vector<int>& v) {
  u64(v.size());
  for (const int x : v) i32(x);
}

std::vector<double> ByteReader::f64_vec(std::size_t max_elems) {
  const std::uint64_t n = u64();
  // A flipped length byte must not become a multi-GB allocation: the declared
  // count is bounded both by the caller's structural limit and by the bytes
  // actually present.
  if (n > max_elems || n * sizeof(double) > remaining()) {
    throw DecodeError("vector length exceeds payload");
  }
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto& x : out) x = f64();
  return out;
}

std::vector<int> ByteReader::i32_vec(std::size_t max_elems) {
  const std::uint64_t n = u64();
  if (n > max_elems || n * sizeof(std::int32_t) > remaining()) {
    throw DecodeError("vector length exceeds payload");
  }
  std::vector<int> out(static_cast<std::size_t>(n));
  for (auto& x : out) x = i32();
  return out;
}

namespace {

/// CRC of the protected span: header bytes [12, 32) chained with the payload.
std::uint32_t record_crc(const unsigned char* header12, const unsigned char* payload,
                         std::size_t payload_size) {
  const std::uint32_t head = crc32c(header12, 20);
  return crc32c(payload, payload_size, head);
}

}  // namespace

std::vector<unsigned char> frame_record(RecordKind kind, std::uint64_t key,
                                        std::vector<unsigned char> payload) {
  ByteWriter w;
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(key);
  w.u64(payload.size());
  auto out = w.take();
  const std::uint32_t crc = record_crc(out.data() + 12, payload.data(), payload.size());
  out.insert(out.end(), reinterpret_cast<const unsigned char*>(&crc),
             reinterpret_cast<const unsigned char*>(&crc) + sizeof crc);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

RecordView parse_record(const std::vector<unsigned char>& file) {
  if (file.size() < kHeaderBytes) throw DecodeError("truncated: short header");
  ByteReader r(file.data(), kHeaderBytes);
  if (r.u64() != kMagic) throw DecodeError("bad magic");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw DecodeError("version mismatch: file v" + std::to_string(version) + ", reader v" +
                      std::to_string(kFormatVersion));
  }
  const std::uint32_t kind_raw = r.u32();
  if (kind_raw < 1 || kind_raw > static_cast<std::uint32_t>(RecordKind::kMemory)) {
    throw DecodeError("unknown record kind " + std::to_string(kind_raw));
  }
  RecordView v;
  v.kind = static_cast<RecordKind>(kind_raw);
  v.key = r.u64();
  const std::uint64_t len = r.u64();
  const std::uint32_t crc = r.u32();
  if (len != file.size() - kHeaderBytes) {
    throw DecodeError("truncated: payload length " + std::to_string(len) + ", have " +
                      std::to_string(file.size() - kHeaderBytes));
  }
  v.payload = file.data() + kHeaderBytes;
  v.payload_size = static_cast<std::size_t>(len);
  if (record_crc(file.data() + 12, v.payload, v.payload_size) != crc) {
    throw DecodeError("crc mismatch");
  }
  return v;
}

void write_file_atomic(const std::string& path, const std::vector<unsigned char>& bytes,
                       double write_delay_s) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot open " + tmp + " for writing");
  bool ok = true;
  if (write_delay_s > 0.0 && bytes.size() > 1) {
    // The crash-recovery CI kills the process inside this window, so the torn
    // bytes land in the temp file — never in a final-named record.
    const std::size_t half = bytes.size() / 2;
    ok = std::fwrite(bytes.data(), 1, half, f) == half;
    if (ok) std::fflush(f);
    std::this_thread::sleep_for(std::chrono::duration<double>(write_delay_s));
    if (ok) ok = std::fwrite(bytes.data() + half, 1, bytes.size() - half, f) == bytes.size() - half;
  } else if (!bytes.empty()) {
    ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  }
  if (ok) ok = std::fflush(f) == 0;
#ifndef _WIN32
  // Durability order: payload bytes reach the disk before the rename makes
  // them visible under the final name.
  if (ok) ok = ::fsync(::fileno(f)) == 0;
#endif
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed for " + path);
  }
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::vector<unsigned char> out;
  unsigned char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw std::runtime_error("read failed for " + path);
  return out;
}

}  // namespace pipette::persist
