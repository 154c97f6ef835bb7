// Binary state archive: the primitive layer of the snapshot subsystem.
//
// A StateWriter appends little-endian scalar fields and length-prefixed
// arrays into a flat byte buffer; a StateReader consumes the same stream
// with bounds checking on every read. Components serialize themselves
// field-by-field (never by memcpy of whole structs), so the format has no
// padding bytes and a layout change is caught by the container version,
// not by silent misreads.
//
// Error philosophy: a corrupted or truncated snapshot must never be UB.
// Every decode failure throws SnapshotError carrying the byte offset and
// an expected/found description, so "the file is bad" is diagnosable from
// the message alone.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssdk::snapshot {

/// Thrown on any malformed snapshot: bad magic, unsupported version,
/// truncated payload, checksum mismatch, or a section tag out of place.
/// `offset` is the byte position in the payload (or file) where decoding
/// failed.
// ssdk-snap: ignore-type(SnapshotError): exception type thrown by serializers, not snapshotted state
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(std::string message, std::uint64_t offset)
      : std::runtime_error(std::move(message)), offset_(offset) {}

  std::uint64_t offset() const { return offset_; }

 private:
  std::uint64_t offset_;
};

/// Appends fields to a growable byte buffer. All integers are encoded
/// little-endian regardless of host order; doubles are encoded via their
/// IEEE-754 bit pattern.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// 4-character section tag; the reader checks it by name, which turns a
  /// desynchronized stream into a descriptive error instead of garbage.
  void tag(const char (&name)[5]) { bytes(name, 4); }

  /// Appended one byte at a time: GCC 12 flags the equivalent range
  /// insert with a false -Wstringop-overflow once it is inlined into a
  /// -fsanitize=thread build.
  void bytes(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    for (std::size_t i = 0; i < n; ++i) buf_.push_back(p[i]);
  }

  /// Length-prefixed vector of uint64 values.
  void vec_u64(std::span<const std::uint64_t> v) {
    u64(v.size());
    for (const auto x : v) u64(x);
  }
  void vec_u32(std::span<const std::uint32_t> v) {
    u64(v.size());
    for (const auto x : v) u32(x);
  }
  void vec_f64(std::span<const double> v) {
    u64(v.size());
    for (const auto x : v) f64(x);
  }

  const std::vector<char>& buffer() const { return buf_; }
  std::vector<char> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::vector<char> buf_;
};

/// Consumes a byte buffer produced by StateWriter. Every read is bounds
/// checked; running past the end throws SnapshotError with the offset,
/// the number of bytes needed and the number available.
class StateReader {
 public:
  explicit StateReader(std::span<const char> data) : data_(data) {}

  std::uint8_t u8() {
    require(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return get_le<std::uint16_t>("u16"); }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>("i64"));
  }
  double f64() {
    const std::uint64_t bits = get_le<std::uint64_t>("f64");
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw SnapshotError("snapshot: invalid bool at offset " +
                              std::to_string(pos_ - 1) + ": expected 0|1, found " +
                              std::to_string(v),
                          pos_ - 1);
    }
    return v != 0;
  }

  /// Check a 4-character section tag; mismatch names both tags.
  void tag(const char (&name)[5]) {
    const std::uint64_t at = pos_;
    require(4, name);
    if (std::memcmp(data_.data() + pos_, name, 4) != 0) {
      const std::string found(data_.data() + pos_, 4);
      throw SnapshotError("snapshot: section tag mismatch at offset " +
                              std::to_string(at) + ": expected '" + name +
                              "', found '" + printable(found) + "'",
                          at);
    }
    pos_ += 4;
  }

  void bytes(void* out, std::size_t n) {
    require(n, "bytes");
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t n = checked_count(sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t n = checked_count(sizeof(std::uint32_t));
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = u32();
    return v;
  }
  std::vector<double> vec_f64() {
    const std::uint64_t n = checked_count(sizeof(double));
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }

  std::uint64_t offset() const { return pos_; }
  std::uint64_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  /// Escape non-printable bytes for error messages.
  static std::string printable(const std::string& s);

  /// Length prefix whose payload must fit in the remaining bytes — rejects
  /// absurd counts from corrupted streams before any allocation.
  std::uint64_t checked_count(std::size_t element_size) {
    const std::uint64_t at = pos_;
    const std::uint64_t n = u64();
    if (element_size != 0 && n > remaining() / element_size) {
      throw SnapshotError(
          "snapshot: implausible element count at offset " +
              std::to_string(at) + ": " + std::to_string(n) + " x " +
              std::to_string(element_size) + " bytes, only " +
              std::to_string(remaining()) + " bytes remain",
          at);
    }
    return n;
  }

 private:
  void require(std::size_t n, const char* what) const {
    if (data_.size() - pos_ < n) {
      throw SnapshotError("snapshot: truncated at offset " +
                              std::to_string(pos_) + ": reading " + what +
                              " needs " + std::to_string(n) + " bytes, " +
                              std::to_string(data_.size() - pos_) +
                              " available",
                          pos_);
    }
  }

  template <typename T>
  T get_le(const char* what) {
    require(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      // The cast back to T: a u16 operand is promoted to int.
      v = static_cast<T>(
          v | static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
                  << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const char> data_;
  std::uint64_t pos_ = 0;
};

// --- SSDKSNP1 file container -------------------------------------------------
//
// Layout: 8-byte magic "SSDKSNP1", u32 format version, u32 payload kind,
// u64 payload size, u64 FNV-1a checksum of the payload, then the payload.
// The checksum catches silent mid-file corruption that field-level bounds
// checks would misread as valid data.

inline constexpr char kSnapshotMagic[8] = {'S', 'S', 'D', 'K',
                                           'S', 'N', 'P', '1'};
// Version 2: OPTS carries the power model; campaign samples carry
// per-strategy objective scores. Version 3: the device's CHNL and UNIT
// sections drop the derived queued-write count and front-write seq.
// Version 4: BLKM stores opened blocks only, with owners for valid pages.
// Version 5: L2PM stores 4-byte entries in whole 1024-entry spans.
// Version 6: SCHD has one layout for every policy, a lane per tenant id.
// Version 7: each device record is written once, at the width the device
// holds it: OPSL lists the free slots as u32 ids and writes only the slots
// in use; op queues hold u32 ids; REQS writes its tallies as their own
// list; WBUF drops the map's insertion seqs; OPTS drops the DRR quantum.
// Version 8: the FTL writes no derived field: L2PM drops each tenant's
// mapped count, BLKM the retired count, each block's valid count and each
// plane's open block and free list.
inline constexpr std::uint32_t kSnapshotVersion = 8;

enum class PayloadKind : std::uint32_t {
  kDevice = 1,    ///< full SSD device state
  kCampaign = 2,  ///< dataset-generation campaign progress
};

std::uint64_t fnv1a(std::span<const char> data);

/// Write magic + header + payload to `os`.
void write_container(std::ostream& os, PayloadKind kind,
                     std::span<const char> payload);
void write_container_file(const std::string& path, PayloadKind kind,
                          std::span<const char> payload);

/// Read and validate a container; returns the payload. Throws
/// SnapshotError (with file offset and expected/found details) on bad
/// magic, unsupported version, wrong payload kind, truncation or checksum
/// mismatch.
std::vector<char> read_container(std::istream& in, PayloadKind expected);
std::vector<char> read_container_file(const std::string& path,
                                      PayloadKind expected);

}  // namespace ssdk::snapshot
