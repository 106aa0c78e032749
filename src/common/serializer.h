// Copyright (c) 2026 The PACMAN reproduction authors.
// Byte-oriented serialization used by the log record formats, the
// checkpointer and the wire protocol. Two encodings share this file:
//
//  - Compact (PutVarint/PutCompactValue/EncodeCompactRow): LEB128 varints,
//    zigzag for signed values. It is the engine's one row encoding: table
//    versions hold their rows in it (storage/tuple.h), and log batch
//    format v4 and checkpoint stripes copy those bytes as they are. A
//    compact value is a ValueType tag, then: nothing (null); a zigzag
//    varint (int64); a varint length and the bytes (string); 8 raw bytes
//    (double), or, for a double holding an exact integer within +-2^53
//    that is not -0.0, a zigzag varint under kCompactIntegralDouble.
//    Readers accept only minimal varints.
//  - Fixed width (PutU32/PutU64/PutValue...): little-endian integers,
//    u32 length-prefixed strings. File headers, the checkpoint meta and
//    the wire protocol (docs/PROTOCOL.md) use it.
#ifndef PACMAN_COMMON_SERIALIZER_H_
#define PACMAN_COMMON_SERIALIZER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace pacman {

// The compact-value tag of a double stored as a zigzag varint.
inline constexpr uint8_t kCompactIntegralDouble = 4;

// Zigzag maps small magnitudes of either sign to small unsigned values.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

// The bytes Serializer::PutVarint / PutCompactValue / EncodeCompactRow
// write, computed without writing, so log blocks are sized exactly
// before they are built.
inline size_t VarintBytes(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}
size_t CompactValueBytes(const Value& v);
size_t CompactRowBytes(const Row& row);

// --- Compact rows in caller-owned memory ----------------------------------
// A varint value count, then the compact values. Every value keeps its
// tag, so a row round-trips bit for bit whatever its schema says (Null,
// -0.0, NaN payloads, an int64 in a double column). A table version holds
// its row in these bytes, and a parsed log image or checkpoint record is a
// view of them in its file, checked in place and never decoded into a Row
// on the way to a version.

// Writes `row` compact at `out` (CompactRowBytes(row) bytes); returns the
// end of what it wrote.
uint8_t* EncodeCompactRow(const Row& row, uint8_t* out);
// Checks the compact row that starts at `p` and must end within `avail`
// bytes by the rules Deserializer::GetCompactValue reads values with:
// minimal varints, known tags, integral doubles within +-2^53, a value
// count the bytes can hold and no string past the end. Sets *size to its
// bytes; kCorruption otherwise.
Status CheckCompactRow(const uint8_t* p, size_t avail, size_t* size);
// The bytes of the well-formed compact row at `p`: one EncodeCompactRow
// wrote, or one CheckCompactRow accepted.
size_t CompactRowSize(const uint8_t* p);
// Decodes the well-formed compact row at `p` into *out, reusing the
// capacity of its values; string bytes are copied, never borrowed.
void DecodeCompactRow(const uint8_t* p, Row* out);
// Decodes column `col` of the well-formed compact row at `p` into *out,
// reusing its string capacity; Null when the row has no such column.
// Walks the values before `col` without decoding them.
void DecodeCompactField(const uint8_t* p, size_t col, Value* out);

// Appends primitive values to a growable byte buffer.
class Serializer {
 public:
  Serializer() = default;
  explicit Serializer(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutValue(const Value& v);

  // LEB128: seven bits per byte, low group first, high bit = "more".
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutSignedVarint(int64_t v) { PutVarint(ZigzagEncode(v)); }
  void PutCompactValue(const Value& v);

  void PutRaw(const void* data, size_t n) {
    if (n == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Reads primitives back out of a byte span. All getters return
// kCorruption on underflow so log-replay can reject truncated batches.
//
// With set_borrow_strings(true), string payloads are returned as
// Value::BorrowedString views over the input span instead of per-field
// copies — the zero-copy mode of batch deserialization, in which log
// records also view their image rows in the span (logging/log_record.h).
// The caller then owns keeping the span alive for as long as the parsed
// values live (logging::LogBatch retains its file buffer for exactly this
// reason).
class Deserializer {
 public:
  Deserializer(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit Deserializer(const std::vector<uint8_t>& buf)
      : Deserializer(buf.data(), buf.size()) {}

  void set_borrow_strings(bool borrow) { borrow_strings_ = borrow; }
  bool borrow_strings() const { return borrow_strings_; }

  Status GetU8(uint8_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetI64(int64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }
  Status GetString(std::string* out);
  // Zero-copy: a view over this deserializer's span (valid while the
  // underlying buffer lives, independent of further Get calls).
  Status GetStringView(std::string_view* out);
  Status GetValue(Value* out);

  // Compact-encoding readers. A varint that runs past the span is
  // unterminated, one longer than its minimal encoding (or than 64 bits)
  // is overlong; both are kCorruption.
  Status GetVarint(uint64_t* out) {
    if (pos_ < size_ && data_[pos_] < 0x80) {  // One-byte fast path.
      *out = data_[pos_++];
      return Status::Ok();
    }
    return GetVarintSlow(out);
  }
  // A varint that must fit 32 bits (table and proc ids).
  Status GetVarint32(uint32_t* out);
  Status GetSignedVarint(int64_t* out) {
    uint64_t u = 0;
    Status s = GetVarint(&u);
    if (!s.ok()) return s;
    *out = ZigzagDecode(u);
    return Status::Ok();
  }
  Status GetCompactValue(Value* out);

  // Advances past `n` bytes without reading them.
  Status Skip(size_t n) {
    if (n > size_ - pos_) return Status::Corruption("serializer underflow");
    pos_ += n;
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  // The next unread byte, for callers that check a span in place.
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  Status GetVarintSlow(uint64_t* out);
  // Reads a `n`-byte string payload as a view over the span.
  Status GetStringBytes(size_t n, std::string_view* out);
  Status GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("serializer underflow");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
  bool borrow_strings_ = false;
};

}  // namespace pacman

#endif  // PACMAN_COMMON_SERIALIZER_H_
