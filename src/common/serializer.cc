#include "common/serializer.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace pacman {

namespace {

// Doubles with |d| <= 2^53 that hold an integer convert to int64 and back
// exactly.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;
constexpr double kMaxExactInteger = static_cast<double>(kMaxExactInt);

bool IsIntegralDouble(double d) {
  return d >= -kMaxExactInteger && d <= kMaxExactInteger &&
         static_cast<double>(static_cast<int64_t>(d)) == d &&
         !(d == 0.0 && std::signbit(d));
}

}  // namespace

size_t CompactValueBytes(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
      return 1 + VarintBytes(ZigzagEncode(v.AsInt64()));
    case ValueType::kDouble:
      return IsIntegralDouble(v.AsDouble())
                 ? 1 + VarintBytes(ZigzagEncode(
                           static_cast<int64_t>(v.AsDouble())))
                 : 1 + sizeof(double);
    case ValueType::kString: {
      const size_t n = v.AsStringView().size();
      return 1 + VarintBytes(n) + n;
    }
  }
  return 1;
}

size_t CompactRowBytes(const Row& row) {
  size_t n = VarintBytes(row.size());
  for (const Value& v : row) n += CompactValueBytes(v);
  return n;
}

namespace {

template <typename T>
uint8_t* PutFixed(uint8_t* out, T v) {
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

template <typename T>
T GetFixed(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// LEB128 into caller-owned memory (Serializer::PutVarint's encoding).
uint8_t* EncodeVarint(uint64_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

uint8_t* EncodeCompactValue(const Value& v, uint8_t* out) {
  switch (v.type()) {
    case ValueType::kNull:
      *out++ = static_cast<uint8_t>(ValueType::kNull);
      return out;
    case ValueType::kInt64:
      *out++ = static_cast<uint8_t>(ValueType::kInt64);
      return EncodeVarint(ZigzagEncode(v.AsInt64()), out);
    case ValueType::kDouble:
      if (IsIntegralDouble(v.AsDouble())) {
        *out++ = kCompactIntegralDouble;
        return EncodeVarint(
            ZigzagEncode(static_cast<int64_t>(v.AsDouble())), out);
      }
      *out++ = static_cast<uint8_t>(ValueType::kDouble);
      return PutFixed(out, v.AsDouble());
    case ValueType::kString: {
      const std::string_view sv = v.AsStringView();
      *out++ = static_cast<uint8_t>(ValueType::kString);
      out = EncodeVarint(sv.size(), out);
      std::memcpy(out, sv.data(), sv.size());
      return out + sv.size();
    }
  }
  return out;
}

// Decodes the LEB128 varint at *p, which must end before `end`, advancing
// *p past each byte it reads. Returns null, or why the bytes are no
// varint: unterminated, or longer than its minimal encoding (or than 64
// bits). Deserializer::GetVarint and CheckCompactRow share these rules.
const char* DecodeVarint(const uint8_t** p, const uint8_t* end,
                         uint64_t* out) {
  if (*p != end && **p < 0x80) {  // One-byte fast path.
    *out = *(*p)++;
    return nullptr;
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p == end) return "unterminated varint";
    const uint8_t b = *(*p)++;
    // The tenth byte holds only bit 63.
    if (shift == 63 && b > 1) return "overlong varint";
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // A zero final group after the first byte encodes nothing: the
      // value had a shorter encoding.
      if (b == 0 && shift > 0) return "overlong varint";
      *out = v;
      return nullptr;
    }
  }
  return "overlong varint";
}

// Readers of well-formed compact bytes (EncodeCompactRow wrote them or
// CheckCompactRow accepted them), so nothing is bounds-checked again.
const uint8_t* ReadCheckedVarint(const uint8_t* p, uint64_t* v) {
  uint64_t x = 0;
  int shift = 0;
  for (; *p >= 0x80; shift += 7) {
    x |= static_cast<uint64_t>(*p++ & 0x7f) << shift;
  }
  *v = x | static_cast<uint64_t>(*p++) << shift;
  return p;
}

// Sources for DecodeCompactValue's copy-assignments: copy-assigning a
// non-string clears the destination's type but keeps its string capacity
// (Value::operator=), and copy-assigning a view materializes the bytes in
// the destination's own string, reusing that capacity. So a VM register or
// row slot that once held a string never reallocates for it again.
const Value kNullValue;

// Decodes the value at `p` into *v; returns the byte past it.
const uint8_t* DecodeCompactValue(const uint8_t* p, Value* v) {
  uint64_t u = 0;
  switch (*p++) {
    case static_cast<uint8_t>(ValueType::kNull):
      *v = kNullValue;
      return p;
    case static_cast<uint8_t>(ValueType::kInt64): {
      p = ReadCheckedVarint(p, &u);
      const Value number(ZigzagDecode(u));
      *v = number;
      return p;
    }
    case static_cast<uint8_t>(ValueType::kDouble): {
      const Value number(GetFixed<double>(p));
      *v = number;
      return p + sizeof(double);
    }
    case kCompactIntegralDouble: {
      p = ReadCheckedVarint(p, &u);
      const Value number(static_cast<double>(ZigzagDecode(u)));
      *v = number;
      return p;
    }
    case static_cast<uint8_t>(ValueType::kString): {
      p = ReadCheckedVarint(p, &u);
      const Value view = Value::BorrowedString(
          std::string_view(reinterpret_cast<const char*>(p), u));
      *v = view;
      return p + u;
    }
  }
  PACMAN_DCHECK(false);
  return p;
}

// The byte past the value at `p`.
const uint8_t* SkipCompactValue(const uint8_t* p) {
  uint64_t u = 0;
  switch (*p++) {
    case static_cast<uint8_t>(ValueType::kNull):
      return p;
    case static_cast<uint8_t>(ValueType::kDouble):
      return p + sizeof(double);
    case static_cast<uint8_t>(ValueType::kString):
      p = ReadCheckedVarint(p, &u);
      return p + u;
    default:  // An int64 or an integral double: one varint.
      return ReadCheckedVarint(p, &u);
  }
}

}  // namespace

uint8_t* EncodeCompactRow(const Row& row, uint8_t* out) {
  out = EncodeVarint(row.size(), out);
  for (const Value& v : row) out = EncodeCompactValue(v, out);
  return out;
}

Status CheckCompactRow(const uint8_t* p, size_t avail, size_t* size) {
  // A walk over raw bytes, building no Value and no Status per value:
  // restore and replay check every row they copy.
  const uint8_t* const end = p + avail;
  const uint8_t* q = p;
  uint64_t n = 0;
  const char* error = DecodeVarint(&q, end, &n);
  // Every compact value takes at least its tag byte.
  if (error == nullptr && n > static_cast<size_t>(end - q)) {
    error = "row length too large";
  }
  for (; error == nullptr && n > 0; --n) {
    if (q == end) {
      error = "serializer underflow";
      break;
    }
    uint64_t u = 0;
    switch (*q++) {
      case static_cast<uint8_t>(ValueType::kNull):
        break;
      case static_cast<uint8_t>(ValueType::kInt64):
        error = DecodeVarint(&q, end, &u);
        break;
      case static_cast<uint8_t>(ValueType::kDouble):
        if (static_cast<size_t>(end - q) < sizeof(double)) {
          error = "serializer underflow";
        } else {
          q += sizeof(double);
        }
        break;
      case kCompactIntegralDouble: {
        error = DecodeVarint(&q, end, &u);
        const int64_t v = ZigzagDecode(u);
        if (error == nullptr && (v < -kMaxExactInt || v > kMaxExactInt)) {
          error = "integral double out of range";
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kString):
        error = DecodeVarint(&q, end, &u);
        if (error == nullptr && u > static_cast<size_t>(end - q)) {
          error = "string underflow";
        }
        q += error == nullptr ? u : 0;
        break;
      default:
        error = "bad value tag";
    }
  }
  if (error != nullptr) return Status::Corruption(error);
  *size = static_cast<size_t>(q - p);
  return Status::Ok();
}

size_t CompactRowSize(const uint8_t* p) {
  uint64_t n = 0;
  const uint8_t* q = ReadCheckedVarint(p, &n);
  for (; n > 0; --n) q = SkipCompactValue(q);
  return static_cast<size_t>(q - p);
}

void DecodeCompactRow(const uint8_t* p, Row* out) {
  uint64_t n = 0;
  p = ReadCheckedVarint(p, &n);
  out->resize(n);
  for (Value& v : *out) p = DecodeCompactValue(p, &v);
}

void DecodeCompactField(const uint8_t* p, size_t col, Value* out) {
  uint64_t n = 0;
  p = ReadCheckedVarint(p, &n);
  if (col >= n) {
    *out = kNullValue;
    return;
  }
  for (; col > 0; --col) p = SkipCompactValue(p);
  DecodeCompactValue(p, out);
}

void Serializer::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64:
      PutI64(v.AsInt64());
      return;
    case ValueType::kDouble:
      PutDouble(v.AsDouble());
      return;
    case ValueType::kString:
      PutString(v.AsStringView());
      return;
  }
}

void Serializer::PutCompactValue(const Value& v) {
  const size_t at = buf_.size();
  buf_.resize(at + CompactValueBytes(v));
  EncodeCompactValue(v, buf_.data() + at);
}

Status Deserializer::GetString(std::string* out) {
  std::string_view sv;
  Status s = GetStringView(&sv);
  if (!s.ok()) return s;
  out->assign(sv.data(), sv.size());
  return Status::Ok();
}

Status Deserializer::GetStringView(std::string_view* out) {
  uint32_t n = 0;
  Status s = GetU32(&n);
  if (!s.ok()) return s;
  return GetStringBytes(n, out);
}

Status Deserializer::GetStringBytes(size_t n, std::string_view* out) {
  if (n > size_ - pos_) return Status::Corruption("string underflow");
  *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return Status::Ok();
}

Status Deserializer::GetVarintSlow(uint64_t* out) {
  const uint8_t* p = data_ + pos_;
  const char* error = DecodeVarint(&p, data_ + size_, out);
  pos_ = static_cast<size_t>(p - data_);
  return error == nullptr ? Status::Ok() : Status::Corruption(error);
}

Status Deserializer::GetVarint32(uint32_t* out) {
  uint64_t v = 0;
  Status s = GetVarint(&v);
  if (!s.ok()) return s;
  if (v > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("varint exceeds 32 bits");
  }
  *out = static_cast<uint32_t>(v);
  return Status::Ok();
}

Status Deserializer::GetValue(Value* out) {
  uint8_t tag = 0;
  Status s = GetU8(&tag);
  if (!s.ok()) return s;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::Ok();
    case ValueType::kInt64: {
      int64_t v = 0;
      s = GetI64(&v);
      if (!s.ok()) return s;
      *out = Value(v);
      return Status::Ok();
    }
    case ValueType::kDouble: {
      double v = 0;
      s = GetDouble(&v);
      if (!s.ok()) return s;
      *out = Value(v);
      return Status::Ok();
    }
    case ValueType::kString: {
      std::string_view sv;
      s = GetStringView(&sv);
      if (!s.ok()) return s;
      *out = borrow_strings_ ? Value::BorrowedString(sv)
                             : Value(std::string(sv));
      return Status::Ok();
    }
  }
  return Status::Corruption("bad value tag");
}

Status Deserializer::GetCompactValue(Value* out) {
  uint8_t tag = 0;
  Status s = GetU8(&tag);
  if (!s.ok()) return s;
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      *out = Value::Null();
      return Status::Ok();
    case static_cast<uint8_t>(ValueType::kInt64): {
      int64_t v = 0;
      s = GetSignedVarint(&v);
      if (!s.ok()) return s;
      *out = Value(v);
      return Status::Ok();
    }
    case static_cast<uint8_t>(ValueType::kDouble): {
      double v = 0;
      s = GetDouble(&v);
      if (!s.ok()) return s;
      *out = Value(v);
      return Status::Ok();
    }
    case kCompactIntegralDouble: {
      int64_t v = 0;
      s = GetSignedVarint(&v);
      if (!s.ok()) return s;
      if (v < -kMaxExactInt || v > kMaxExactInt) {
        return Status::Corruption("integral double out of range");
      }
      *out = Value(static_cast<double>(v));
      return Status::Ok();
    }
    case static_cast<uint8_t>(ValueType::kString): {
      uint64_t n = 0;
      s = GetVarint(&n);
      if (!s.ok()) return s;
      std::string_view sv;
      s = GetStringBytes(n, &sv);
      if (!s.ok()) return s;
      *out = borrow_strings_ ? Value::BorrowedString(sv)
                             : Value(std::string(sv));
      return Status::Ok();
    }
  }
  return Status::Corruption("bad value tag");
}

}  // namespace pacman
