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

size_t FixedValueBytes(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1 + sizeof(int64_t);
    case ValueType::kString:
      return 1 + sizeof(uint32_t) + v.AsStringView().size();
  }
  return 1;
}

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

uint8_t* EncodeFixedValue(const Value& v, uint8_t* out) {
  *out++ = static_cast<uint8_t>(v.type());
  switch (v.type()) {
    case ValueType::kNull:
      return out;
    case ValueType::kInt64:
      return PutFixed(out, v.AsInt64());
    case ValueType::kDouble:
      return PutFixed(out, v.AsDouble());
    case ValueType::kString: {
      const std::string_view sv = v.AsStringView();
      out = PutFixed(out, static_cast<uint32_t>(sv.size()));
      std::memcpy(out, sv.data(), sv.size());
      return out + sv.size();
    }
  }
  return out;
}

}  // namespace

size_t FixedRowBytes(const Row& row) {
  size_t n = sizeof(uint32_t);
  for (const Value& v : row) n += FixedValueBytes(v);
  return n;
}

uint8_t* EncodeFixedRow(const Row& row, uint8_t* out) {
  out = PutFixed(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) out = EncodeFixedValue(v, out);
  return out;
}

namespace {

// Sources for DecodeFixedValue's copy-assignments: copy-assigning a
// non-string clears the destination's type but keeps its string capacity
// (Value::operator=), and copy-assigning a view materializes the bytes in
// the destination's own string, reusing that capacity. So a VM register or
// row slot that once held a string never reallocates for it again.
const Value kNullValue;

// Decodes the value at `p` into *v; returns the byte past it.
const uint8_t* DecodeFixedValue(const uint8_t* p, Value* v) {
  switch (static_cast<ValueType>(*p++)) {
    case ValueType::kNull:
      *v = kNullValue;
      return p;
    case ValueType::kInt64: {
      const Value number(GetFixed<int64_t>(p));
      *v = number;
      return p + sizeof(int64_t);
    }
    case ValueType::kDouble: {
      const Value number(GetFixed<double>(p));
      *v = number;
      return p + sizeof(double);
    }
    case ValueType::kString: {
      const uint32_t n = GetFixed<uint32_t>(p);
      p += sizeof(uint32_t);
      const Value view = Value::BorrowedString(
          std::string_view(reinterpret_cast<const char*>(p), n));
      *v = view;
      return p + n;
    }
  }
  return p;
}

// The byte past the value at `p`.
const uint8_t* SkipFixedValue(const uint8_t* p) {
  switch (static_cast<ValueType>(*p++)) {
    case ValueType::kNull:
      return p;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return p + sizeof(int64_t);
    case ValueType::kString:
      return p + sizeof(uint32_t) + GetFixed<uint32_t>(p);
  }
  return p;
}

}  // namespace

void DecodeFixedRow(const uint8_t* p, Row* out) {
  out->resize(GetFixed<uint32_t>(p));
  p += sizeof(uint32_t);
  for (Value& v : *out) p = DecodeFixedValue(p, &v);
}

void DecodeFixedField(const uint8_t* p, size_t col, Value* out) {
  if (col >= GetFixed<uint32_t>(p)) {
    *out = kNullValue;
    return;
  }
  p += sizeof(uint32_t);
  for (; col > 0; --col) p = SkipFixedValue(p);
  DecodeFixedValue(p, out);
}

Status CheckFixedRow(const uint8_t* p, size_t avail, size_t* size) {
  size_t pos = sizeof(uint32_t);
  if (avail < pos) return Status::Corruption("row cut in its value count");
  for (uint32_t n = GetFixed<uint32_t>(p); n > 0; --n) {
    if (pos == avail) return Status::Corruption("row cut before a value");
    const uint8_t tag = p[pos++];
    size_t payload = 0;
    switch (tag) {
      case static_cast<uint8_t>(ValueType::kNull):
        break;
      case static_cast<uint8_t>(ValueType::kInt64):
      case static_cast<uint8_t>(ValueType::kDouble):
        payload = sizeof(int64_t);
        break;
      case static_cast<uint8_t>(ValueType::kString):
        if (avail - pos < sizeof(uint32_t)) {
          return Status::Corruption("row cut in a string length");
        }
        payload = sizeof(uint32_t) + GetFixed<uint32_t>(p + pos);
        break;
      default:
        return Status::Corruption("bad value tag " + std::to_string(tag) +
                                  " in row");
    }
    if (avail - pos < payload) {
      return Status::Corruption("row cut in a value");
    }
    pos += payload;
  }
  *size = pos;
  return Status::Ok();
}

size_t FixedRowSize(const uint8_t* p) {
  size_t size = 0;
  const Status s =
      CheckFixedRow(p, std::numeric_limits<size_t>::max(), &size);
  PACMAN_DCHECK(s.ok());
  (void)s;
  return size;
}

void Serializer::PutValue(const Value& v) {
  const size_t at = buf_.size();
  buf_.resize(at + FixedValueBytes(v));
  EncodeFixedValue(v, buf_.data() + at);
}

void Serializer::PutRow(const Row& row) {
  const size_t at = buf_.size();
  buf_.resize(at + FixedRowBytes(row));
  EncodeFixedRow(row, buf_.data() + at);
}

void Serializer::PutCompactValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      PutU8(static_cast<uint8_t>(ValueType::kNull));
      break;
    case ValueType::kInt64:
      PutU8(static_cast<uint8_t>(ValueType::kInt64));
      PutSignedVarint(v.AsInt64());
      break;
    case ValueType::kDouble:
      if (IsIntegralDouble(v.AsDouble())) {
        PutU8(kCompactIntegralDouble);
        PutSignedVarint(static_cast<int64_t>(v.AsDouble()));
      } else {
        PutU8(static_cast<uint8_t>(ValueType::kDouble));
        PutDouble(v.AsDouble());
      }
      break;
    case ValueType::kString: {
      const std::string_view sv = v.AsStringView();
      PutU8(static_cast<uint8_t>(ValueType::kString));
      PutVarint(sv.size());
      PutRaw(sv.data(), sv.size());
      break;
    }
  }
}

void Serializer::PutCompactRow(const Row& row) {
  PutVarint(row.size());
  for (const Value& v : row) PutCompactValue(v);
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
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ == size_) return Status::Corruption("unterminated varint");
    const uint8_t b = data_[pos_++];
    // The tenth byte holds only bit 63.
    if (shift == 63 && b > 1) return Status::Corruption("overlong varint");
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // A zero final group after the first byte encodes nothing: the
      // value had a shorter encoding.
      if (b == 0 && shift > 0) return Status::Corruption("overlong varint");
      *out = v;
      return Status::Ok();
    }
  }
  return Status::Corruption("overlong varint");
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

Status Deserializer::GetCompactRow(Row* out) {
  uint64_t n = 0;
  Status s = GetVarint(&n);
  if (!s.ok()) return s;
  // Every compact value takes at least its tag byte.
  if (n > remaining()) return Status::Corruption("row length too large");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    s = GetCompactValue(&v);
    if (!s.ok()) return s;
    out->push_back(std::move(v));
  }
  return Status::Ok();
}

Status Deserializer::GetRow(Row* out) {
  uint32_t n = 0;
  Status s = GetU32(&n);
  if (!s.ok()) return s;
  if (n > remaining()) return Status::Corruption("row length too large");
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    s = GetValue(&v);
    if (!s.ok()) return s;
    out->push_back(std::move(v));
  }
  return Status::Ok();
}

}  // namespace pacman
