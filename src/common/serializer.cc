#include "common/serializer.h"

#include <bit>
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

// One value's type and payload: the int64 or double bits, or the string
// bytes. Read from a Value or in place from a compact row, so the
// fixed-width writer below serves both.
struct Field {
  ValueType type = ValueType::kNull;
  uint64_t bits = 0;
  std::string_view str;
};

Field FieldOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      return {ValueType::kInt64, static_cast<uint64_t>(v.AsInt64()), {}};
    case ValueType::kDouble:
      return {ValueType::kDouble, std::bit_cast<uint64_t>(v.AsDouble()), {}};
    case ValueType::kString:
      return {ValueType::kString, 0, v.AsStringView()};
  }
  return {};
}

size_t FixedFieldBytes(const Field& f) {
  switch (f.type) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1 + sizeof(uint64_t);
    case ValueType::kString:
      return 1 + sizeof(uint32_t) + f.str.size();
  }
  return 1;
}

uint8_t* EncodeFixedField(const Field& f, uint8_t* out) {
  *out++ = static_cast<uint8_t>(f.type);
  switch (f.type) {
    case ValueType::kNull:
      return out;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return PutFixed(out, f.bits);
    case ValueType::kString:
      out = PutFixed(out, static_cast<uint32_t>(f.str.size()));
      std::memcpy(out, f.str.data(), f.str.size());
      return out + f.str.size();
  }
  return out;
}

}  // namespace

size_t FixedRowBytes(const Row& row) {
  size_t n = sizeof(uint32_t);
  for (const Value& v : row) n += FixedFieldBytes(FieldOf(v));
  return n;
}

uint8_t* EncodeFixedRow(const Row& row, uint8_t* out) {
  out = PutFixed(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) out = EncodeFixedField(FieldOf(v), out);
  return out;
}

namespace {

// Sources for DecodeFixedValue's copy-assignments: copy-assigning a
// non-string clears the destination's type but keeps its string capacity
// (Value::operator=), and copy-assigning a view materializes the bytes in
// the destination's own string, reusing that capacity. So a VM register or
// row slot that once held a string never reallocates for it again.
const Value kNullValue;

void AssignField(const Field& f, Value* v) {
  switch (f.type) {
    case ValueType::kNull:
      *v = kNullValue;
      return;
    case ValueType::kInt64: {
      const Value number(static_cast<int64_t>(f.bits));
      *v = number;
      return;
    }
    case ValueType::kDouble: {
      const Value number(std::bit_cast<double>(f.bits));
      *v = number;
      return;
    }
    case ValueType::kString: {
      const Value view = Value::BorrowedString(f.str);
      *v = view;
      return;
    }
  }
}

// Decodes the value at `p` into *v; returns the byte past it.
const uint8_t* DecodeFixedValue(const uint8_t* p, Value* v) {
  Field f{static_cast<ValueType>(*p++), 0, {}};
  switch (f.type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
    case ValueType::kDouble:
      f.bits = GetFixed<uint64_t>(p);
      p += sizeof(uint64_t);
      break;
    case ValueType::kString: {
      const uint32_t n = GetFixed<uint32_t>(p);
      p += sizeof(uint32_t);
      f.str = std::string_view(reinterpret_cast<const char*>(p), n);
      p += n;
      break;
    }
  }
  AssignField(f, v);
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

namespace {

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

// Readers of well-formed compact bytes (CheckCompactRow accepted them), so
// nothing is bounds-checked again.
const uint8_t* ReadCheckedVarint(const uint8_t* p, uint64_t* v) {
  uint64_t x = 0;
  int shift = 0;
  for (; *p >= 0x80; shift += 7) {
    x |= static_cast<uint64_t>(*p++ & 0x7f) << shift;
  }
  *v = x | static_cast<uint64_t>(*p++) << shift;
  return p;
}

const uint8_t* ReadCompactField(const uint8_t* p, Field* f) {
  const uint8_t tag = *p++;
  uint64_t u = 0;
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      *f = {ValueType::kNull, 0, {}};
      return p;
    case static_cast<uint8_t>(ValueType::kInt64):
      p = ReadCheckedVarint(p, &u);
      *f = {ValueType::kInt64, static_cast<uint64_t>(ZigzagDecode(u)), {}};
      return p;
    case static_cast<uint8_t>(ValueType::kDouble):
      *f = {ValueType::kDouble, GetFixed<uint64_t>(p), {}};
      return p + sizeof(uint64_t);
    case kCompactIntegralDouble:
      p = ReadCheckedVarint(p, &u);
      *f = {ValueType::kDouble,
            std::bit_cast<uint64_t>(static_cast<double>(ZigzagDecode(u))),
            {}};
      return p;
    case static_cast<uint8_t>(ValueType::kString):
      p = ReadCheckedVarint(p, &u);
      *f = {ValueType::kString, 0,
            std::string_view(reinterpret_cast<const char*>(p), u)};
      return p + u;
  }
  PACMAN_DCHECK(false);
  return p;
}

}  // namespace

uint8_t* EncodeCompactRow(const Row& row, uint8_t* out) {
  out = EncodeVarint(row.size(), out);
  for (const Value& v : row) out = EncodeCompactValue(v, out);
  return out;
}

Status CheckCompactRow(const uint8_t* p, size_t avail, size_t* size) {
  Deserializer in(p, avail);
  in.set_borrow_strings(true);  // Values are checked, never kept.
  uint64_t n = 0;
  Status s = in.GetVarint(&n);
  // Every compact value takes at least its tag byte.
  if (s.ok() && n > in.remaining()) {
    s = Status::Corruption("row length too large");
  }
  Value v;
  for (; s.ok() && n > 0; --n) s = in.GetCompactValue(&v);
  if (s.ok()) *size = in.position();
  return s;
}

size_t CompactRowFixedBytes(const uint8_t* p) {
  uint64_t n = 0;
  p = ReadCheckedVarint(p, &n);
  size_t bytes = sizeof(uint32_t);
  Field f;
  for (; n > 0; --n) {
    p = ReadCompactField(p, &f);
    bytes += FixedFieldBytes(f);
  }
  return bytes;
}

uint8_t* TranscodeCompactRow(const uint8_t* p, uint8_t* out) {
  uint64_t n = 0;
  p = ReadCheckedVarint(p, &n);
  out = PutFixed(out, static_cast<uint32_t>(n));
  Field f;
  for (; n > 0; --n) {
    p = ReadCompactField(p, &f);
    out = EncodeFixedField(f, out);
  }
  return out;
}

void DecodeCompactRow(const uint8_t* p, Row* out) {
  uint64_t n = 0;
  p = ReadCheckedVarint(p, &n);
  out->resize(n);
  Field f;
  for (Value& v : *out) {
    p = ReadCompactField(p, &f);
    AssignField(f, &v);
  }
}

void Serializer::PutValue(const Value& v) {
  const size_t at = buf_.size();
  const Field f = FieldOf(v);
  buf_.resize(at + FixedFieldBytes(f));
  EncodeFixedField(f, buf_.data() + at);
}

void Serializer::PutRow(const Row& row) {
  const size_t at = buf_.size();
  buf_.resize(at + FixedRowBytes(row));
  EncodeFixedRow(row, buf_.data() + at);
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
