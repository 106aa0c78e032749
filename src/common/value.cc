#include "common/value.h"

#include <cstring>
#include <functional>

namespace pacman {

uint64_t Fnv1a(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

Value Value::Add(const Value& other) const {
  if (type_ != ValueType::kDouble && other.type_ != ValueType::kDouble) {
    return Value(NumberAsInt64() + other.NumberAsInt64());
  }
  return Value(NumberAsDouble() + other.NumberAsDouble());
}

Value Value::Sub(const Value& other) const {
  if (type_ != ValueType::kDouble && other.type_ != ValueType::kDouble) {
    return Value(NumberAsInt64() - other.NumberAsInt64());
  }
  return Value(NumberAsDouble() - other.NumberAsDouble());
}

Value Value::Mul(const Value& other) const {
  if (type_ != ValueType::kDouble && other.type_ != ValueType::kDouble) {
    return Value(NumberAsInt64() * other.NumberAsInt64());
  }
  return Value(NumberAsDouble() * other.NumberAsDouble());
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return i_ == other.i_;
    case ValueType::kDouble:
      return d_ == other.d_;
    case ValueType::kString:
      return sv_ == other.sv_;
  }
  return false;
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case ValueType::kInt64:
      return Fnv1a(&i_, sizeof(i_), 0xa1);
    case ValueType::kDouble: {
      // Normalize -0.0 to 0.0 so equal values hash equally.
      double d = d_ == 0.0 ? 0.0 : d_;
      return Fnv1a(&d, sizeof(d), 0xb2);
    }
    case ValueType::kString:
      return Fnv1a(sv_.data(), sv_.size(), 0xc3);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(i_);
    case ValueType::kDouble:
      return std::to_string(d_);
    case ValueType::kString: {
      std::string quoted(1, '"');
      quoted.append(sv_);
      quoted += '"';
      return quoted;
    }
  }
  return "?";
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x2545f4914f6cdd1dull;
  for (const Value& v : row) {
    uint64_t vh = v.Hash();
    h ^= vh + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace pacman
