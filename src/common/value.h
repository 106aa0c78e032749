// Copyright (c) 2026 The PACMAN reproduction authors.
// Typed column values. Rows in the storage engine are vectors of Value.
#ifndef PACMAN_COMMON_VALUE_H_
#define PACMAN_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace pacman {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

// Human-readable type name (procedure signature error messages).
inline const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

// A dynamically typed column value. Kept deliberately small: the engine's
// benchmarks (TPC-C, Smallbank) only need integers, doubles and strings.
//
// String storage comes in two flavors:
//  - owned: the bytes live in the Value (the default everywhere);
//  - borrowed: the bytes live in an external buffer the caller keeps
//    alive (Value::BorrowedString). A zero-copy batch parse leaves
//    command-log string parameters as views over the batch file buffer
//    instead of allocating per field (recovery/log_pipeline.h); that is
//    the only place borrowed values live on. Write images are never
//    decoded at all (logging/log_record.h), and the row decoders
//    (common/serializer.h) use views only as short-lived copy sources.
// Borrowed-ness does NOT survive a copy: the copy constructor always
// materializes an owned string, so a borrowed value that escapes its
// buffer's scope owns its bytes from the first copy on. Moves keep the
// view (the buffer outlives both source and destination in the parse
// pipelines that move records around). Tables never hold a Value: a
// version copies string bytes into its packed row (storage/tuple.h), so a
// replayed row's borrowed strings cannot reach one.
class Value {
 public:
  Value() : type_(ValueType::kNull), i_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt64), i_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), d_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), s_(std::move(v)) {
    sv_ = s_;
  }

  // A string value viewing `sv` without copying. The caller guarantees the
  // viewed buffer outlives this value and every value *moved* from it.
  static Value BorrowedString(std::string_view sv) {
    Value v;
    v.type_ = ValueType::kString;
    v.borrowed_ = true;
    v.sv_ = sv;
    return v;
  }

  Value(const Value& o) : type_(o.type_) {
    if (type_ == ValueType::kString) {
      s_.assign(o.sv_.data(), o.sv_.size());
      sv_ = s_;
    } else {
      i_ = o.i_;
    }
  }
  Value& operator=(const Value& o) {
    if (this != &o) {
      type_ = o.type_;
      borrowed_ = false;
      if (type_ == ValueType::kString) {
        s_.assign(o.sv_.data(), o.sv_.size());
        sv_ = s_;
      } else {
        s_.clear();
        i_ = o.i_;
      }
    }
    return *this;
  }
  // Moving an owned string relocates its bytes (SSO), so the view must be
  // re-anchored to the destination's storage.
  Value(Value&& o) noexcept
      : type_(o.type_), borrowed_(o.borrowed_), s_(std::move(o.s_)) {
    if (type_ == ValueType::kString) {
      sv_ = borrowed_ ? o.sv_ : std::string_view(s_);
    } else {
      i_ = o.i_;
    }
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      type_ = o.type_;
      borrowed_ = o.borrowed_;
      s_ = std::move(o.s_);
      if (type_ == ValueType::kString) {
        sv_ = borrowed_ ? o.sv_ : std::string_view(s_);
      } else {
        i_ = o.i_;
      }
    }
    return *this;
  }
  ~Value() = default;

  static Value Null() { return Value(); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  // True when the string bytes live in an external buffer (see above).
  bool is_borrowed() const { return borrowed_; }

  int64_t AsInt64() const {
    PACMAN_DCHECK(type_ == ValueType::kInt64);
    return i_;
  }
  double AsDouble() const {
    PACMAN_DCHECK(type_ == ValueType::kDouble || type_ == ValueType::kInt64);
    return type_ == ValueType::kInt64 ? static_cast<double>(i_) : d_;
  }
  // The number this value stands for as an operand of procedure
  // arithmetic, comparisons, modulo and keys: Null (a field read on an
  // absent local) counts as the integer 0. Branch-free for Null, whose
  // i_ is always 0 (see the union below).
  int64_t NumberAsInt64() const {
    PACMAN_DCHECK(type_ == ValueType::kInt64 || type_ == ValueType::kNull);
    return i_;
  }
  double NumberAsDouble() const {
    PACMAN_DCHECK(type_ != ValueType::kString);
    return type_ == ValueType::kDouble ? d_ : static_cast<double>(i_);
  }
  // The string bytes, owned or borrowed. Prefer this accessor: it is the
  // one that is valid for every string value.
  std::string_view AsStringView() const {
    PACMAN_DCHECK(type_ == ValueType::kString);
    return sv_;
  }
  const std::string& AsString() const {
    PACMAN_DCHECK(type_ == ValueType::kString && !borrowed_);
    return s_;
  }

  // Arithmetic used by stored-procedure expressions. Int op int stays int;
  // anything involving a double promotes to double. Null counts as the
  // integer 0 (NumberAsInt64).
  Value Add(const Value& other) const;
  Value Sub(const Value& other) const;
  Value Mul(const Value& other) const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Stable 64-bit hash (used for database content fingerprints in the
  // recovery correctness checks).
  uint64_t Hash() const;

  std::string ToString() const;

 private:
  ValueType type_;
  bool borrowed_ = false;
  // Discriminated by type_: numbers use i_/d_, strings use sv_ (which
  // views s_ when owned), and Null keeps i_ == 0 — every constructor and
  // assignment that yields Null sets it, which NumberAsInt64 relies on.
  // The union keeps Value at its pre-borrowing size — rows flow through
  // the VM and the install paths by value, so Value's footprint is
  // engine-wide hot.
  union {
    int64_t i_;
    double d_;
    std::string_view sv_;
  };
  std::string s_;  // Owned storage; empty when borrowed.
};

// A row is an ordered tuple of column values matching a Schema.
using Row = std::vector<Value>;

// Stable hash of a whole row.
uint64_t HashRow(const Row& row);

// FNV-1a over raw bytes from `seed`. Stable across runs and builds,
// unlike std::hash: value hashes (and so ContentHash) and the checkpoint
// meta checksum rest on it. The default seed is one digit short of the
// published 64-bit offset basis; it stays, so existing checksums and
// fingerprints keep validating.
uint64_t Fnv1a(const void* data, size_t n,
               uint64_t seed = 1469598103934665603ull);

}  // namespace pacman

#endif  // PACMAN_COMMON_VALUE_H_
