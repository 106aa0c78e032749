#include "logging/log_record.h"

#include <limits>

#include "common/macros.h"

namespace pacman::logging {

const char* LogSchemeName(LogScheme scheme) {
  switch (scheme) {
    case LogScheme::kPhysical:
      return "PL";
    case LogScheme::kLogical:
      return "LL";
    case LogScheme::kCommand:
      return "CL";
  }
  return "?";
}

namespace {

// Physical logging must additionally record the locations of the old and
// new versions of the tuple (§6.1.1); in a main-memory engine those are
// two 8-byte pointers.
constexpr size_t kVersionLocationBytes = 16;

// Smallest write image: table, key, deleted flag and an empty row, at
// fixed width and as one-byte varints (physical images add the version
// locations).
constexpr size_t kMinFixedWidthImageBytes = 4 + 8 + 1 + 4;
constexpr size_t kMinCompactImageBytes = 1 + 1 + 1 + 1;

void SerializeWrite(LogScheme scheme, const WriteImage& w, Serializer* out) {
  if (scheme == LogScheme::kPhysical) {
    out->PutU64(reinterpret_cast<uint64_t>(&w));  // New version address.
    out->PutU64(reinterpret_cast<uint64_t>(&w) ^ 0x5bd1e995);  // Old version.
  }
  out->PutVarint(w.table);
  out->PutVarint(w.key);
  out->PutU8(w.deleted ? 1 : 0);
  out->PutCompactRow(w.after);
}

size_t WriteBytes(LogScheme scheme, const WriteImage& w) {
  return (scheme == LogScheme::kPhysical ? kVersionLocationBytes : 0) +
         VarintBytes(w.table) + VarintBytes(w.key) + 1 +
         CompactRowBytes(w.after);
}

// Reads the fields every format shares, each in the compact (v4) or the
// fixed-width (v1-v3) encoding.
class FieldReader {
 public:
  FieldReader(bool compact, Deserializer* in) : compact_(compact), in_(in) {}

  Status ReadU32(uint32_t* out) {
    return compact_ ? in_->GetVarint32(out) : in_->GetU32(out);
  }
  Status ReadU64(uint64_t* out) {
    return compact_ ? in_->GetVarint(out) : in_->GetU64(out);
  }
  // A count of elements at least `min_bytes` long each (fixed width: u32),
  // validated against the bytes left in the stream so a corrupt count
  // fails loudly instead of driving a giant resize.
  Status ReadCount(size_t min_bytes, const char* what, uint64_t* n) {
    Status s;
    if (compact_) {
      s = in_->GetVarint(n);
    } else {
      uint32_t n32 = 0;
      s = in_->GetU32(&n32);
      *n = n32;
    }
    if (s.ok() && *n > in_->remaining() / min_bytes) {
      return Status::Corruption(std::string(what) + " count " +
                                std::to_string(*n) +
                                " exceeds the bytes remaining");
    }
    return s;
  }
  Status ReadValue(Value* out) {
    return compact_ ? in_->GetCompactValue(out) : in_->GetValue(out);
  }
  Status ReadRow(Row* out) {
    return compact_ ? in_->GetCompactRow(out) : in_->GetRow(out);
  }

  Status ReadWrite(LogScheme scheme, WriteImage* w) {
    Status s;
    if (scheme == LogScheme::kPhysical) s = in_->Skip(kVersionLocationBytes);
    if (s.ok()) s = ReadU32(&w->table);
    if (s.ok()) s = ReadU64(&w->key);
    uint8_t deleted = 0;
    if (s.ok()) s = in_->GetU8(&deleted);
    if (!s.ok()) return s;
    w->deleted = deleted != 0;
    return ReadRow(&w->after);
  }

  Status ReadWrites(LogScheme scheme, LogRecord* record) {
    uint64_t n = 0;
    Status s = ReadCount(
        compact_ ? kMinCompactImageBytes : kMinFixedWidthImageBytes,
        "write image", &n);
    if (!s.ok()) return s;
    record->writes.resize(n);
    for (WriteImage& w : record->writes) {
      s = ReadWrite(scheme, &w);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  // A commit_ts or epoch: a varint delta above `base` (compact; a sum
  // that wraps is corruption) or a plain u64.
  Status ReadStamp(uint64_t base, const char* what, uint64_t* out) {
    if (!compact_) return in_->GetU64(out);
    uint64_t delta = 0;
    Status s = in_->GetVarint(&delta);
    if (!s.ok()) return s;
    if (delta > std::numeric_limits<uint64_t>::max() - base) {
      return Status::Corruption(std::string(what) + " delta overflows");
    }
    *out = base + delta;
    return Status::Ok();
  }

  Status ReadRecord(LogScheme scheme, const RecordBases& bases,
                LogRecord* record) {
    record->params.clear();
    record->writes.clear();
    record->proc = kAdhocProcId;
    Status s = ReadStamp(bases.cts, "commit_ts", &record->commit_ts);
    if (s.ok()) s = ReadStamp(bases.epoch, "epoch", &record->epoch);
    if (!s.ok()) return s;
    if (scheme != LogScheme::kCommand) return ReadWrites(scheme, record);
    s = ReadU32(&record->proc);
    if (!s.ok()) return s;
    if (record->is_adhoc()) return ReadWrites(LogScheme::kLogical, record);
    uint64_t n = 0;
    s = ReadCount(1, "parameter", &n);  // Tag byte minimum.
    if (!s.ok()) return s;
    record->params.resize(n);
    for (Value& v : record->params) {
      s = ReadValue(&v);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

 private:
  const bool compact_;
  Deserializer* const in_;
};

}  // namespace

void SerializeRecord(LogScheme scheme, const LogRecord& record,
                     const RecordBases& bases, Serializer* out) {
  PACMAN_DCHECK(record.commit_ts >= bases.cts && record.epoch >= bases.epoch);
  out->PutVarint(record.commit_ts - bases.cts);
  out->PutVarint(record.epoch - bases.epoch);
  LogScheme images = scheme;
  if (scheme == LogScheme::kCommand) {
    out->PutVarint(record.proc);
    if (!record.is_adhoc()) {
      out->PutVarint(record.params.size());
      for (const Value& v : record.params) out->PutCompactValue(v);
      return;
    }
    // Ad-hoc transaction: row-level logical images (§4.5).
    images = LogScheme::kLogical;
  }
  out->PutVarint(record.writes.size());
  for (const WriteImage& w : record.writes) SerializeWrite(images, w, out);
}

size_t SerializedRecordBytes(LogScheme scheme, const LogRecord& record,
                             const RecordBases& bases) {
  size_t n = VarintBytes(record.commit_ts - bases.cts) +
             VarintBytes(record.epoch - bases.epoch);
  LogScheme images = scheme;
  if (scheme == LogScheme::kCommand) {
    n += VarintBytes(record.proc);
    if (!record.is_adhoc()) {
      n += VarintBytes(record.params.size());
      for (const Value& v : record.params) n += CompactValueBytes(v);
      return n;
    }
    images = LogScheme::kLogical;
  }
  n += VarintBytes(record.writes.size());
  for (const WriteImage& w : record.writes) n += WriteBytes(images, w);
  return n;
}

Status DeserializeRecord(LogScheme scheme, const RecordBases& bases,
                         Deserializer* in, LogRecord* record) {
  return FieldReader(/*compact=*/true, in).ReadRecord(scheme, bases, record);
}

Status DeserializeFixedWidthRecord(LogScheme scheme, Deserializer* in,
                                   LogRecord* record) {
  return FieldReader(/*compact=*/false, in).ReadRecord(scheme, {}, record);
}

}  // namespace pacman::logging
