#include "logging/log_record.h"

#include <algorithm>
#include <cstring>
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

// Smallest write image: table, key, deleted flag and an empty row, as
// one-byte varints (physical images add the version locations).
constexpr size_t kMinImageBytes = 1 + 1 + 1 + 1;

void SerializeWrite(LogScheme scheme, const LogRecord& record,
                    const WriteImage& w, Serializer* out) {
  if (scheme == LogScheme::kPhysical) {
    out->PutU64(reinterpret_cast<uint64_t>(&w));  // New version address.
    out->PutU64(reinterpret_cast<uint64_t>(&w) ^ 0x5bd1e995);  // Old version.
  }
  out->PutVarint(w.table);
  out->PutVarint(w.key);
  out->PutU8(w.deleted ? 1 : 0);
  out->PutRaw(record.ImageRow(w), w.size);
}

size_t WriteBytes(LogScheme scheme, const WriteImage& w) {
  return (scheme == LogScheme::kPhysical ? kVersionLocationBytes : 0) +
         VarintBytes(w.table) + VarintBytes(w.key) + 1 + w.size;
}

// A count of elements at least `min_bytes` long each, validated against
// the bytes left in the stream so a corrupt count fails loudly instead of
// driving a giant resize.
Status ReadCount(Deserializer* in, size_t min_bytes, const char* what,
                 uint64_t* n) {
  Status s = in->GetVarint(n);
  if (s.ok() && *n > in->remaining() / min_bytes) {
    return Status::Corruption(std::string(what) + " count " +
                              std::to_string(*n) +
                              " exceeds the bytes remaining");
  }
  return s;
}

// One write image of the record that starts at `start`: its row is
// checked in place and located by its offset from `start`.
Status ReadWrite(LogScheme scheme, const uint8_t* start, Deserializer* in,
                 LogRecord* record) {
  Status s;
  if (scheme == LogScheme::kPhysical) s = in->Skip(kVersionLocationBytes);
  TableId table = 0;
  Key key = 0;
  uint8_t deleted = 0;
  if (s.ok()) s = in->GetVarint32(&table);
  if (s.ok()) s = in->GetVarint(&key);
  if (s.ok()) s = in->GetU8(&deleted);
  if (!s.ok()) return s;
  size_t size = 0;
  s = CheckCompactRow(in->cursor(), in->remaining(), &size);
  if (!s.ok()) return s;
  const size_t offset = static_cast<size_t>(in->cursor() - start);
  if (offset + size > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("write image ends 4 GiB past its record");
  }
  record->writes.push_back({key, table, static_cast<uint32_t>(offset),
                            static_cast<uint32_t>(size), deleted != 0});
  return in->Skip(size);
}

// The write images of a tuple-level or ad-hoc record that starts at
// `start`. The record then views them in the input span (borrow mode) or
// copies its bytes, so they outlive the input.
Status ReadWrites(LogScheme scheme, const uint8_t* start, Deserializer* in,
                  LogRecord* record) {
  uint64_t n = 0;
  Status s = ReadCount(in, kMinImageBytes, "write image", &n);
  if (!s.ok()) return s;
  record->writes.reserve(n);
  for (uint64_t i = 0; i < n && s.ok(); ++i) {
    s = ReadWrite(scheme, start, in, record);
  }
  if (!s.ok() || n == 0) return s;
  if (in->borrow_strings()) {
    record->images = ImageBytes(start);
  } else {
    const size_t bytes = static_cast<size_t>(in->cursor() - start);
    std::memcpy(record->images.Append(bytes), start, bytes);
  }
  return Status::Ok();
}

// A commit_ts or epoch: a varint delta above `base`; a sum that wraps is
// corruption.
Status ReadStamp(Deserializer* in, uint64_t base, const char* what,
                 uint64_t* out) {
  uint64_t delta = 0;
  Status s = in->GetVarint(&delta);
  if (!s.ok()) return s;
  if (delta > std::numeric_limits<uint64_t>::max() - base) {
    return Status::Corruption(std::string(what) + " delta overflows");
  }
  *out = base + delta;
  return Status::Ok();
}

}  // namespace

ImageBytes::ImageBytes(const ImageBytes& other) : data_(other.data_) {
  if (!other.owned()) return;  // A view, or nothing: share it.
  data_ = nullptr;
  if (other.size_ > 0) {
    std::memcpy(Append(other.size_), other.data_, other.size_);
  }
}

void ImageBytes::Reserve(size_t n) {
  PACMAN_DCHECK(owned() || data_ == nullptr);
  if (n <= capacity_) return;
  PACMAN_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                   "a log record's images exceed 4 GiB");
  auto* grown = new uint8_t[n];
  if (size_ > 0) std::memcpy(grown, data_, size_);
  if (owned()) delete[] data_;
  data_ = grown;
  capacity_ = static_cast<uint32_t>(n);
}

uint8_t* ImageBytes::Append(size_t n) {
  if (size_ + n > capacity_) {
    Reserve(std::max<size_t>(size_ + n, 2 * size_t{capacity_}));
  }
  uint8_t* at = data_ + size_;
  size_ += static_cast<uint32_t>(n);
  return at;
}

void LogRecord::AddImage(TableId table, Key key, const Row& row,
                         bool deleted) {
  const size_t n = CompactRowBytes(row);
  uint8_t* at = images.Append(n);
  EncodeCompactRow(row, at);
  writes.push_back({key, table, static_cast<uint32_t>(at - images.data()),
                    static_cast<uint32_t>(n), deleted});
}

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
  for (const WriteImage& w : record.writes) {
    SerializeWrite(images, record, w, out);
  }
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
  const uint8_t* start = in->cursor();
  record->params.clear();
  record->writes.clear();
  record->images = ImageBytes();
  record->proc = kAdhocProcId;
  Status s = ReadStamp(in, bases.cts, "commit_ts", &record->commit_ts);
  if (s.ok()) s = ReadStamp(in, bases.epoch, "epoch", &record->epoch);
  if (!s.ok()) return s;
  if (scheme != LogScheme::kCommand) {
    return ReadWrites(scheme, start, in, record);
  }
  s = in->GetVarint32(&record->proc);
  if (!s.ok()) return s;
  if (record->is_adhoc()) {
    return ReadWrites(LogScheme::kLogical, start, in, record);
  }
  uint64_t n = 0;
  s = ReadCount(in, 1, "parameter", &n);  // Tag byte minimum.
  if (!s.ok()) return s;
  record->params.resize(n);
  for (Value& v : record->params) {
    s = in->GetCompactValue(&v);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace pacman::logging
