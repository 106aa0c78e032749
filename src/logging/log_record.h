// Copyright (c) 2026 The PACMAN reproduction authors.
// Log record formats for the three logging schemes (paper §2.1).
//
//  - Physical logging (PL): per modified tuple, the after image plus the
//    physical locations of the old and new versions.
//  - Logical logging (LL): per modified tuple, the after image only.
//  - Command logging (CL): per transaction, the stored procedure id and
//    its parameter values. Ad-hoc transactions inside a CL stream carry
//    row-level logical images instead (§4.5).
//
// All records carry the commit TID and the epoch. The TID is an
// epoch-prefixed Silo-style commit timestamp (common/types.h), drawn by a
// parallel commit protocol: it totally orders conflicting transactions
// and, per key, the write images in the durable stream — but the stream
// as a whole is not a globally serialized sequence, and replay must not
// assume one (recovery/recovery.h spells out the contract). The epoch
// field is stamped by the group-commit flush that persists the record, so
// it can exceed TidEpoch(commit_ts) and is the authority for the pepoch
// durability cut.
#ifndef PACMAN_LOGGING_LOG_RECORD_H_
#define PACMAN_LOGGING_LOG_RECORD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/serializer.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace pacman::logging {

enum class LogScheme : uint8_t {
  kPhysical = 1,
  kLogical = 2,
  kCommand = 3,
};

const char* LogSchemeName(LogScheme scheme);

// One tuple modification. Its after image is a compact-encoded row
// (common/serializer.h) that lies `offset` bytes past its record's image
// base (LogRecord::ImageRow): never a decoded Row, so a reloaded image
// costs these 24 bytes plus its share of the batch file.
struct WriteImage {
  Key key = 0;
  TableId table = 0;
  uint32_t offset = 0;
  uint32_t size = 0;  // Compact row bytes.
  bool deleted = false;
};
static_assert(sizeof(WriteImage) == 24, "WriteImage must stay 24 bytes");

// The bytes a record's image offsets count from. Either the record owns
// them (rows encoded at commit, or copied by a copy-mode parse) or they
// are a view into the LogBatch::backing of a zero-copy parse, which must
// outlive the record. A copy copies owned bytes and
// shares a view, so copies and moves of a record keep reading the same
// rows. 16 bytes, because command records, which have no images, carry
// one too.
class ImageBytes {
 public:
  ImageBytes() = default;
  // A view of bytes the caller keeps alive; never written through.
  explicit ImageBytes(const uint8_t* view)
      : data_(const_cast<uint8_t*>(view)) {}
  ImageBytes(const ImageBytes& other);
  ImageBytes(ImageBytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  ImageBytes& operator=(ImageBytes other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~ImageBytes() {
    if (capacity_ > 0) delete[] data_;
  }

  const uint8_t* data() const { return data_; }
  // True when the record owns its bytes.
  bool owned() const { return capacity_ > 0; }
  // Appends `n` owned bytes and returns where they start; the bytes
  // before them do not move relative to data(). Not on a view.
  uint8_t* Append(size_t n);
  void Reserve(size_t n);

 private:
  uint8_t* data_ = nullptr;
  uint32_t size_ = 0;      // Owned bytes in use.
  uint32_t capacity_ = 0;  // 0 for a view or no bytes.
};
static_assert(sizeof(ImageBytes) == 16, "ImageBytes must stay 16 bytes");

// One committed transaction's log entry.
struct LogRecord {
  Timestamp commit_ts = kInvalidTimestamp;
  Epoch epoch = 0;
  // Command-logging payload. proc == kAdhocProcId marks an ad-hoc
  // transaction whose `writes` are logged logically even under CL. A
  // zero-copy parse leaves string parameters borrowed from the batch file
  // (Value::BorrowedString).
  ProcId proc = kAdhocProcId;
  // Home shard under partitioned routing (LogManager num_shards > 1):
  // every key this record touches lives in this shard, so it routes to
  // that shard's logger. Transient routing metadata — never serialized;
  // recovery re-derives nothing from it (each shard's pipeline reads only
  // its own logger's files). Beside `proc`, so the two share 8 bytes.
  uint32_t home_shard = 0;
  std::vector<Value> params;
  // Tuple-level payload (always filled for PL/LL; for CL only when adhoc).
  std::vector<WriteImage> writes;
  // What the offsets of `writes` count from.
  ImageBytes images;

  bool is_adhoc() const { return proc == kAdhocProcId; }

  // The compact row bytes of `w`, one of this record's writes.
  const uint8_t* ImageRow(const WriteImage& w) const {
    return images.data() + w.offset;
  }
  // Appends a write image of `row`, encoding it into owned image bytes.
  void AddImage(TableId table, Key key, const Row& row, bool deleted);
  // Decodes `w`'s row into *out, reusing its capacity.
  void DecodeImage(const WriteImage& w, Row* out) const {
    DecodeCompactRow(ImageRow(w), out);
  }
};

// Per-block bases of the v4 record encoding: a record stores its
// commit_ts and epoch as varint deltas above these. They are the block's
// minima and travel in its header (log_store.h).
struct RecordBases {
  Timestamp cts = 0;
  Epoch epoch = 0;
};

// Serializes `record` in batch format v4 under `scheme`, appending to
// `out`. Requires record.commit_ts >= bases.cts and
// record.epoch >= bases.epoch. Layout (varints are LEB128, values use the
// compact encoding of common/serializer.h):
//
//   record   cts - bases.cts, epoch - bases.epoch (varints),
//            then PL/LL: count (varint), `count` write images
//                 CL:    proc (varint), count (varint), then `count`
//                        compact parameter values, or for an ad-hoc proc
//                        `count` logical write images
//   image    PL only: the 16 version-location bytes, raw;
//            table (varint), key (varint), deleted (u8),
//            row: value count (varint) + compact values, copied as the
//            record holds them (LogRecord::ImageRow)
void SerializeRecord(LogScheme scheme, const LogRecord& record,
                     const RecordBases& bases, Serializer* out);

// Exact number of bytes SerializeRecord appends for `record` against
// `bases`, computed without serializing, so a block is built in one
// exactly sized buffer. The two must agree byte for byte
// (LogStore::SerializeBlock DCHECKs it).
size_t SerializedRecordBytes(LogScheme scheme, const LogRecord& record,
                             const RecordBases& bases);

// Deserializes one v4 record written by SerializeRecord with the same
// scheme and bases. Each image row is checked in place (CheckCompactRow),
// not decoded: when `in` borrows strings (the zero-copy parse) the record
// views its images in `in`'s span, which must outlive it; otherwise it
// copies them into bytes it owns.
Status DeserializeRecord(LogScheme scheme, const RecordBases& bases,
                         Deserializer* in, LogRecord* record);

}  // namespace pacman::logging

#endif  // PACMAN_LOGGING_LOG_RECORD_H_
