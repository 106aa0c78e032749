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

// One tuple modification (after image).
struct WriteImage {
  TableId table = 0;
  Key key = 0;
  Row after;
  bool deleted = false;
};

// One committed transaction's log entry.
struct LogRecord {
  Timestamp commit_ts = kInvalidTimestamp;
  Epoch epoch = 0;
  // Command-logging payload. proc == kAdhocProcId marks an ad-hoc
  // transaction whose `writes` are logged logically even under CL.
  ProcId proc = kAdhocProcId;
  std::vector<Value> params;
  // Tuple-level payload (always filled for PL/LL; for CL only when adhoc).
  std::vector<WriteImage> writes;

  // Home shard under partitioned routing (LogManager num_shards > 1):
  // every key this record touches lives in this shard, so it routes to
  // that shard's logger. Transient routing metadata — never serialized;
  // recovery re-derives nothing from it (each shard's pipeline reads only
  // its own logger's files).
  uint32_t home_shard = 0;

  bool is_adhoc() const { return proc == kAdhocProcId; }
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
//            row: value count (varint) + compact values
void SerializeRecord(LogScheme scheme, const LogRecord& record,
                     const RecordBases& bases, Serializer* out);

// Exact number of bytes SerializeRecord appends for `record` against
// `bases`, computed without serializing, so a block is built in one
// exactly sized buffer. The two must agree byte for byte
// (LogStore::SerializeBlock DCHECKs it).
size_t SerializedRecordBytes(LogScheme scheme, const LogRecord& record,
                             const RecordBases& bases);

// Deserializes one v4 record written by SerializeRecord with the same
// scheme and bases.
Status DeserializeRecord(LogScheme scheme, const RecordBases& bases,
                         Deserializer* in, LogRecord* record);

// Deserializes one record of the fixed-width formats v1-v3 (no longer
// written): u64 cts, u64 epoch, u32 counts/ids/tables, u64 keys, and
// values as Serializer::PutValue writes them.
Status DeserializeFixedWidthRecord(LogScheme scheme, Deserializer* in,
                                   LogRecord* record);

}  // namespace pacman::logging

#endif  // PACMAN_LOGGING_LOG_RECORD_H_
