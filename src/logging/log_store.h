// Copyright (c) 2026 The PACMAN reproduction authors.
// Log batch files (paper §3, Appendix A).
//
// Each logger truncates its log stream into finite-size batches, one file
// per batch, holding the records of a fixed number of epochs. Batches are
// the unit of reloading and of PACMAN's inter-batch pipelining.
//
// Batch file format v4 ("PAC4", the one written) is append-only:
//
//   file header   magic u32, logger_id u32, seq u64
//   block*        count, payload_bytes, min_cts, max_cts - min_cts,
//                 base_epoch (five LEB128 varints), then `count` records
//                 filling exactly `payload_bytes`
//
// Records are compact (log_record.h): commit_ts and epoch are varint
// deltas above the block's min_cts and base_epoch (its smallest epoch),
// and counts, ids, keys and values are varints. One flush stamps one
// epoch over a narrow TID range, so the two fields take about two bytes
// instead of sixteen.
//
// Each group-commit flush appends one block holding the records it made
// durable (the first flush of a batch also writes the file header), so
// every logged byte reaches the device once. A short last block is what a
// crash mid-append leaves behind. v4 is also the only format read: a file
// of the retired fixed-width formats, the single-block v1 ("PACB") and v2
// ("PAC2") or v3 ("PAC3"), fails with kCorruption naming the file and
// its format.
#ifndef PACMAN_LOGGING_LOG_STORE_H_
#define PACMAN_LOGGING_LOG_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "device/storage_device.h"
#include "logging/log_record.h"

namespace pacman::logging {

// A reloaded batch.
struct LogBatch {
  uint32_t logger_id = 0;
  uint64_t seq = 0;  // Batch sequence number within the logger's stream.
  // Commit-timestamp interval of the records ([kMaxTimestamp, 0] when
  // empty). Carried in the block headers so log garbage collection can
  // decide "wholly covered by a checkpoint at ts?" without parsing records
  // (ReadBatchCoverage); a full parse derives it from the records.
  Timestamp min_cts = kMaxTimestamp;
  Timestamp max_cts = 0;
  std::vector<LogRecord> records;  // Ascending commit_ts.
  // The raw file bytes, retained when the batch was parsed in zero-copy
  // mode: the write images of `records` are then views of their compact
  // rows in this buffer (LogRecord::images), and string parameters of
  // command records borrowed views (Value::BorrowedString), so it must
  // live as long as the records. Null for copy-mode parses, whose records
  // own their bytes. A shared handle, so a device
  // that stores objects in memory (SimulatedSsd::ReadFileShared) lends
  // its own buffer and a reload never duplicates the log; moving the
  // LogBatch moves the handle and views stay valid.
  std::shared_ptr<const std::vector<uint8_t>> backing;
  // True when the file ended mid-header or mid-block and the parse ran in
  // tolerate_torn_tail mode: `records` holds only the fully persisted
  // prefix. See BatchParseOptions::tolerate_torn_tail.
  bool torn_tail = false;
};

// How DeserializeBatch parses a batch file.
struct BatchParseOptions {
  // Zero-copy: moves the file bytes into LogBatch::backing; write images
  // view their rows in it, checked in place, and string parameters
  // borrow from it. The recovery load path then allocates per record,
  // not per row or field.
  bool borrow = false;
  // File name reported in deserialization errors (with the byte offset),
  // so a corrupt batch names the exact file and position that broke.
  std::string file_name;
  // Torn-write tolerance, for the *newest* batch file of a logger stream
  // only: a crash mid-append leaves a short last block (and a device
  // without atomic replace can tear a rewrite). A clean truncation (a
  // header, block or record cut short) then keeps the fully parsed record
  // prefix and reports success with LogBatch::torn_tail set, instead of
  // failing the reload. Safe because the lost suffix records postdate the
  // pepoch watermark (the watermark is only written after a *completed*
  // flush), so recovery would have excluded them anyway. Garbage that is
  // not a truncation — a wrong magic value, a block header whose count
  // cannot fit its payload, records that do not fill a complete block —
  // stays loud. Interior (closed, immutable) batch files must never be
  // parsed with this set.
  bool tolerate_torn_tail = false;
};

// One batch file found on a device (LogStore::ListBatchFiles).
struct BatchFile {
  uint32_t device = 0;  // Index into the listed device vector.
  uint32_t logger = 0;
  uint64_t seq = 0;
  std::string name;
  // True for the newest file of its logger stream. Closed batches are
  // immutable, so this is the only file a crash mid-append can leave torn:
  // the only one parsed with BatchParseOptions::tolerate_torn_tail.
  bool newest_in_stream = false;
};

// File naming and batch (de)serialization.
class LogStore {
 public:
  // "log_<logger>_<seq>.batch" with the sequence number zero-padded wide
  // enough (12 digits) that lexicographic device listings match numeric
  // reload order for any realistic stream length.
  static std::string BatchFileName(uint32_t logger_id, uint64_t seq);
  // Parses a batch file name back into (logger_id, seq). Accepts any digit
  // widths, so listings that mix the historical 8-digit padding with the
  // current 12-digit form (a directory written by two repo versions) still
  // reload without migration. Returns false for non-batch names.
  static bool ParseBatchFileName(const std::string& name, uint32_t* logger_id,
                                 uint64_t* seq);
  static std::string PepochFileName() { return "pepoch.log"; }

  // v4 framing overhead: one file header per batch file, one block header
  // (five varints, at most ten bytes each) per group-commit flush that
  // carried records.
  static constexpr size_t kFileHeaderBytes = 4 + 4 + 8;
  static constexpr size_t kMaxBlockHeaderBytes = 5 * 10;

  // Serializes records [records, records + n) as one v4 block, preceded
  // by the file header of (logger_id, seq) when `file_header` is set (the
  // first flush of a batch). A record's size depends on its block's
  // bases, so this is where record bytes are known: `payload_bytes`, when
  // given, receives the block's record bytes.
  static std::vector<uint8_t> SerializeBlock(LogScheme scheme,
                                             uint32_t logger_id, uint64_t seq,
                                             bool file_header,
                                             const LogRecord* records,
                                             size_t n,
                                             size_t* payload_bytes = nullptr);

  // Serializes a whole batch file: the file header plus one block holding
  // every record. The atomic-rewrite image (a flush retrying after a
  // failed append, log truncation).
  static std::vector<uint8_t> SerializeBatch(LogScheme scheme,
                                             const LogBatch& batch,
                                             size_t* payload_bytes = nullptr);

  // Parses a batch file. Errors name the file and byte offset (see
  // BatchParseOptions). With opts.borrow the handle is retained as
  // LogBatch::backing and images and string parameters view it
  // (zero-copy).
  static Status DeserializeBatch(
      LogScheme scheme, std::shared_ptr<const std::vector<uint8_t>> bytes,
      const BatchParseOptions& opts, LogBatch* out);
  static Status DeserializeBatch(LogScheme scheme, std::vector<uint8_t> bytes,
                                 const BatchParseOptions& opts,
                                 LogBatch* out) {
    return DeserializeBatch(
        scheme,
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes)), opts,
        out);
  }
  static Status DeserializeBatch(LogScheme scheme,
                                 const std::vector<uint8_t>& bytes,
                                 LogBatch* out) {
    return DeserializeBatch(scheme, bytes, BatchParseOptions{}, out);
  }

  // Answers "what commit-timestamp interval does this batch file cover?"
  // for log garbage collection: fills the header fields of `*out`
  // (logger_id, seq, min_cts/max_cts) and leaves `out->records` empty. Sums the block headers, skipping every payload
  // by its length (a short block is corruption here: a file being judged
  // for deletion must be complete).
  static Status ReadBatchCoverage(device::StorageDevice* device,
                                  const std::string& name, LogBatch* out);

  // Lists the batch files of every logger stream on `devices` in global
  // reload order, (seq, logger), and marks the newest file of each stream.
  // Names are ordered numerically (ParseBatchFileName), never
  // lexicographically. Reads no file contents.
  static std::vector<BatchFile> ListBatchFiles(
      const std::vector<device::StorageDevice*>& devices);

  // Parses a listed batch file. Only the newest file of its stream
  // tolerates a torn tail; when the tear cut into the header, the batch
  // identity comes from the file name. A header whose (logger, seq)
  // disagrees with the file name is corruption: the load pipeline groups
  // fragments by name, so the records would land in the wrong batch.
  static Status ParseBatchFile(
      LogScheme scheme, const BatchFile& file,
      std::shared_ptr<const std::vector<uint8_t>> bytes, bool borrow,
      LogBatch* out);

  // Rewrites batch files on *persistent* devices so no record beyond the
  // pepoch watermark survives. A process killed mid-FlushAll can leave
  // "zombie" records (some loggers flushed, the watermark write never
  // happened); recovery excludes them from replay, and this erases them
  // so they cannot become replayable once the restarted process's epoch
  // counter catches up with their stamps. Files are rewritten in place
  // (kept even when emptied, preserving the sequence high-water mark);
  // simulated devices are left untouched.
  static Status TruncateBeyondWatermark(
      LogScheme scheme, const std::vector<device::StorageDevice*>& devices,
      Epoch pepoch);
};

}  // namespace pacman::logging

#endif  // PACMAN_LOGGING_LOG_STORE_H_
