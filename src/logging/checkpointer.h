// Copyright (c) 2026 The PACMAN reproduction authors.
// Transactionally-consistent checkpointing (paper §2.2).
//
// The engine is multi-versioned, so checkpoint threads read the snapshot
// at a chosen timestamp in parallel with active transactions. The
// checkpoint format depends on the logging scheme: physical logging must
// persist tuple locations alongside contents; logical/command logging
// persist contents only. Checkpoints are striped over several files per
// device so that recovery can reload them in parallel.
//
// Durability protocol: each checkpoint appends its stripes first,
// barriers every device once, checks each stripe's size, and only then
// writes its own per-id meta file (ckpt_meta_<id>, magic + checksum) on
// device 0. The meta is therefore a commit record — a process killed
// mid-checkpoint leaves stripes, perhaps torn mid-append, without a
// (valid) meta, and ReadLatestMeta skips anything that fails to parse,
// fails its checksum, or names stripes that do not all exist, falling
// back to the newest previous durable checkpoint. Log truncation must
// only ever trust a checkpoint ReadLatestMeta accepts.
//
// Stripes are streamed: the scan appends each stripe in chunks of about
// 64 KB as it fills them, so a checkpoint holds about that much per
// stripe, not its stripes (restore likewise reads a stripe only when its
// task runs; recovery/checkpoint_recovery.h). Appends are not idempotent,
// so a failed one is not retried: it fails the attempt, which removes the
// stripes it began. Ids are reused after a crash (recovery resumes them
// past the newest durable checkpoint), so a checkpoint first removes any
// stripe of its id a killed attempt left behind.
#ifndef PACMAN_LOGGING_CHECKPOINTER_H_
#define PACMAN_LOGGING_CHECKPOINTER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "device/storage_device.h"
#include "logging/log_record.h"
#include "storage/catalog.h"

namespace pacman::logging {

struct CheckpointMeta {
  uint64_t id = 0;
  Timestamp ts = kInvalidTimestamp;  // Snapshot timestamp.
  uint32_t files_per_ssd = 0;
  uint32_t num_ssds = 0;
  uint64_t total_bytes = 0;
};

// A reloaded checkpoint stripe: the stripe file's bytes, a flat run of
// records. A record is the table id and key as varints (as log images
// carry them); under physical logging the tuple's slot and version
// addresses (two raw u64, §2.2); then the row's compact bytes
// (common/serializer.h) — the bytes a version holds (storage/tuple.h),
// copied in and out as they are. Stripes have no header: the meta's magic
// ("PCK2") names this format, and a meta of the retired fixed-width one
// ("PCKM") is refused by name.
struct CheckpointStripe {
  std::vector<uint8_t> bytes;
  bool has_addresses = false;
  size_t num_tuples = 0;  // Counted by Checkpointer::ReadStripe's walk.
};

// One record of a stripe, viewed in place in the stripe's bytes.
struct StripeTuple {
  TableId table = 0;
  Key key = 0;
  const uint8_t* row = nullptr;  // Checked well formed (CheckCompactRow).
  size_t row_size = 0;
};

// Parses the record at byte `*offset` of `stripe` into *out and advances
// `*offset` past it. kCorruption, naming the offset, when the record is
// cut short or holds a bad varint or value tag.
Status ParseStripeTuple(const CheckpointStripe& stripe, size_t* offset,
                        StripeTuple* out);

// Calls fn(const StripeTuple&) for each record of `stripe` in file order.
// The first malformed record stops the walk with its ParseStripeTuple
// error; the records before it were visited.
template <typename Fn>
Status ForEachStripeTuple(const CheckpointStripe& stripe, Fn&& fn) {
  StripeTuple t;
  for (size_t offset = 0; offset < stripe.bytes.size();) {
    Status s = ParseStripeTuple(stripe, &offset, &t);
    if (!s.ok()) return s;
    fn(t);
  }
  return Status::Ok();
}

class Checkpointer {
 public:
  // `num_shards` > 1 stripes shard-locally: a tuple's stripe lives on the
  // device its home shard's logger flushes to, so per-shard recovery and
  // truncation stay device-local. `num_shards` == 1 keeps the original
  // global round-robin striping, byte for byte.
  Checkpointer(storage::Catalog* catalog, LogScheme scheme,
               std::vector<device::StorageDevice*> devices,
               uint32_t num_shards = 1)
      : catalog_(catalog),
        scheme_(scheme),
        devices_(std::move(devices)),
        num_shards_(num_shards) {}

  // Writes a consistent snapshot at `ts`, striped over `files_per_ssd`
  // files on each device and appended as the scan goes, barriers, then
  // commits it by writing the meta file and verifying it back. Fails
  // loudly — a non-ok status means the checkpoint is NOT durable and must
  // not be used for log truncation (e.g. a device acknowledged an append
  // it did not keep). On success `*out` holds the meta (with the total
  // real byte size, for the virtual-time write cost). `scanned`, if set,
  // runs once the scan has read every version it writes, before the
  // stripes' last appends: the caller's read pin ends there.
  Status TakeCheckpoint(uint64_t id, Timestamp ts, uint32_t files_per_ssd,
                        CheckpointMeta* out,
                        const std::function<void()>& scanned = nullptr);

  // Reads the newest *durable* checkpoint's metadata: the highest-id meta
  // file that parses, passes its checksum and whose stripes all exist.
  // Torn leftovers of a checkpoint interrupted by a crash are skipped.
  // kNotFound if no durable checkpoint exists. A meta of the retired
  // fixed-width format stops the search with its kCorruption: it is a
  // complete checkpoint this build cannot read.
  Status ReadLatestMeta(CheckpointMeta* out) const;

  // Parses (and checksum-validates) the meta file of checkpoint `id`.
  Status ReadMeta(uint64_t id, CheckpointMeta* out) const;

  // True when every stripe file the meta describes exists on its device.
  bool StripesComplete(const CheckpointMeta& meta) const;

  // Ids of every meta file present on device 0 (including torn ones that
  // would not validate), ascending. Retention uses this to find
  // superseded checkpoints to delete.
  std::vector<uint64_t> ListMetaIds() const;

  // Loads one stripe of checkpoint `meta` back from its device and walks
  // it: kCorruption if any record is malformed. Sets out->num_tuples.
  Status ReadStripe(const CheckpointMeta& meta, uint32_t ssd_index,
                    uint32_t file_index, CheckpointStripe* out) const;
  // Loads the stripe's bytes without walking them: the read of a restore
  // task, which checks each record as it installs it.
  Status ReadStripeBytes(const CheckpointMeta& meta, uint32_t ssd_index,
                         uint32_t file_index, CheckpointStripe* out) const;

  static std::string StripeFileName(uint64_t ckpt_id, uint32_t ssd_index,
                                    uint32_t file_index);
  static std::string MetaFileName(uint64_t ckpt_id);
  static bool ParseMetaFileName(const std::string& name, uint64_t* ckpt_id);
  static bool ParseStripeFileName(const std::string& name, uint64_t* ckpt_id,
                                  uint32_t* ssd_index, uint32_t* file_index);

  const std::vector<device::StorageDevice*>& devices() const {
    return devices_;
  }

 private:
  storage::Catalog* catalog_;
  LogScheme scheme_;
  std::vector<device::StorageDevice*> devices_;
  uint32_t num_shards_ = 1;
};

}  // namespace pacman::logging

#endif  // PACMAN_LOGGING_CHECKPOINTER_H_
