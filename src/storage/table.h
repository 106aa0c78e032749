// Copyright (c) 2026 The PACMAN reproduction authors.
// Main-memory table: slot storage for MVCC tuples plus its primary point
// index, a sharded open-addressing hash (storage/hash_index.h) from key
// to slot. Versions hold their rows encoded (storage/tuple.h); reads
// return a view of those bytes, and only the reader decides what to
// decode.
//
// Slot storage: each partition keeps kLanes lanes, and a thread creates
// its slots in one lane (threads take lanes round robin, in the order
// they first create a slot). A lane is a list of fixed chunks of
// kChunkSlots slots, appended in creation order under the lane's own
// latch, which only its thread and a walker take. A new key therefore
// costs one exclusive latch on its index shard, one probe, and the
// uncontended latch of its creator's lane, taken inside the first; slots
// never move, and creators on different threads never share a latch
// beyond the index shard's.
#ifndef PACMAN_STORAGE_TABLE_H_
#define PACMAN_STORAGE_TABLE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/hash_index.h"
#include "storage/shard.h"
#include "storage/tuple.h"

namespace pacman::storage {

class Table {
 public:
  // `num_shards` > 1 hash-partitions the table: each shard owns its own
  // index and slot lanes, so single-shard transactions never touch (or
  // contend on) another shard's structures. `num_shards` = 1 is the
  // unsharded layout, bit-identical to the pre-partitioning engine.
  Table(TableId id, std::string name, Schema schema,
        uint32_t num_shards = 1);
  PACMAN_DISALLOW_COPY_AND_MOVE(Table);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint32_t num_shards() const { return num_parts_; }

  // Lanes per partition, and slots per lane chunk: a chunk is 504 bytes,
  // the size of a libstdc++ deque node, so a table's unused slots stay
  // within one partly filled chunk per lane it has used.
  static constexpr uint32_t kLanes = 16;
  static constexpr size_t kChunkSlots = 21;

  // --- Slot access ------------------------------------------------------
  // Returns the slot for `key`, or nullptr if the key was never inserted.
  TupleSlot* GetSlot(Key key) const;
  // Returns the slot for `key`, creating (and indexing) it if absent.
  TupleSlot* GetOrCreateSlot(Key key);

  // --- Bulk load (initial population / checkpoint restore) --------------
  // Installs `row` as the sole version visible from timestamp `ts`.
  // Precondition: `key` has no versions yet; it is usually new, so the
  // slot is created without the shared-latch lookup GetOrCreateSlot
  // starts with.
  void LoadRow(Key key, const Row& row, Timestamp ts);
  // Same, from a row already encoded: the `size` well-formed compact bytes
  // at `row` (CheckCompactRow). Checkpoint restore installs stripe rows
  // with it: one allocation and one memcpy per tuple.
  void LoadRow(Key key, const uint8_t* row, size_t size, Timestamp ts);

  // --- MVCC reads -------------------------------------------------------
  // Points *row at the packed bytes (common/serializer.h) of the row
  // visible at `ts`: a view into the version itself, valid until an
  // install reclaims it (storage/tuple.h). `ts` must not be below the
  // horizon later installs on the key may pass, or the read is undefined.
  // kNotFound, with *row null, if absent/deleted.
  Status Read(Key key, Timestamp ts, const uint8_t** row) const;
  // Same, and also reports the begin_ts of the version the read resolved
  // to (tombstones included), or 0 when the key had no version at `ts`,
  // plus the slot itself (nullptr when the key has none). Those are what
  // OCC validation later compares against the slot's commit stamp
  // (TupleSlot::wlock), so transactions record them per read.
  Status ReadObserved(Key key, Timestamp ts, const uint8_t** row,
                      Timestamp* observed, TupleSlot** slot) const;
  // Decodes the row Read views into *out: a convenience for tests and
  // tools, not a second read path.
  Status Read(Key key, Timestamp ts, Row* out) const;

  // --- Version installation ---------------------------------------------
  // Every install keeps TupleSlot::wlock equal to the newest version's
  // begin_ts; on a slot the caller write-locked, the stamp publication
  // doubles as the unlock (commit's install-and-release step).
  //
  // Every install also reclaims: before it publishes the stamp it cuts
  // from the chain each version of the slot older than the newest one
  // with begin_ts <= `horizon` (none when no version is that old;
  // kInvalidTimestamp reclaims nothing), and it frees them after. The
  // walk to that version and the cut run inside the exclusion the install
  // already holds on the slot, so two installs never cut one chain at
  // once. The caller guarantees that no reader still views, or will read
  // at a timestamp that resolves to, a version below the one the horizon
  // keeps (storage/tuple.h).
  //
  // Appends a committed version on `slot` without taking the latch: used
  // by forward processing (the committer holds the slot's write lock,
  // which this install releases) and by PACMAN's command replay, whose
  // schedule already serialized conflicting writers so the latch is
  // provably unnecessary (§4.5). `ts` must not be below the current
  // newest version's begin_ts.
  static void InstallVersionUnlatched(TupleSlot* slot, const Row& row,
                                      Timestamp ts, bool deleted,
                                      Timestamp horizon);
  // The installs of tuple-level replay, from a log image's row: the
  // `size` compact bytes at `row` (common/serializer.h, one
  // CheckCompactRow accepted), copied into the version with one memcpy.
  //
  // Unlatched, as above: LLR-P's per-key ordered installs.
  static void InstallRowUnlatched(TupleSlot* slot, const uint8_t* row,
                                  size_t size, Timestamp ts, bool deleted,
                                  Timestamp horizon);
  // Last-writer-wins install (Thomas write rule): drops the write if a
  // version with begin_ts >= ts is already in place. Used by PLR/LLR whose
  // threads replay log records out of order. Takes the slot latch — the
  // stamp word's lock bit, which the install's stamp publication
  // releases; a dropped write releases it with the stamp unchanged and
  // reclaims nothing. Returns whether the write was installed.
  static bool InstallRowLastWriterWins(TupleSlot* slot, const uint8_t* row,
                                       size_t size, Timestamp ts,
                                       bool deleted, Timestamp horizon);

  // Calls fn(TupleSlot*) for every slot, logically deleted tuples
  // included: partition by partition, lane by lane, each lane in creation
  // order. Safe against concurrent slot creation, which is how a
  // background checkpoint scans while transactions insert keys: it takes
  // a lane's latch once per chunk, only to read where the chunk is and
  // how many of its slots exist, and visits them after letting go, so it
  // holds no latch while `fn` runs and no list of slots. Every slot it
  // visits is initialized; a slot created during the walk may be missed,
  // which a checkpoint can afford, since such a slot holds no version
  // visible at its (already stable) timestamp.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const;

  // --- Introspection ------------------------------------------------------
  uint64_t NumKeys() const;
  // Versions in every chain, superseded ones included: a walk of every
  // chain, for quiescent callers (tests, tools) only.
  uint64_t NumVersions() const;
  // Order-independent fingerprint of the visible content at `ts`; used by
  // the recovery correctness checks (recovered state must match pre-crash).
  uint64_t ContentHash(Timestamp ts) const;
  // Count of visible (non-deleted) tuples at `ts`.
  uint64_t VisibleCount(Timestamp ts) const;

  // Drops all tuples and index entries. Models the loss of main memory at a
  // crash: recovery starts from an empty table.
  void Reset();

 private:
  struct SlotChunk {
    TupleSlot slots[kChunkSlots];
  };
  // The slots one thread created in a partition, in creation order. The
  // latch (a line of its own) guards `chunks` and `size`.
  struct Lane {
    mutable SpinLatch latch;
    std::vector<std::unique_ptr<SlotChunk>> chunks;
    size_t size = 0;  // Slots created: the first `size` are initialized.
  };
  // One shard's worth of table state. Key-routed operations touch exactly
  // one partition; whole-table operations (hashes, checkpoints) iterate
  // all of them.
  struct Partition {
    std::unique_ptr<HashIndex> index;
    Lane lanes[kLanes];
  };

  Partition& Part(Key key) const {
    return parts_[ShardOfKey(key, num_parts_)];
  }
  TupleSlot* IndexLookup(const Partition& part, Key key) const;
  // Returns the slot of `key` in `part`, creating and indexing it if
  // absent: one probe under the index shard's exclusive latch.
  TupleSlot* GetOrInsertSlot(Partition& part, Key key);
  // Installs `v` as the sole version of `key` (LoadRow).
  void LoadVersion(Key key, Version* v);

  TableId id_;
  std::string name_;
  Schema schema_;

  // Contiguous by-value partitions (one indirection on the per-access
  // path, vs two through a pointer array).
  uint32_t num_parts_;
  std::unique_ptr<Partition[]> parts_;
};

template <typename Fn>
void Table::ForEachSlot(Fn&& fn) const {
  for (uint32_t p = 0; p < num_parts_; ++p) {
    for (const Lane& lane : parts_[p].lanes) {
      for (size_t first = 0;; first += kChunkSlots) {
        SlotChunk* chunk;
        size_t n;
        {
          SpinLatchGuard g(lane.latch);
          if (first >= lane.size) break;
          chunk = lane.chunks[first / kChunkSlots].get();
          n = std::min(kChunkSlots, lane.size - first);
        }
        for (size_t i = 0; i < n; ++i) fn(&chunk->slots[i]);
      }
    }
  }
}

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_TABLE_H_
