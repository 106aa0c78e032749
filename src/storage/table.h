// Copyright (c) 2026 The PACMAN reproduction authors.
// Main-memory table: a slot arena of MVCC tuples plus its primary point
// index, a sharded open-addressing hash (storage/hash_index.h) from key
// to slot. Versions hold their rows encoded (storage/tuple.h); reads
// return a view of those bytes, and only the reader decides what to
// decode.
#ifndef PACMAN_STORAGE_TABLE_H_
#define PACMAN_STORAGE_TABLE_H_

#include <deque>
#include <functional>
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
  // index and slot arena, so single-shard transactions never touch (or
  // contend on) another shard's structures. `num_shards` = 1 is the
  // unsharded layout, bit-identical to the pre-partitioning engine.
  Table(TableId id, std::string name, Schema schema,
        uint32_t num_shards = 1);
  PACMAN_DISALLOW_COPY_AND_MOVE(Table);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint32_t num_shards() const { return num_parts_; }

  // --- Slot access ------------------------------------------------------
  // Returns the slot for `key`, or nullptr if the key was never inserted.
  TupleSlot* GetSlot(Key key) const;
  // Returns the slot for `key`, creating (and indexing) it if absent.
  TupleSlot* GetOrCreateSlot(Key key);

  // --- Bulk load (initial population / checkpoint restore) --------------
  // Installs `row` as the sole version visible from timestamp `ts`.
  // Precondition: `key` has no versions yet.
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

  // Visits every slot (any order, including logically deleted tuples).
  // NOT safe against concurrent slot creation; single-threaded callers
  // (recovery, tests) only.
  void ForEachSlot(const std::function<void(TupleSlot*)>& fn) const;

  // Stable pointers to every slot currently in the arena, collected under
  // the arena latch — the traversal a *background* checkpoint scan uses
  // while concurrent transactions keep inserting keys (ForEachSlot's bare
  // iteration races the deque growth). The deque gives pointer stability,
  // so the returned pointers stay valid; slots created after the snapshot
  // cannot hold a version visible at the checkpoint's (already stable)
  // timestamp, so missing them is not a hole in the snapshot.
  std::vector<TupleSlot*> SnapshotSlots() const;

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
  // One shard's worth of table state. Key-routed operations touch exactly
  // one partition; whole-table operations (hashes, checkpoints) iterate
  // all of them. Cache-line aligned so two partitions' arena
  // latches never share a line — adjacent shards are exactly the state
  // that distinct workers touch concurrently.
  struct alignas(64) Partition {
    std::unique_ptr<HashIndex> index;
    // Slot arena. Deque gives pointer stability; creation is latched.
    mutable SpinLatch arena_latch;
    std::deque<TupleSlot> arena;
  };

  Partition& Part(Key key) const {
    return parts_[ShardOfKey(key, num_parts_)];
  }
  TupleSlot* IndexLookup(const Partition& part, Key key) const;
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

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_TABLE_H_
