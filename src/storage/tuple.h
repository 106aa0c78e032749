// Copyright (c) 2026 The PACMAN reproduction authors.
// MVCC tuple slots and version chains.
//
// Each logical tuple (one candidate key of a table) owns a TupleSlot with a
// newest-first chain of committed versions. The engine is multi-versioned
// like the paper's Peloton configuration [42]: checkpointing reads a
// consistent snapshot at a timestamp while writers continue. The latched
// recovery schemes (PLR/LLR) append versions under the slot's stamp-word
// lock bit — the same bit forward commits lock (Silo keeps a record's lock
// in its TID word the same way) — while PACMAN (CLR-P / LLR-P) installs
// latch-free because its schedule already orders conflicting writes.
//
// Storage layout (what one row costs in memory):
//  - a TupleSlot is 24 bytes: key, stamp word, newest-version pointer;
//  - a Version is one allocation: a 17-byte header (begin_ts, older,
//    deleted) followed by the row in the compact encoding
//    (common/serializer.h), the bytes log images and checkpoint stripes
//    carry, so replay and restore install a row with one memcpy. Rows of
//    up to 7 bytes fill the struct's tail padding; glibc then serves the
//    version from a 32-byte chunk (a balance row holding an integral
//    double), and a 48-byte chunk up to 23 row bytes. String bytes are
//    always copied in, so a version never points into a caller's buffer.
//
// Readers view those bytes in place (Table::Read returns a pointer to
// them): a VM local is such a view, held for a forward transaction's whole
// attempt and, under CLR-P, across the pieces and threads of a replayed
// transaction. A version's row is immutable once linked, and the version
// lives until an install on its slot reclaims it. Every install takes a
// horizon and, inside the exclusion it already holds on the slot, frees
// each version older than the newest one at or below that horizon. A
// view of version V therefore stays valid while no install on V's slot
// can be handed a horizon at or above the begin_ts of a version newer
// than V. The installs' callers guarantee it:
//  - forward: a transaction attempt and a checkpoint scan hold a read pin
//    (txn/reclaim_horizon.h) from before they read the commit clock until
//    their last view is done. The horizon commits install under is a
//    commit clock that was stable (every commit at or below it had
//    installed) before any pin still held was taken, so whatever a pinned
//    reader views is the version the horizon keeps or a newer one;
//  - recovery: tuple replay views nothing, so it installs at its own
//    commit TID. CLR and CLR-P install below the largest TID of the
//    batches their gated graph has released, which no running piece reads
//    below (recovery/recovery.h, BatchGates).
// A read below the horizon (Table::Read at an older timestamp) may walk
// into a freed version: it is undefined. Whole-table scans
// (ContentHash, VisibleCount, NumVersions) are for quiescent points only.
// Table::Reset (a crash) frees every chain.
#ifndef PACMAN_STORAGE_TUPLE_H_
#define PACMAN_STORAGE_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"
#include "common/serializer.h"
#include "common/spin_latch.h"
#include "common/types.h"
#include "common/value.h"

namespace pacman::storage {

// One committed version of a tuple: this header, then the row's encoded
// bytes in the same allocation. Immutable once linked into the chain,
// except `older`, which the install that frees the versions below it
// clears; so row() may be viewed for as long as the version lives.
// Created by New, freed by Free; never copied or built on its own.
struct Version {
  Timestamp begin_ts;  // Creator's commit timestamp.
  Version* older;      // Next-older version, or nullptr (none, or reclaimed).
  bool deleted;        // Tombstone (SQL DELETE).

  // Where the row bytes start: right after `deleted`, in what would
  // otherwise be the struct's tail padding.
  static constexpr size_t kHeaderBytes =
      sizeof(Timestamp) + sizeof(Version*) + sizeof(bool);

  // Allocates a version holding `row`, encoded.
  static Version* New(Timestamp ts, bool deleted, Version* older,
                      const Row& row);
  // Same, from a row already encoded: the `size` well-formed bytes at
  // `row` (CheckCompactRow), copied with one memcpy.
  static Version* New(Timestamp ts, bool deleted, Version* older,
                      const uint8_t* row, size_t size);
  static void Free(Version* v);

  const uint8_t* row() const {
    return reinterpret_cast<const uint8_t*>(this) + kHeaderBytes;
  }
  size_t row_size() const { return CompactRowSize(row()); }
  // Decodes the row into *out, reusing its capacity.
  void ReadRow(Row* out) const { DecodeCompactRow(row(), out); }

  PACMAN_DISALLOW_COPY_AND_MOVE(Version);

 private:
  Version(Timestamp ts, bool del, Version* old)
      : begin_ts(ts), older(old), deleted(del) {}
  uint8_t* mutable_row() {
    return reinterpret_cast<uint8_t*>(this) + kHeaderBytes;
  }
};

// Header of one logical tuple. Chains are newest-first and strictly
// decreasing in begin_ts.
struct TupleSlot {
  Key key = 0;
  // Commit stamp + write lock (Silo-style parallel commit): the packed
  // begin_ts of the newest version plus a write-lock bit, kept coherent
  // with `newest` by every install path (Table::InstallVersion* /
  // LoadRow). OCC validation compares this word against the stamp a read
  // observed; commit locks it for the slots in its write set, and PLR/LLR
  // replay locks it around each latched install. 0 means "no version yet"
  // (kInvalidTimestamp), which is also what a reader of an absent key
  // records.
  OccStampLock wlock;
  std::atomic<Version*> newest{nullptr};

  // Returns the version visible at read timestamp `ts` (newest version with
  // begin_ts <= ts), or nullptr if none. A returned tombstone means the
  // tuple is logically absent at `ts`.
  const Version* VisibleAt(Timestamp ts) const {
    for (const Version* v = newest.load(std::memory_order_acquire);
         v != nullptr; v = v->older) {
      if (v->begin_ts <= ts) return v;
    }
    return nullptr;
  }

  ~TupleSlot() {
    Version* v = newest.load(std::memory_order_relaxed);
    while (v != nullptr) {
      Version* older = v->older;
      Version::Free(v);
      v = older;
    }
  }
};

// A deque node (512 bytes in libstdc++) then holds 21 slots.
static_assert(sizeof(TupleSlot) == 24, "TupleSlot must stay 24 bytes");

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_TUPLE_H_
