// Copyright (c) 2026 The PACMAN reproduction authors.
// Sharded hash index: Key -> void*, the point index of every table (a
// TupleSlot* per key). Thread-safe via per-shard reader/writer spin
// latches.
//
// Each latch shard is a flat open-addressing table: a power-of-two array
// of 16-byte {key, value} entries, probed linearly. A null value marks an
// empty entry, so every key (0 and ~0 included) is storable and a null
// value is not. Keys are never removed (the engine models SQL DELETE as a
// tombstone version), so there are no deletion markers. A shard doubles
// under its exclusive latch before an insert would fill more than 7/8 of
// it, which bounds probe runs and leaves an empty entry to end every miss:
// 16 bytes per entry at 7/16 to 7/8 load is 18 to 37 bytes per key.
//
// One multiplicative (Fibonacci) hash of the key places it: the top bits
// of the product pick the shard and the bits just below them the first
// entry probed, so the keys of one shard still spread over its array.
// Dense key ranges, the workloads' ids, then land nearly one per entry.
#ifndef PACMAN_STORAGE_HASH_INDEX_H_
#define PACMAN_STORAGE_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/types.h"

namespace pacman::storage {

class HashIndex {
 public:
  static constexpr uint32_t kNumShards = 64;

  // `num_shards` (a power of two) sets the latch granularity. Callers
  // that already partition their key space — a sharded Table keeps one
  // HashIndex per table partition — pass a smaller count so the *total*
  // latch and table metadata across partitions stays constant.
  explicit HashIndex(uint32_t num_shards = kNumShards);
  PACMAN_DISALLOW_COPY_AND_MOVE(HashIndex);

  // Inserts key -> value unless the key is present, and returns the value
  // the key maps to afterwards: `value` when it was inserted, else the
  // present one, unchanged. One probe either way. `value` must not be
  // null (PACMAN_CHECKed): null marks an empty entry.
  void* Insert(Key key, void* value);

  // Returns the value or nullptr.
  void* Lookup(Key key) const;

 private:
  struct Entry {
    Key key;
    void* value;  // nullptr: the entry is empty.
  };
  struct Shard {
    mutable RwSpinLatch latch;
    std::unique_ptr<Entry[]> entries;
    uint32_t bits = 0;  // log2 of the entry count.
    uint64_t size = 0;  // Occupied entries.
  };

  static uint64_t Hash(Key key) { return key * 0x9e3779b97f4a7c15ull; }
  Shard& ShardOf(uint64_t hash) const {
    // shard_bits_ = 0 (one shard) would shift by 64 (UB).
    return shards_[shard_bits_ == 0 ? 0 : hash >> (64 - shard_bits_)];
  }
  // The entry holding `key` in `s`, or the empty entry that ends its run.
  size_t Find(const Shard& s, uint64_t hash, Key key) const;
  // Doubles `s`, rehashing every entry; the caller holds its latch
  // exclusively.
  void Grow(Shard* s) const;

  uint32_t shard_bits_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_HASH_INDEX_H_
