// Copyright (c) 2026 The PACMAN reproduction authors.
// Sharded hash index: Key -> void*. The point index of tables whose keys
// are sparse or random (a workload picks the index per table; the B+tree
// serves dense, sequentially loaded key ranges). Thread-safe via
// per-shard reader/writer spin latches.
#ifndef PACMAN_STORAGE_HASH_INDEX_H_
#define PACMAN_STORAGE_HASH_INDEX_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

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
  // map/latch metadata across partitions stays constant; the per-lookup
  // cache footprint is what a partitioned table would otherwise multiply
  // by its partition count.
  explicit HashIndex(uint32_t num_shards = kNumShards)
      : num_shards_(num_shards),
        shift_(64 - std::countr_zero(num_shards)),
        shards_(std::make_unique<Shard[]>(num_shards)) {
    PACMAN_CHECK_MSG(num_shards >= 1 && std::has_single_bit(num_shards),
                     "HashIndex shard count must be a power of two");
  }
  PACMAN_DISALLOW_COPY_AND_MOVE(HashIndex);

  // Inserts key -> value; returns false if the key already exists.
  bool Insert(Key key, void* value);

  // Returns the value or nullptr.
  void* Lookup(Key key) const;

 private:
  struct Shard {
    mutable RwSpinLatch latch;
    std::unordered_map<Key, void*> map;
  };

  size_t ShardOf(Key key) const {
    // Multiplicative hash; the top log2(num_shards_) bits pick the shard.
    if (num_shards_ == 1) return 0;  // shift_ would be 64 (UB).
    return (key * 0x9e3779b97f4a7c15ull) >> shift_;
  }

  uint32_t num_shards_;
  uint32_t shift_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_HASH_INDEX_H_
