// Copyright (c) 2026 The PACMAN reproduction authors.
// Shard routing: the one hash that assigns a key to its home shard.
// Every layer that partitions state — table indexes/slots, §4.5 log
// staging, loggers, checkpoint stripes, recovery pipelines — must agree
// on this mapping, so it lives in exactly one place. Hashing the key
// alone (not table id) co-partitions tables that share key values (bank
// Current/Saving, smallbank Checking/Savings), which is what makes the
// common "touch several tables of one entity" transaction single-shard.
#ifndef PACMAN_STORAGE_SHARD_H_
#define PACMAN_STORAGE_SHARD_H_

#include <cstdint>

#include "common/types.h"

namespace pacman::storage {

// Home shard of `key` under `num_shards` partitions. splitmix64's
// finalizer scatters sequential keys (workloads use dense ids), and the
// multiply-shift range reduction maps the scrambled value to [0, N)
// without a hardware divide — this runs on every slot access of a
// sharded table, and a runtime `% N` costs more than the hash itself.
// Balanced for arbitrary N >= 1, not just powers of two.
inline uint32_t ShardOfKey(Key key, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t x = static_cast<uint64_t>(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(x) * num_shards) >> 64);
}

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_SHARD_H_
