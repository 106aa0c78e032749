#include "storage/hash_index.h"

namespace pacman::storage {

bool HashIndex::Insert(Key key, void* value) {
  Shard& s = shards_[ShardOf(key)];
  s.latch.LockExclusive();
  auto [it, inserted] = s.map.emplace(key, value);
  s.latch.UnlockExclusive();
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

void* HashIndex::Upsert(Key key, void* value) {
  Shard& s = shards_[ShardOf(key)];
  s.latch.LockExclusive();
  auto [it, inserted] = s.map.emplace(key, value);
  void* prev = inserted ? nullptr : it->second;
  it->second = value;
  s.latch.UnlockExclusive();
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return prev;
}

void* HashIndex::Lookup(Key key) const {
  const Shard& s = shards_[ShardOf(key)];
  s.latch.LockShared();
  auto it = s.map.find(key);
  void* result = it == s.map.end() ? nullptr : it->second;
  s.latch.UnlockShared();
  return result;
}

}  // namespace pacman::storage
