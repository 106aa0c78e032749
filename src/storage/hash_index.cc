#include "storage/hash_index.h"

namespace pacman::storage {

bool HashIndex::Insert(Key key, void* value) {
  Shard& s = shards_[ShardOf(key)];
  s.latch.LockExclusive();
  const bool inserted = s.map.emplace(key, value).second;
  s.latch.UnlockExclusive();
  return inserted;
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
