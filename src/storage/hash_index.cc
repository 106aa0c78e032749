#include "storage/hash_index.h"

#include <bit>

namespace pacman::storage {

namespace {

// A new shard's entry count: 8 entries, two cache lines.
constexpr uint32_t kInitialBits = 3;

}  // namespace

HashIndex::HashIndex(uint32_t num_shards)
    : shard_bits_(std::countr_zero(num_shards)),
      shards_(std::make_unique<Shard[]>(num_shards)) {
  PACMAN_CHECK_MSG(num_shards >= 1 && std::has_single_bit(num_shards),
                   "HashIndex shard count must be a power of two");
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_[i].entries = std::make_unique<Entry[]>(size_t{1} << kInitialBits);
    shards_[i].bits = kInitialBits;
  }
}

size_t HashIndex::Find(const Shard& s, uint64_t hash, Key key) const {
  const size_t mask = (size_t{1} << s.bits) - 1;
  // The start: the product's bits just below the shard bits.
  size_t i = (hash << shard_bits_) >> (64 - s.bits);
  while (s.entries[i].value != nullptr && s.entries[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void HashIndex::Grow(Shard* s) const {
  const size_t old_count = size_t{1} << s->bits;
  Shard grown;
  grown.bits = s->bits + 1;
  grown.entries = std::make_unique<Entry[]>(old_count * 2);  // All empty.
  for (size_t j = 0; j < old_count; ++j) {
    const Entry& e = s->entries[j];
    // Every key is distinct, so Find stops at an empty entry.
    if (e.value != nullptr) grown.entries[Find(grown, Hash(e.key), e.key)] = e;
  }
  s->entries = std::move(grown.entries);
  s->bits = grown.bits;
}

void* HashIndex::Lookup(Key key) const {
  const uint64_t hash = Hash(key);
  Shard& s = ShardOf(hash);
  s.latch.LockShared();
  void* result = s.entries[Find(s, hash, key)].value;
  s.latch.UnlockShared();
  return result;
}

}  // namespace pacman::storage
