#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

namespace pacman::storage {

namespace {

// One operator new per version: the header, then `row_size` row bytes,
// never less than the struct itself (whose tail padding the row reuses).
Version* AllocateVersion(size_t row_size) {
  return static_cast<Version*>(::operator new(
      std::max(sizeof(Version), Version::kHeaderBytes + row_size)));
}

// Latch shards per partition hash index. The table partitioning already
// splits the key space, so the per-partition indexes share the unsharded
// latch budget (HashIndex::kNumShards in total, floor 8 per partition)
// instead of multiplying it — N full-width indexes would multiply the
// per-shard latches and entry arrays N-fold and turn every lookup into a
// cold-cache miss. num_shards = 1 keeps the full width, so the
// unsharded layout is bit-identical to the pre-partitioning engine.
uint32_t LatchShardsPerPartition(uint32_t num_shards) {
  const uint32_t budget = HashIndex::kNumShards / std::bit_floor(num_shards);
  return std::max(8u, budget);
}

// The one truncation step: ends the chain from `newest` down at the newest
// version with begin_ts <= horizon and returns the versions below that
// one, now cut off. With none below, it returns nullptr and writes
// nothing. A reader at a timestamp >= horizon stops at or above the
// version it keeps, never reading the link this clears.
Version* Truncate(Version* newest, Timestamp horizon) {
  if (horizon == kInvalidTimestamp) return nullptr;
  Version* keep = newest;
  while (keep != nullptr && keep->begin_ts > horizon) keep = keep->older;
  if (keep == nullptr || keep->older == nullptr) return nullptr;
  Version* cut = keep->older;
  keep->older = nullptr;
  return cut;
}

void FreeChain(Version* v) {
  while (v != nullptr) {
    Version* older = v->older;
    Version::Free(v);
    v = older;
  }
}

// Links `v`, whose `older` is the slot's newest version, as the newest,
// cuts the chain below `horizon` and publishes its stamp, then frees what
// it cut: the step every install ends with. The cut versions are
// unreachable once cut and no reader views them, so they are freed after
// the stamp store, which on a write-locked slot is the unlock.
void LinkVersion(TupleSlot* slot, Version* v, Timestamp horizon) {
  // Equal timestamps occur when one transaction writes a key twice; the
  // later install (program order) supersedes.
  PACMAN_DCHECK(v->older == nullptr || v->older->begin_ts <= v->begin_ts);
  slot->newest.store(v, std::memory_order_release);
  Version* cut = Truncate(v, horizon);
  // Publish the commit stamp: on a write-locked slot this single
  // release store is also the unlock, so a validator that observes the
  // slot unlocked with an unchanged stamp is guaranteed the version chain
  // it read is still the newest.
  slot->wlock.PublishTs(v->begin_ts);
  FreeChain(cut);
}

}  // namespace

Table::Table(TableId id, std::string name, Schema schema,
             uint32_t num_shards)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      num_parts_(num_shards) {
  PACMAN_CHECK_MSG(num_shards >= 1, "Table num_shards must be >= 1");
  parts_ = std::make_unique<Partition[]>(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    parts_[s].index =
        std::make_unique<HashIndex>(LatchShardsPerPartition(num_shards));
  }
}

Version* Version::New(Timestamp ts, bool deleted, Version* older,
                      const Row& row) {
  auto* v = new (AllocateVersion(CompactRowBytes(row)))
      Version(ts, deleted, older);
  EncodeCompactRow(row, v->mutable_row());
  return v;
}

Version* Version::New(Timestamp ts, bool deleted, Version* older,
                      const uint8_t* row, size_t size) {
  auto* v = new (AllocateVersion(size)) Version(ts, deleted, older);
  std::memcpy(v->mutable_row(), row, size);
  return v;
}

void Version::Free(Version* v) {
  v->~Version();
  ::operator delete(v);
}

TupleSlot* Table::IndexLookup(const Partition& part, Key key) const {
  return static_cast<TupleSlot*>(part.index->Lookup(key));
}

TupleSlot* Table::GetSlot(Key key) const {
  return IndexLookup(Part(key), key);
}

TupleSlot* Table::GetOrCreateSlot(Key key) {
  Partition& part = Part(key);
  TupleSlot* slot = IndexLookup(part, key);
  if (slot != nullptr) return slot;
  // Create a slot speculatively and offer it to the index, which hands
  // back the slot another thread indexed first, if one did since the
  // lookup. The arena latch, held across the offer, keeps the speculative
  // slot the arena's last, so a lost race pops it again.
  SpinLatchGuard g(part.arena_latch);
  TupleSlot* created = &part.arena.emplace_back();
  created->key = key;
  slot = static_cast<TupleSlot*>(part.index->Insert(key, created));
  if (slot != created) part.arena.pop_back();
  return slot;
}

void Table::LoadRow(Key key, const Row& row, Timestamp ts) {
  LoadVersion(key, Version::New(ts, false, nullptr, row));
}

void Table::LoadRow(Key key, const uint8_t* row, size_t size, Timestamp ts) {
  LoadVersion(key, Version::New(ts, false, nullptr, row, size));
}

void Table::LoadVersion(Key key, Version* v) {
  TupleSlot* slot = GetOrCreateSlot(key);
  PACMAN_CHECK(slot->newest.load(std::memory_order_relaxed) == nullptr);
  slot->newest.store(v, std::memory_order_release);
  slot->wlock.PublishTs(v->begin_ts);
}

Status Table::Read(Key key, Timestamp ts, const uint8_t** row) const {
  Timestamp observed;
  TupleSlot* slot;
  return ReadObserved(key, ts, row, &observed, &slot);
}

Status Table::ReadObserved(Key key, Timestamp ts, const uint8_t** row,
                           Timestamp* observed, TupleSlot** slot) const {
  *row = nullptr;
  *observed = kInvalidTimestamp;
  *slot = GetSlot(key);
  if (*slot == nullptr) return Status::NotFound();
  const Version* v = (*slot)->VisibleAt(ts);
  if (v == nullptr) return Status::NotFound();
  *observed = v->begin_ts;
  if (v->deleted) return Status::NotFound();
  *row = v->row();
  return Status::Ok();
}

Status Table::Read(Key key, Timestamp ts, Row* out) const {
  const uint8_t* row;
  Status s = Read(key, ts, &row);
  if (s.ok()) DecodeCompactRow(row, out);
  return s;
}

void Table::InstallVersionUnlatched(TupleSlot* slot, const Row& row,
                                    Timestamp ts, bool deleted,
                                    Timestamp horizon) {
  LinkVersion(slot,
              Version::New(ts, deleted,
                           slot->newest.load(std::memory_order_relaxed), row),
              horizon);
}

void Table::InstallRowUnlatched(TupleSlot* slot, const uint8_t* row,
                                size_t size, Timestamp ts, bool deleted,
                                Timestamp horizon) {
  LinkVersion(slot,
              Version::New(ts, deleted,
                           slot->newest.load(std::memory_order_relaxed), row,
                           size),
              horizon);
}

bool Table::InstallRowLastWriterWins(TupleSlot* slot, const uint8_t* row,
                                     size_t size, Timestamp ts, bool deleted,
                                     Timestamp horizon) {
  slot->wlock.Lock();
  const Version* old = slot->newest.load(std::memory_order_relaxed);
  if (old != nullptr && old->begin_ts >= ts) {
    slot->wlock.Unlock();  // Thomas write rule: dropped, stamp unchanged.
    return false;
  }
  // Publishing unlocks.
  InstallRowUnlatched(slot, row, size, ts, deleted, horizon);
  return true;
}

void Table::ForEachSlot(const std::function<void(TupleSlot*)>& fn) const {
  for (uint32_t s = 0; s < num_parts_; ++s) {
    for (const TupleSlot& slot : parts_[s].arena) {
      fn(const_cast<TupleSlot*>(&slot));
    }
  }
}

std::vector<TupleSlot*> Table::SnapshotSlots() const {
  std::vector<TupleSlot*> out;
  for (uint32_t s = 0; s < num_parts_; ++s) {
    const Partition& part = parts_[s];
    SpinLatchGuard g(part.arena_latch);
    out.reserve(out.size() + part.arena.size());
    for (const TupleSlot& slot : part.arena) {
      out.push_back(const_cast<TupleSlot*>(&slot));
    }
  }
  return out;
}

uint64_t Table::NumKeys() const {
  uint64_t n = 0;
  for (uint32_t s = 0; s < num_parts_; ++s) n += parts_[s].arena.size();
  return n;
}

uint64_t Table::NumVersions() const {
  uint64_t n = 0;
  for (uint32_t s = 0; s < num_parts_; ++s) {
    for (const TupleSlot& slot : parts_[s].arena) {
      for (const Version* v = slot.newest.load(std::memory_order_acquire);
           v != nullptr; v = v->older) {
        ++n;
      }
    }
  }
  return n;
}

uint64_t Table::ContentHash(Timestamp ts) const {
  uint64_t h = 0;
  Row row;
  for (uint32_t s = 0; s < num_parts_; ++s) {
    for (const TupleSlot& slot : parts_[s].arena) {
      const Version* v = slot.VisibleAt(ts);
      if (v == nullptr || v->deleted) continue;
      v->ReadRow(&row);
      uint64_t kh = slot.key * 0x9e3779b97f4a7c15ull;
      uint64_t rh = HashRow(row);
      // XOR of per-key mixes: order-independent, hence also invariant
      // under how the keys are partitioned across shards.
      h ^= kh ^ (rh + 0x9e3779b97f4a7c15ull + (kh << 6) + (kh >> 2));
    }
  }
  return h;
}

uint64_t Table::VisibleCount(Timestamp ts) const {
  uint64_t n = 0;
  for (uint32_t s = 0; s < num_parts_; ++s) {
    for (const TupleSlot& slot : parts_[s].arena) {
      const Version* v = slot.VisibleAt(ts);
      if (v != nullptr && !v->deleted) ++n;
    }
  }
  return n;
}

void Table::Reset() {
  for (uint32_t s = 0; s < num_parts_; ++s) {
    parts_[s].arena.clear();
    parts_[s].index =
        std::make_unique<HashIndex>(LatchShardsPerPartition(num_parts_));
  }
}

}  // namespace pacman::storage
