#include "txn/transaction_manager.h"

#include <algorithm>
#include <thread>

#include "common/serializer.h"

namespace pacman::txn {

Status Transaction::Read(storage::Table* table, Key key,
                         const uint8_t** row) {
  // Own writes first (reverse order: latest buffered write wins).
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    if (it->table == table && it->key == key) {
      if (it->deleted) {
        *row = nullptr;
        return Status::NotFound();
      }
      *row = EncodedWrite(&*it);
      return Status::Ok();
    }
  }
  ReadEntry entry{table, key, kInvalidTimestamp, nullptr};
  Status s =
      table->ReadObserved(key, read_ts_, row, &entry.observed, &entry.slot);
  read_set_.push_back(entry);
  return s;
}

Status Transaction::Read(storage::Table* table, Key key, Row* out) {
  const uint8_t* row;
  Status s = Read(table, key, &row);
  if (s.ok()) DecodeCompactRow(row, out);
  return s;
}

const uint8_t* Transaction::EncodedWrite(WriteEntry* w) {
  if (w->encoded == nullptr) {
    own_rows_.emplace_back(new uint8_t[CompactRowBytes(w->row)]);
    EncodeCompactRow(w->row, own_rows_.back().get());
    w->encoded = own_rows_.back().get();
  }
  return w->encoded;
}

void Transaction::Write(storage::Table* table, Key key, Row row) {
  write_set_.push_back({table, key, std::move(row), false, false, nullptr});
}

void Transaction::Insert(storage::Table* table, Key key, Row row) {
  write_set_.push_back({table, key, std::move(row), false, true, nullptr});
}

void Transaction::Delete(storage::Table* table, Key key) {
  write_set_.push_back({table, key, {}, true, false, nullptr});
}

void Transaction::CoalesceWrites() {
  if (!needs_coalesce_ || write_set_.size() < 2) return;
  std::vector<WriteEntry> coalesced;
  coalesced.reserve(write_set_.size());
  for (size_t i = 0; i < write_set_.size(); ++i) {
    bool superseded = false;
    for (size_t j = i + 1; j < write_set_.size(); ++j) {
      if (write_set_[j].table == write_set_[i].table &&
          write_set_[j].key == write_set_[i].key) {
        // A later write wins, but an earlier insert keeps its semantics.
        write_set_[j].is_insert =
            write_set_[j].is_insert || write_set_[i].is_insert;
        superseded = true;
        break;
      }
    }
    if (!superseded) coalesced.push_back(std::move(write_set_[i]));
  }
  write_set_ = std::move(coalesced);
}

namespace {

// Canonical slot-lock order. All committers lock their (coalesced, so
// duplicate-free) write sets in this order, which rules out lock cycles.
bool CanonicalWriteOrder(const WriteEntry& a, const WriteEntry& b) {
  if (a.table->id() != b.table->id()) return a.table->id() < b.table->id();
  return a.key < b.key;
}

}  // namespace

// Scopes one commit's membership in the in-flight section on every exit
// path (abort or success).
class CommitSectionGuard {
 public:
  explicit CommitSectionGuard(TransactionManager* tm) : tm_(tm) {
    tm_->EnterCommitSection();
  }
  ~CommitSectionGuard() { tm_->ExitCommitSection(); }
  PACMAN_DISALLOW_COPY_AND_MOVE(CommitSectionGuard);

 private:
  TransactionManager* tm_;
};

namespace {
// The manager whose gate this thread closed (inside QuiesceCommits).
thread_local const TransactionManager* t_quiescing = nullptr;
}  // namespace

void TransactionManager::EnterCommitSection() {
  if (t_quiescing == this) {
    // The quiescer's own commit: it is alone in the section.
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  for (;;) {
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    if (!gate_closed_.load(std::memory_order_seq_cst)) return;
    // A quiescer closed the gate: back out so its counter wait can reach
    // zero, and re-enter once the barrier lifts.
    in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    while (gate_closed_.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  }
}

void TransactionManager::QuiesceCommits(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> g(quiesce_mu_);
  gate_closed_.store(true, std::memory_order_seq_cst);
  while (in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  quiesced_tid_.store(next_tid_.load(std::memory_order_acquire),
                      std::memory_order_release);
  t_quiescing = this;
  fn();
  t_quiescing = nullptr;
  gate_closed_.store(false, std::memory_order_release);
}

Timestamp TransactionManager::DrawCommitTid(Epoch epoch) {
  // Epoch prefixes and the lock bit stolen by slot stamps together need
  // the TID to fit in 63 bits (common/types.h). Overflow would silently
  // corrupt every slot stamp and TID comparison, so the ceiling is
  // enforced in release builds too — aborting loudly is the repo's
  // invariant idiom.
  PACMAN_CHECK_MSG(epoch < (Epoch{1} << 22),
                   "epoch exceeds the 2^22 commit-TID prefix ceiling");
  const Timestamp floor = MakeTid(epoch, 0);
  Timestamp cur = next_tid_.load(std::memory_order_relaxed);
  Timestamp tid;
  do {
    tid = std::max(cur, floor) + 1;
  } while (!next_tid_.compare_exchange_weak(cur, tid,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
  return tid;
}

void TransactionManager::AdvanceLastCommitted(Timestamp cts) {
  Timestamp cur = last_committed_.load(std::memory_order_relaxed);
  while (cur < cts &&
         !last_committed_.compare_exchange_weak(cur, cts,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
  }
}

Timestamp TransactionManager::StableTimestamp() {
  // Under the barrier no commit is between draw and install, so the
  // counter value is exactly the largest TID whose installs are visible.
  Timestamp s = kInvalidTimestamp;
  QuiesceCommits([&] { s = quiesced_tid_.load(std::memory_order_relaxed); });
  return s;
}

Status TransactionManager::Commit(Transaction* t, CommitInfo* info) {
  t->CoalesceWrites();
  CommitSectionGuard in_flight(this);

  // Phase 1: write-lock the write set in canonical order (creating slots
  // for keys that never existed). From here until install/unlock no other
  // transaction can commit a version into these slots.
  std::sort(t->write_set_.begin(), t->write_set_.end(), CanonicalWriteOrder);
  std::vector<storage::TupleSlot*> locked;
  locked.reserve(t->write_set_.size());
  for (const WriteEntry& w : t->write_set_) {
    storage::TupleSlot* slot = w.table->GetOrCreateSlot(w.key);
    if (!slot->wlock.TryLock()) {
      lock_waits_.fetch_add(1, std::memory_order_relaxed);
      slot->wlock.Lock();
    }
    locked.push_back(slot);
  }

  // Phase 2: draw the commit TID — after the locks, before validation.
  // This placement is what orders anti-dependencies by TID (see the
  // header's serialization argument); do not move it.
  const Epoch epoch = epochs_->current();
  const Timestamp cts = DrawCommitTid(epoch);

  auto abort_with = [&](const char* why) {
    for (storage::TupleSlot* slot : locked) slot->wlock.Unlock();
    num_aborts_.fetch_add(1, std::memory_order_relaxed);
    Abort(t);
    return Status::Aborted(why);
  };

  // Phase 3a: validate the read set. One atomic load per entry gives
  // (newest version stamp, lock bit) together: the read stands iff the
  // stamp still equals what the read observed and nobody else holds the
  // slot's write lock. Slots in our own write set are locked by us, which
  // is fine — the stamp cannot change under our own lock; membership is a
  // binary search over the canonically sorted (and locked) write set.
  for (const ReadEntry& r : t->read_set_) {
    // The slot pointer was cached at read time; a key that had no slot
    // then may have gained one since (a racing insert), so only the
    // nullptr case re-consults the index.
    storage::TupleSlot* slot =
        r.slot != nullptr ? r.slot : r.table->GetSlot(r.key);
    if (slot == nullptr) continue;  // Still absent (observed was 0 too).
    const uint64_t stamp = slot->wlock.Load();
    if (OccStampLock::TsOf(stamp) != r.observed) {
      return abort_with("read validation failed");
    }
    if (OccStampLock::IsLocked(stamp)) {
      // Locked: ours iff (table, key) is in the sorted write set.
      const auto it = std::lower_bound(
          t->write_set_.begin(), t->write_set_.end(), r,
          [](const WriteEntry& w, const ReadEntry& want) {
            if (w.table->id() != want.table->id()) {
              return w.table->id() < want.table->id();
            }
            return w.key < want.key;
          });
      const bool ours = it != t->write_set_.end() &&
                        it->table == r.table && it->key == r.key;
      if (!ours) {
        return abort_with("read validation failed: slot write-locked");
      }
    }
  }
  // Phase 3b: inserts require the key to be absent (or deleted) now, at
  // commit time — precise under our own slot lock.
  for (size_t i = 0; i < t->write_set_.size(); ++i) {
    if (!t->write_set_[i].is_insert) continue;
    const storage::Version* v =
        locked[i]->newest.load(std::memory_order_acquire);
    if (v != nullptr && !v->deleted) {
      return abort_with("insert: key exists");
    }
  }

  info->commit_ts = cts;
  info->epoch = epoch;

  // Phase 4: stage the log record. The binding requirement is that
  // staging happens inside the commit section (between EnterCommitSection
  // and the guard's exit), so the quiesced drain barrier
  // (QuiesceCommits) sees every drawn TID staged — that is what makes
  // each durable batch an exact TID interval. Staging before install
  // additionally keeps conflicting records' staging in TID order within
  // a cut, at no cost.
  if (hook_) hook_(*t, *info);

  // Phase 5: install, reclaiming below the horizon under each slot's
  // lock. Publishing each slot's new stamp is the unlock.
  const Timestamp horizon = horizon_.Get();
  for (size_t i = 0; i < t->write_set_.size(); ++i) {
    WriteEntry& w = t->write_set_[i];
    storage::Table::InstallVersionUnlatched(locked[i], w.row, cts, w.deleted,
                                            horizon);
  }

  AdvanceLastCommitted(cts);
  t->read_set_.clear();
  t->write_set_.clear();
  return Status::Ok();
}

}  // namespace pacman::txn
