// Copyright (c) 2026 The PACMAN reproduction authors.
// Spin latches used by the storage engine, the commit protocol and the
// latched recovery schemes (PLR / LLR). Latch acquisitions during recovery
// are counted so that the benchmark harness can attribute synchronization
// overhead (Fig. 15).
#ifndef PACMAN_COMMON_SPIN_LATCH_H_
#define PACMAN_COMMON_SPIN_LATCH_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/macros.h"

namespace pacman {

// Test-and-test-and-set spin latch. One cache line, so latches that
// different threads take (a table partition's arena latch, a log worker
// buffer's latch) never share one. Tuple slots have no SpinLatch: their
// install latch is the OccStampLock's lock bit below.
class alignas(64) SpinLatch {
 public:
  SpinLatch() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(SpinLatch);

  void Lock() {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }

  bool TryLock() {
    return !flag_.exchange(true, std::memory_order_acquire);
  }

  void Unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// RAII guard for SpinLatch.
class SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) : latch_(latch) { latch_.Lock(); }
  ~SpinLatchGuard() { latch_.Unlock(); }
  PACMAN_DISALLOW_COPY_AND_MOVE(SpinLatchGuard);

 private:
  SpinLatch& latch_;
};

// Combined version stamp + write lock of one OCC tuple slot (Silo-style).
// One atomic word packs the begin_ts of the slot's newest committed
// version (bits 1..63) with a write-lock bit (bit 0), so a validator can
// check "version unchanged AND not write-locked" with a single load — the
// property the parallel commit protocol's serialization argument rests on
// (txn/transaction_manager.h). Committers lock their write-set slots in
// canonical (table, key) order, which makes the blocking Lock()
// deadlock-free, and release each slot by publishing the new timestamp in
// one store (PublishTs). Readers never touch the lock bit: MVCC reads go
// through the version chain, which stays lock-free. The same bit is
// PLR/LLR replay's per-tuple install latch (storage::Table's latched
// installs); recovery never runs beside forward commits, so the two users
// never meet.
class OccStampLock {
 public:
  OccStampLock() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(OccStampLock);

  static constexpr uint64_t kLockBit = 1;
  static constexpr uint64_t Pack(uint64_t ts) { return ts << 1; }
  static constexpr uint64_t TsOf(uint64_t stamp) { return stamp >> 1; }
  static constexpr bool IsLocked(uint64_t stamp) {
    return (stamp & kLockBit) != 0;
  }

  uint64_t Load() const { return word_.load(std::memory_order_acquire); }
  uint64_t Ts() const { return TsOf(Load()); }

  // Acquires the write lock (test-and-test-and-set spin). Only commit
  // holds these locks, over short install sections, and always in
  // canonical order across slots. After a bounded spin the waiter yields:
  // on an oversubscribed machine the holder may be descheduled, and
  // burning the timeslice spinning would only delay its release.
  void Lock() {
    while (!TryLock()) {
      int spins = 0;
      while (IsLocked(word_.load(std::memory_order_relaxed))) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

  bool TryLock() {
    uint64_t s = word_.load(std::memory_order_relaxed);
    // Strong CAS: a one-shot try must not fail spuriously — the commit
    // path counts a false failure as a contention event.
    return !IsLocked(s) &&
           word_.compare_exchange_strong(s, s | kLockBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // Releases the lock without changing the stamp (the abort path: a
  // validation failure must leave every locked slot exactly as found).
  void Unlock() {
    word_.fetch_and(~kLockBit, std::memory_order_release);
  }

  // Publishes a new version timestamp; because the lock bit is cleared by
  // the same store, install-and-unlock is one atomic release. Also used
  // (on unlocked slots) by bulk load and recovery replay to keep the stamp
  // equal to the newest version's begin_ts.
  void PublishTs(uint64_t ts) {
    word_.store(Pack(ts), std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> word_{0};
};

// Reader-writer spin latch (writer-preferring is not needed here; the
// engine uses short critical sections only).
class alignas(64) RwSpinLatch {
 public:
  RwSpinLatch() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(RwSpinLatch);

  void LockShared() {
    while (true) {
      uint32_t v = state_.load(std::memory_order_relaxed);
      if ((v & kWriterBit) == 0 &&
          state_.compare_exchange_weak(v, v + 1,
                                       std::memory_order_acquire)) {
        return;
      }
    }
  }

  void UnlockShared() { state_.fetch_sub(1, std::memory_order_release); }

  void LockExclusive() {
    while (true) {
      uint32_t v = state_.load(std::memory_order_relaxed);
      if (v == 0 && state_.compare_exchange_weak(v, kWriterBit,
                                                 std::memory_order_acquire)) {
        return;
      }
    }
  }

  void UnlockExclusive() { state_.store(0, std::memory_order_release); }

 private:
  static constexpr uint32_t kWriterBit = 0x80000000u;
  std::atomic<uint32_t> state_{0};
};

}  // namespace pacman

#endif  // PACMAN_COMMON_SPIN_LATCH_H_
