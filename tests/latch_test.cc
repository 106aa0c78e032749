// Tests for the latch primitives (SpinLatch, RwSpinLatch, OccStampLock)
// and the paths built on them: mutual exclusion, stamp semantics,
// canonical slot-lock ordering (no deadlock on opposed write orders), a
// >= 8-worker high-contention commit stress asserting balance-sum
// conservation, and PLR/LLR's installs under the same stamp-word lock.
#include "common/spin_latch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/serializer.h"
#include "storage/catalog.h"
#include "txn/epoch_manager.h"
#include "txn/transaction_manager.h"

namespace pacman {
namespace {

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int64_t unguarded = 0;  // Non-atomic on purpose: the latch is the guard.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      for (int n = 0; n < kIncrements; ++n) {
        SpinLatchGuard g(latch);
        unguarded++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(unguarded, int64_t{kThreads} * kIncrements);
}

TEST(SpinLatchTest, TryLockRespectsHolder) {
  SpinLatch latch;
  ASSERT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(RwSpinLatchTest, WritersExcludeEachOtherAndReaders) {
  RwSpinLatch latch;
  // Two counters kept equal under the exclusive lock; a shared-lock reader
  // that ever observes them unequal has seen a torn write section.
  int64_t a = 0, b = 0;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  constexpr int kWriters = 4;
  constexpr int kIncrements = 10000;

  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        latch.LockShared();
        if (a != b) torn.fetch_add(1);
        latch.UnlockShared();
      }
    });
  }
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&]() {
      for (int n = 0; n < kIncrements; ++n) {
        latch.LockExclusive();
        a++;
        b++;
        latch.UnlockExclusive();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(a, int64_t{kWriters} * kIncrements);
  EXPECT_EQ(b, a);
  EXPECT_EQ(torn.load(), 0u);
}

TEST(OccStampLockTest, PackedStampAndLockBit) {
  EXPECT_EQ(OccStampLock::TsOf(OccStampLock::Pack(42)), 42u);
  EXPECT_FALSE(OccStampLock::IsLocked(OccStampLock::Pack(42)));
  EXPECT_TRUE(OccStampLock::IsLocked(OccStampLock::Pack(42) |
                                     OccStampLock::kLockBit));

  OccStampLock lock;
  EXPECT_EQ(lock.Ts(), 0u);  // No version yet.
  lock.PublishTs(7);
  EXPECT_EQ(lock.Ts(), 7u);
  ASSERT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  // Locking must not disturb the stamp; a validator that holds the lock
  // itself still reads the right version timestamp.
  EXPECT_EQ(OccStampLock::TsOf(lock.Load()), 7u);
  EXPECT_TRUE(OccStampLock::IsLocked(lock.Load()));
  // The abort path: release with the stamp intact.
  lock.Unlock();
  EXPECT_EQ(lock.Load(), OccStampLock::Pack(7));
  // The commit path: publishing a new stamp is also the unlock.
  ASSERT_TRUE(lock.TryLock());
  lock.PublishTs(9);
  EXPECT_EQ(lock.Load(), OccStampLock::Pack(9));
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(OccStampLockTest, MutualExclusionUnderContention) {
  OccStampLock lock;
  int64_t unguarded = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      for (int n = 0; n < kIncrements; ++n) {
        lock.Lock();
        unguarded++;
        lock.Unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(unguarded, int64_t{kThreads} * kIncrements);
}

TEST(OccStampLockTest, CanonicalOrderAvoidsDeadlockAcrossSlots) {
  // Many lockers repeatedly take overlapping multi-slot lock sets, always
  // in ascending slot order (the commit path's canonical order). Opposed
  // acquisition orders would deadlock this test almost immediately; the
  // discipline makes it terminate with both counters exact.
  constexpr int kSlots = 4;
  OccStampLock locks[kSlots];
  int64_t counters[kSlots] = {0, 0, 0, 0};
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ull | 1;
      for (int n = 0; n < kIterations; ++n) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        // Pick two distinct slots in arbitrary "program order"...
        int a = static_cast<int>(state % kSlots);
        int b = static_cast<int>((state >> 8) % kSlots);
        if (a == b) b = (b + 1) % kSlots;
        // ...then lock in canonical (ascending) order, like Commit does.
        const int lo = std::min(a, b), hi = std::max(a, b);
        locks[lo].Lock();
        locks[hi].Lock();
        counters[a]++;
        counters[b]++;
        locks[hi].Unlock();
        locks[lo].Unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (int64_t c : counters) total += c;
  EXPECT_EQ(total, int64_t{2} * kThreads * kIterations);
}

// High-contention commit stress on the transaction manager itself (no
// logging, no executor pool in the way): 8 workers transfer between 16 hot
// accounts, every commit conflicting with most others. The balance sum is
// conserved exactly iff validation, the abort path's lock release, and
// install-with-unlock are all correct; a leaked slot lock would hang the
// test instead of passing it.
TEST(ParallelCommitStressTest, EightWorkersConserveBalanceSum) {
  storage::Catalog catalog;
  storage::Table* table = catalog.CreateTable(
      "hot", Schema({{"v", ValueType::kInt64, 0}}));
  constexpr int kAccounts = 16;
  constexpr int64_t kInitial = 1000;
  for (int a = 0; a < kAccounts; ++a) {
    table->LoadRow(static_cast<Key>(a), {Value(kInitial)}, 1);
  }
  txn::EpochManager epochs(0);
  txn::TransactionManager tm(&epochs);

  constexpr int kThreads = 8;
  constexpr int kTransfers = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = static_cast<uint64_t>(t + 1) * 0x2545f4914f6cdd1dull;
      for (int n = 0; n < kTransfers; ++n) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        const Key from = state % kAccounts;
        Key to = (state >> 16) % kAccounts;
        if (to == from) to = (to + 1) % kAccounts;
        const int64_t amount = static_cast<int64_t>(state % 10) + 1;
        while (true) {
          txn::Transaction txn = tm.Begin();
          Row f, g;
          ASSERT_TRUE(txn.Read(table, from, &f).ok());
          ASSERT_TRUE(txn.Read(table, to, &g).ok());
          txn.Write(table, from, {Value(f[0].AsInt64() - amount)});
          txn.Write(table, to, {Value(g[0].AsInt64() + amount)});
          txn::CommitInfo info;
          if (tm.Commit(&txn, &info).ok()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  int64_t sum = 0;
  for (int a = 0; a < kAccounts; ++a) {
    Row out;
    ASSERT_TRUE(table->Read(static_cast<Key>(a), kMaxTimestamp, &out).ok());
    sum += out[0].AsInt64();
  }
  EXPECT_EQ(sum, int64_t{kAccounts} * kInitial);
  // No conflict-count assertion here: on a single-core host the scheduler
  // can legitimately run a whole pass without one commit overlapping
  // another. Conservation plus termination (a leaked slot lock would hang
  // the retry loops) are the invariants.
}

// After an 8-worker stress, every slot's stamp word must agree with its
// version chain — the coherence invariant all OCC validation reads.
TEST(ParallelCommitStressTest, StampsMatchNewestVersionAfterStress) {
  storage::Catalog catalog;
  storage::Table* table = catalog.CreateTable(
      "hot", Schema({{"v", ValueType::kInt64, 0}}));
  for (int a = 0; a < 8; ++a) {
    table->LoadRow(static_cast<Key>(a), {Value(int64_t{0})}, 1);
  }
  txn::EpochManager epochs(0);
  txn::TransactionManager tm(&epochs);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int n = 0; n < 500; ++n) {
        while (true) {
          txn::Transaction txn = tm.Begin();
          const Key k = static_cast<Key>((t + n) % 8);
          Row out;
          ASSERT_TRUE(txn.Read(table, k, &out).ok());
          txn.Write(table, k, {Value(out[0].AsInt64() + 1)});
          txn::CommitInfo info;
          if (tm.Commit(&txn, &info).ok()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // The stamp word of every slot must equal its newest version's
  // begin_ts with the lock bit clear — the invariant OCC validation
  // reads, and the one a lost unlock or skipped publish would break.
  table->ForEachSlot([](storage::TupleSlot* slot) {
    const uint64_t stamp = slot->wlock.Load();
    EXPECT_FALSE(OccStampLock::IsLocked(stamp));
    const storage::Version* v =
        slot->newest.load(std::memory_order_acquire);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(OccStampLock::TsOf(stamp), v->begin_ts);
  });
}

// A one-int row in the compact encoding log images carry.
std::vector<uint8_t> CompactIntRow(int64_t v) {
  const Row row = {Value(v)};
  std::vector<uint8_t> bytes(CompactRowBytes(row));
  EncodeCompactRow(row, bytes.data());
  return bytes;
}

// PLR/LLR's install latch is the stamp word's lock bit. A write the
// Thomas rule drops must release it without touching the stamp.
TEST(InstallLatchTest, ThomasRuleDropLeavesStampUnchanged) {
  storage::Table table(0, "t", Schema({{"v", ValueType::kInt64, 0}}));
  table.LoadRow(1, {Value(int64_t{10})}, 10);
  storage::TupleSlot* slot = table.GetSlot(1);
  const storage::Version* newest = slot->newest.load();
  const uint64_t stamp = slot->wlock.Load();
  for (Timestamp stale : {Timestamp{5}, Timestamp{10}}) {
    const std::vector<uint8_t> row = CompactIntRow(0);
    EXPECT_FALSE(storage::Table::InstallRowLastWriterWins(
        slot, row.data(), row.size(), stale, false, kInvalidTimestamp));
    EXPECT_EQ(slot->wlock.Load(), stamp);
    EXPECT_FALSE(OccStampLock::IsLocked(slot->wlock.Load()));
    EXPECT_EQ(slot->newest.load(), newest);
  }
  const std::vector<uint8_t> row = CompactIntRow(11);
  EXPECT_TRUE(storage::Table::InstallRowLastWriterWins(
      slot, row.data(), row.size(), 11, false, kInvalidTimestamp));
  EXPECT_EQ(slot->wlock.Load(), OccStampLock::Pack(11));
}

// 8 threads race last-writer-wins installs on a handful of shared slots,
// every install under the slot's stamp-word lock bit. Each timestamp is
// drawn from its slot's counter, so installs keep racing at the newest
// version; a quarter of the draws are held back and installed later, out
// of order, where the Thomas rule drops most of them. Each slot also has
// one ascending writer that, after its share, installs timestamps above
// every drawn one, where it always wins. A lost or torn install breaks the
// chain's order, its row contents or its count.
TEST(InstallLatchTest, ContendedInstallsKeepChainsOrderedAndExact) {
  constexpr int kThreads = 8;
  constexpr int kSlots = 2;
  // Drawn timestamps, over the slots. Enough that the threads overlap in
  // time on a shared host, where a thread can run tens of thousands of
  // installs before the next one is scheduled.
  constexpr int kOpsPerThread = 100000;
  constexpr Timestamp kLwwTs = kThreads * kOpsPerThread / kSlots;
  constexpr Timestamp kAbove = 100;  // Per slot, by its ascending writer.
  storage::Table table(0, "t", Schema({{"v", ValueType::kInt64, 0}}));
  std::vector<storage::TupleSlot*> slots;
  for (int s = 0; s < kSlots; ++s) {
    slots.push_back(table.GetOrCreateSlot(static_cast<Key>(s)));
  }
  std::array<std::atomic<Timestamp>, kSlots> next_ts{};
  std::atomic<int> ready{0};
  std::vector<std::array<uint64_t, kSlots>> wins(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      wins[t].fill(0);
      const auto install = [&](int slot, Timestamp ts) {
        const std::vector<uint8_t> row =
            CompactIntRow(static_cast<int64_t>(ts));
        if (storage::Table::InstallRowLastWriterWins(slots[slot], row.data(),
                                                     row.size(), ts, false,
                                                     kInvalidTimestamp)) {
          wins[t][slot]++;
        }
      };
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<std::pair<int, Timestamp>> held;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int n = 0; n < kOpsPerThread; ++n) {
        const int slot = n % kSlots;
        const Timestamp ts = next_ts[slot].fetch_add(1) + 1;
        if (rng.Uniform(0, 3) == 0) {
          held.emplace_back(slot, ts);
        } else {
          install(slot, ts);
        }
        if (held.size() > 8 || (!held.empty() && rng.Uniform(0, 3) == 0)) {
          const size_t i = rng.Uniform(0, held.size() - 1);
          install(held[i].first, held[i].second);
          held[i] = held.back();
          held.pop_back();
        }
      }
      for (const auto& [slot, ts] : held) install(slot, ts);
      if (t < kSlots) {
        for (Timestamp k = 1; k <= kAbove; ++k) install(t, kLwwTs + k);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int s = 0; s < kSlots; ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    uint64_t want_versions = 0;
    for (int t = 0; t < kThreads; ++t) want_versions += wins[t][s];
    const storage::Version* newest = slots[s]->newest.load();
    ASSERT_NE(newest, nullptr);
    EXPECT_EQ(newest->begin_ts, kLwwTs + kAbove);
    const uint64_t stamp = slots[s]->wlock.Load();
    EXPECT_FALSE(OccStampLock::IsLocked(stamp));
    EXPECT_EQ(OccStampLock::TsOf(stamp), newest->begin_ts);
    uint64_t versions = 0;
    uint64_t above = 0;
    uint64_t out_of_order = 0;
    uint64_t wrong_rows = 0;
    Row row;
    for (const storage::Version* v = newest; v != nullptr; v = v->older) {
      versions++;
      if (v->begin_ts > kLwwTs) above++;
      if (v->older != nullptr && v->begin_ts <= v->older->begin_ts) {
        out_of_order++;
      }
      v->ReadRow(&row);
      if (row.size() != 1 ||
          row[0].AsInt64() != static_cast<int64_t>(v->begin_ts)) {
        wrong_rows++;
      }
    }
    EXPECT_EQ(out_of_order, 0u);
    EXPECT_EQ(wrong_rows, 0u);
    EXPECT_EQ(above, kAbove);
    EXPECT_EQ(versions, want_versions);
  }
}

}  // namespace
}  // namespace pacman
