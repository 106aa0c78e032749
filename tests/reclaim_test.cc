// Tests for the reclamation of superseded versions (storage/tuple.h): the
// forward horizon's pin protocol (txn/reclaim_horizon.h), the versions
// forward processing and recovery leave in the chains, and readers that
// race the installs that free versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "pacman/database.h"
#include "storage/table.h"
#include "test_util.h"
#include "txn/reclaim_horizon.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

using testutil::SchemeCase;

// --- The horizon's flip protocol -------------------------------------------

TEST(ReclaimHorizonTest, PublishesTheClockOfThePreviousFlip) {
  txn::ReclaimHorizon h;
  EXPECT_EQ(h.Get(), kInvalidTimestamp);
  h.Advance(10);
  EXPECT_EQ(h.Get(), kInvalidTimestamp);
  h.Advance(20);
  EXPECT_EQ(h.Get(), 10u);
  h.Advance(30);
  EXPECT_EQ(h.Get(), 20u);
}

// A pin of the current generation lets the next flip happen and holds
// every flip after it until released: the horizon stays at the clock that
// was current before the pin was taken.
TEST(ReclaimHorizonTest, APinHoldsTheHorizonUntilReleased) {
  txn::ReclaimHorizon h;
  h.Advance(10);
  txn::ReadPin pin = h.Pin();  // Its holder's snapshot would be >= 10.
  h.Advance(20);
  EXPECT_EQ(h.Get(), 10u);
  h.Advance(30);
  h.Advance(40);
  EXPECT_EQ(h.Get(), 10u);
  pin.Release();
  pin.Release();  // Idempotent.
  h.Advance(50);
  EXPECT_EQ(h.Get(), 20u);
  h.Advance(60);
  EXPECT_EQ(h.Get(), 50u);
}

TEST(ReclaimHorizonTest, ClampLowersTheHorizonAndTheNextFlip) {
  txn::ReclaimHorizon h;
  h.Advance(10);
  h.Advance(20);
  h.Advance(30);
  ASSERT_EQ(h.Get(), 20u);
  h.Clamp(15);
  EXPECT_EQ(h.Get(), 15u);
  h.Advance(40);  // Publishes the clamped 15, not 30.
  EXPECT_EQ(h.Get(), 15u);
  h.Advance(50);
  EXPECT_EQ(h.Get(), 40u);
  h.Clamp(100);  // Above: changes nothing.
  EXPECT_EQ(h.Get(), 40u);
}

// Readers pin, read a clock an advancer keeps moving, and check that the
// published horizon never passes what they read while they hold the pin.
TEST(ReclaimHorizonTest, PinnedSnapshotsStayAtOrAboveTheHorizon) {
  txn::ReclaimHorizon h;
  std::atomic<Timestamp> clock{1};
  std::atomic<bool> stop{false};
  std::thread advancer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      clock.fetch_add(1, std::memory_order_seq_cst);
      h.Advance(clock.load(std::memory_order_seq_cst));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        const txn::ReadPin pin = h.Pin();
        const Timestamp snapshot = clock.load(std::memory_order_seq_cst);
        for (int k = 0; k < 4; ++k) {
          ASSERT_LE(h.Get(), snapshot) << "iteration " << i;
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  advancer.join();
  EXPECT_GT(h.Get(), kInvalidTimestamp);
}

// --- The clock the flips are handed ----------------------------------------

int64_t FirstInt(const uint8_t* compact_row) {
  Row row;
  DecodeCompactRow(compact_row, &row);
  return row[0].AsInt64();
}

// Commit A on key 1 has drawn its TID but not installed when commit B, on
// key 2, lands at a higher TID and raises LastCommitted() past A. A reader
// pinned after the next flip views key 1's loaded version, which A is
// about to supersede. The flips are handed the clock of the last commit
// quiesce, taken before A drew, so once A installs, the next flip still
// publishes a horizon below A, and commit C on key 1 keeps the viewed
// version. A flip handed LastCommitted() would publish B's TID there, and
// C would free the version the reader still views (a use-after-free under
// ASan). Once the reader lets go, the horizon reaches A and the next
// install on key 1 frees the loaded version.
TEST(ReclaimHorizonTest, FlipsAreHandedAClockNoPendingCommitIsBelow) {
  txn::EpochManager epochs;
  txn::TransactionManager tm(&epochs);
  storage::Table table(0, "t", Schema({{"v", ValueType::kInt64, 0}}));
  table.LoadRow(1, {Value(int64_t{10})}, 1);
  table.LoadRow(2, {Value(int64_t{20})}, 1);
  auto commit = [&tm, &table](Key key, int64_t v) {
    txn::Transaction t = tm.Begin();
    t.Write(&table, key, {Value(v)});
    txn::CommitInfo info;
    EXPECT_TRUE(tm.Commit(&t, &info).ok());
    return info.commit_ts;
  };

  std::atomic<bool> block_next{false};
  std::atomic<bool> blocked{false};
  std::atomic<bool> release{false};
  tm.set_commit_hook([&](const txn::Transaction&, const txn::CommitInfo&) {
    if (!block_next.exchange(false)) return;
    blocked.store(true);
    while (!release.load()) std::this_thread::yield();
  });

  (void)tm.StableTimestamp();  // A quiesce point before A draws.
  block_next.store(true);
  Timestamp a_ts = kInvalidTimestamp;
  std::thread a([&] { a_ts = commit(1, 11); });
  while (!blocked.load()) std::this_thread::yield();
  const Timestamp b_ts = commit(2, 21);
  ASSERT_EQ(tm.LastCommitted(), b_ts);

  tm.AdvanceHorizon();
  txn::ReadPin pin = tm.Pin();
  txn::Transaction reader = tm.Begin();
  EXPECT_GE(reader.read_ts(), b_ts);
  const uint8_t* view = nullptr;
  ASSERT_TRUE(reader.Read(&table, 1, &view).ok());
  EXPECT_EQ(FirstInt(view), 10);  // A has not installed.

  release.store(true);
  a.join();
  ASSERT_LT(a_ts, b_ts);
  (void)tm.StableTimestamp();  // The flush's quiesce, now past A and B.
  tm.AdvanceHorizon();
  EXPECT_LT(tm.horizon(), a_ts);
  commit(1, 12);
  EXPECT_EQ(table.NumVersions(), 5u);  // Key 1 keeps 10, 11 and 12.
  EXPECT_EQ(FirstInt(view), 10);

  // The reader lets go: the next flip publishes the clock of the quiesce
  // after A, and the next install on key 1 keeps A's version, the newest
  // at or below it, and frees the loaded one.
  pin.Release();
  tm.AdvanceHorizon();
  EXPECT_EQ(tm.horizon(), b_ts);
  commit(1, 13);
  EXPECT_EQ(table.NumVersions(), 5u);  // Key 1 keeps 11, 12 and 13.
}

// --- Version census ---------------------------------------------------------

uint64_t CountKeys(const storage::Catalog& catalog) {
  uint64_t n = 0;
  for (const auto& t : catalog.tables()) n += t->NumKeys();
  return n;
}

uint64_t CountVersions(const storage::Catalog& catalog) {
  uint64_t n = 0;
  for (const auto& t : catalog.tables()) n += t->NumVersions();
  return n;
}

// The most rows one call of any registered procedure writes.
uint64_t MaxWritesPerCall(const Database& db) {
  uint64_t most = 0;
  for (ProcId p = 0; p < db.num_procedures(); ++p) {
    uint64_t writes = 0;
    for (const proc::Operation& op : db.procedure_def(p).ops) {
      writes += op.IsModification() ? 1 : 0;
    }
    most = std::max(most, writes);
  }
  return most;
}

// 20k TPC-C calls from two sessions, then a crash and a real-thread
// recovery: the chains hold at most two versions per slot plus two
// epochs' worth of writes, both after the forward run and after recovery
// (CLR-P for the command log, LLR-P for the logical one). Without
// reclamation they hold about twelve superseded versions per call. The
// forward horizon lags the commits by at most two epochs and command
// replay's by the batches not yet released, so the log has one epoch per
// batch here: one bound then covers both.
class VersionCensusTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(VersionCensusTest, ChainsStayBoundedForwardAndInRecovery) {
  DatabaseOptions opts;
  opts.scheme = GetParam().log;
  opts.epochs_per_batch = 1;
  Database db(opts);
  workload::Tpcc tpcc;
  tpcc.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  const uint64_t bound =
      2 * CountKeys(*db.catalog()) +
      2 * opts.commits_per_epoch * MaxWritesPerCall(db);

  constexpr int kCallsPerSession = 10000;
  std::vector<std::thread> clients;
  for (uint64_t c = 0; c < 2; ++c) {
    clients.emplace_back([&db, &tpcc, c] {
      auto session = db.OpenSession();
      Rng rng(c + 1);
      std::vector<Value> params;
      for (int i = 0; i < kCallsPerSession; ++i) {
        const ProcId proc = tpcc.NextTransaction(&rng, &params);
        ASSERT_TRUE(session->Call(db.proc(proc), params).status.ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  // Inserts are off: the slots are the loaded ones.
  const uint64_t keys = CountKeys(*db.catalog());
  EXPECT_LE(CountVersions(*db.catalog()), bound) << keys << " slots";

  const uint64_t hash = db.ContentHash();
  db.Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(GetParam().rec, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db.ContentHash(), hash);
  EXPECT_EQ(CountKeys(*db.catalog()), keys);
  EXPECT_LE(CountVersions(*db.catalog()), bound) << keys << " slots";
}

INSTANTIATE_TEST_SUITE_P(
    Replay, VersionCensusTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP}));

// --- Readers racing reclamation ---------------------------------------------

// Four workers commit transfers and deposits on eight accounts, each
// emitting values from rows it read and then superseded, with an epoch
// (and a horizon flip) every four commits, while another thread takes
// checkpoints in a loop: every checkpoint scan and every result
// evaluation reads versions that concurrent commits are reclaiming
// around. Then crash and recover, on real threads, to the pre-crash
// state under every scheme. A scan or a result that read a freed version
// shows as a use-after-free under ASan and as a race under TSan.
class ReclaimStressTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(ReclaimStressTest, HotKeyCommitsRaceCheckpointScans) {
  DatabaseOptions opts;
  opts.scheme = GetParam().log;
  opts.commits_per_epoch = 4;
  opts.epochs_per_batch = 2;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 8, .num_nations = 2, .single_fraction = 0.0});
  bank.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checkpoints{0};
  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(db.TryTakeCheckpoint().ok());
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Rounds of 1,000 calls: four, and more (up to 40) until the horizon
  // has moved while the checkpoints ran. On an oversubscribed host one
  // descheduled pin holds back every flip, so a round can pass without.
  DriverOptions dopts;
  dopts.num_workers = 4;
  dopts.num_txns = 1000;
  uint64_t committed = 0;
  uint64_t failed = 0;
  for (int round = 0;
       round < 4 || (db.txn_manager()->horizon() == kInvalidTimestamp &&
                     round < 40);
       ++round) {
    const DriverResult r = db.RunWorkers(
        [&bank](Rng* rng, std::vector<Value>* params) {
          return bank.NextTransaction(rng, params);
        },
        dopts);
    committed += r.committed;
    failed += r.failed;
  }
  const Timestamp horizon = db.txn_manager()->horizon();
  done.store(true, std::memory_order_release);
  checkpointer.join();
  ASSERT_EQ(failed, 0u);
  EXPECT_GE(committed, 4 * dopts.num_txns);
  EXPECT_GT(checkpoints.load(), 0u);
  EXPECT_GT(horizon, kInvalidTimestamp);

  const uint64_t hash = db.ContentHash();
  db.Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(GetParam().rec, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db.ContentHash(), hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ReclaimStressTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kPhysical, recovery::Scheme::kPlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClr},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP}));

}  // namespace
}  // namespace pacman
