// Tests for the Database facade: lifecycle, epoch auto-advance, flush
// accounting, repeated crash/recovery cycles, scheme/format checks and
// post-recovery transaction ordering.
#include "pacman/database.h"

#include <gtest/gtest.h>

#include "workload/bank.h"

namespace pacman {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDb(
      logging::LogScheme scheme = logging::LogScheme::kCommand,
      uint32_t commits_per_epoch = 10) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.commits_per_epoch = commits_per_epoch;
    opts.epochs_per_batch = 2;
    auto db = std::make_unique<Database>(opts);
    bank_.CreateTables(db->catalog());
    bank_.RegisterProcedures(db->registry());
    bank_.Load(db->catalog());
    db->FinalizeSchema();
    return db;
  }

  void RunTxns(Database* db, int n, uint64_t seed = 1) {
    Rng rng(seed);
    std::vector<Value> params;
    for (int i = 0; i < n; ++i) {
      ProcId proc = bank_.NextTransaction(&rng, &params);
      ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
    }
  }

  workload::Bank bank_{workload::BankConfig{
      .num_users = 200, .num_nations = 8, .single_fraction = 0.0}};
};

TEST_F(DatabaseTest, EpochAutoAdvancesEveryNCommits) {
  auto db = MakeDb(logging::LogScheme::kCommand, /*commits_per_epoch=*/10);
  Epoch e0 = db->epoch_manager()->current();
  RunTxns(db.get(), 35);
  EXPECT_EQ(db->epoch_manager()->current(), e0 + 3);
  EXPECT_EQ(db->commits(), 35u);
}

TEST_F(DatabaseTest, FlushAccountingAccumulates) {
  auto db = MakeDb(logging::LogScheme::kLogical, 10);
  RunTxns(db.get(), 50);
  EXPECT_GT(db->total_flush_seconds(), 0.0);
  EXPECT_GT(db->log_manager()->total_bytes(), 0u);
  EXPECT_GT(db->device(0)->total_fsyncs() + db->device(1)->total_fsyncs(), 0u);
}

TEST_F(DatabaseTest, GdgBuiltOnFinalize) {
  auto db = MakeDb();
  EXPECT_EQ(db->gdg().NumBlocks(), 4u);  // The paper's Fig. 5c structure.
  EXPECT_EQ(db->ldgs().size(), 2u);
  auto chopping = db->BuildChoppingGdg();
  EXPECT_GE(chopping.NumBlocks(), 1u);
}

TEST_F(DatabaseTest, RepeatedCrashRecoveryCycles) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 100, 3);
  const uint64_t h1 = db->ContentHash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;

  for (int cycle = 0; cycle < 3; ++cycle) {
    db->Crash();
    EXPECT_TRUE(db->crashed());
    db->Recover(recovery::Scheme::kClrP, ropts);
    EXPECT_FALSE(db->crashed());
    EXPECT_EQ(db->ContentHash(), h1) << "cycle " << cycle;
  }

  // New work after the final recovery commits on top.
  RunTxns(db.get(), 20, 4);
  const uint64_t h2 = db->ContentHash();
  EXPECT_NE(h2, h1);
  db->Crash();
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), h2);
}

TEST_F(DatabaseTest, RecoverySetsTimestampsPastReplayedCommits) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 50);
  const Timestamp last = db->txn_manager()->LastCommitted();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  db->Recover(recovery::Scheme::kClr, ropts);
  EXPECT_EQ(db->txn_manager()->LastCommitted(), last);
  // The next commit gets a fresh, larger timestamp.
  RunTxns(db.get(), 1, 9);
  EXPECT_GT(db->txn_manager()->LastCommitted(), last);
}

TEST_F(DatabaseTest, CheckpointOnlyRecovery) {
  // No transactions after the checkpoint: log recovery replays nothing
  // and the state equals the checkpoint snapshot.
  auto db = MakeDb();
  RunTxns(db.get(), 30);
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  const uint64_t pre = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult r = db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(r.log.records_replayed, 0u);
  EXPECT_EQ(db->ContentHash(), pre);
}

TEST_F(DatabaseTest, LatestCheckpointWins) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 40, 5);
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 40, 6);
  const uint64_t pre = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult r = db->Recover(recovery::Scheme::kClrP, ropts);
  // Only the post-checkpoint suffix is replayed.
  EXPECT_LE(r.log.records_replayed, 40u);
  EXPECT_EQ(db->ContentHash(), pre);
}

TEST_F(DatabaseTest, ProcedureErrorsPropagate) {
  auto db = MakeDb();
  // Unknown procedure ids are a programming error; out-of-range access is
  // checked in debug builds. Here: a valid proc with an aborted conflict
  // retries internally, so plain execution succeeds.
  RunTxns(db.get(), 5);
  SUCCEED();
}

TEST_F(DatabaseTest, AbortsAreRetriedTransparently) {
  auto db = MakeDb();
  RunTxns(db.get(), 50);
  // Single-threaded driving cannot conflict: zero aborts expected.
  EXPECT_EQ(db->txn_manager()->num_aborts(), 0u);
}

TEST_F(DatabaseTest, ContentHashStableAcrossIdenticalRuns) {
  auto db1 = MakeDb();
  auto db2 = MakeDb();
  RunTxns(db1.get(), 60, 7);
  RunTxns(db2.get(), 60, 7);
  EXPECT_EQ(db1->ContentHash(), db2->ContentHash());
}

TEST_F(DatabaseTest, SsdFilesAppearForLogsAndCheckpoints) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 60);
  db->AdvanceEpoch();
  db->log_manager()->FinalizeAll();
  size_t log_files = 0, ckpt_files = 0;
  for (uint32_t d = 0; d < 2; ++d) {
    log_files += db->device(d)->ListFiles("log_").size();
    ckpt_files += db->device(d)->ListFiles("ckpt_").size();
  }
  EXPECT_GT(log_files, 0u);
  // Stripe files plus the ckpt_meta descriptor.
  EXPECT_EQ(ckpt_files, 2u * db->options().ckpt_files_per_ssd + 1);
}

}  // namespace
}  // namespace pacman
