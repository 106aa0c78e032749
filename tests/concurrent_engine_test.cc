// Stress tests for concurrent forward processing: 4+ workers driving the
// bank / smallbank workloads through OCC retry, per-worker command
// logging and group commit, then crash + CLR-P recovery. Verifies the
// ContentHash() invariant (recovered state == pre-crash state) and
// balance-sum conservation under a transfers-only mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "pacman/database.h"
#include "storage/table.h"
#include "test_util.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeBankDb(uint32_t commits_per_epoch = 100) {
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    opts.commits_per_epoch = commits_per_epoch;
    opts.epochs_per_batch = 2;
    auto db = std::make_unique<Database>(opts);
    bank_.CreateTables(db->catalog());
    bank_.RegisterProcedures(db->registry());
    bank_.Load(db->catalog());
    db->FinalizeSchema();
    return db;
  }

  TxnGenerator BankMix() {
    return [this](Rng* rng, std::vector<Value>* params) {
      return bank_.NextTransaction(rng, params);
    };
  }

  // Transfers only: conserves the sum over Current (every user has a
  // spouse with single_fraction = 0, so no transfer falls into the
  // no-op branch).
  TxnGenerator TransfersOnly() {
    return [this](Rng* rng, std::vector<Value>* params) {
      params->clear();
      params->push_back(
          Value(rng->UniformInt(0, bank_.config().num_users - 1)));
      params->push_back(Value(static_cast<double>(rng->UniformInt(1, 100))));
      return bank_.transfer_id();
    };
  }

  workload::Bank bank_{workload::BankConfig{
      .num_users = 1000, .num_nations = 8, .single_fraction = 0.0}};
};

TEST_F(ConcurrentEngineTest, FourWorkersCommitEverythingOnce) {
  auto db = MakeBankDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 4000;
  DriverResult r = db->RunWorkers(BankMix(), opts);

  EXPECT_EQ(r.workers.size(), 4u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.committed, 4000u);
  EXPECT_EQ(db->commits(), 4000u);
  // Per-worker stats add up to the aggregate (the shared submission queue
  // load-balances the per-executor split, so no fixed 1/N share).
  uint64_t sum = 0;
  for (const WorkerStats& w : r.workers) sum += w.committed;
  EXPECT_EQ(sum, r.committed);
  // Per-worker log staging was actually engaged (executor slots).
  EXPECT_GE(db->log_manager()->num_worker_buffers(), 4u);
  // The driver tears its executor pool down when done.
  EXPECT_FALSE(db->workers_running());
}

TEST_F(ConcurrentEngineTest, TransfersConserveBalanceSum) {
  auto db = MakeBankDb();
  const storage::Table* current = db->catalog()->GetTable("Current");
  const double before =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());

  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 3000;
  DriverResult r = db->RunWorkers(TransfersOnly(), opts);
  ASSERT_EQ(r.failed, 0u);

  const double after =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());
  EXPECT_NEAR(before, after, 1e-6);
}

TEST_F(ConcurrentEngineTest, CrashRecoveryReproducesConcurrentState) {
  auto db = MakeBankDb(/*commits_per_epoch=*/50);
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 3000;
  DriverResult r = db->RunWorkers(TransfersOnly(), opts);
  ASSERT_EQ(r.failed, 0u);

  const storage::Table* current = db->catalog()->GetTable("Current");
  const double sum_before =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());
  const uint64_t hash = db->ContentHash();

  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);

  EXPECT_EQ(db->ContentHash(), hash);
  EXPECT_NEAR(testutil::VisibleSum(current, db->txn_manager()->LastCommitted()),
              sum_before, 1e-6);
}

TEST_F(ConcurrentEngineTest, RecoveryOnRealThreadsMatchesToo) {
  auto db = MakeBankDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 2000;
  ASSERT_EQ(db->RunWorkers(BankMix(), opts).failed, 0u);
  const uint64_t hash = db->ContentHash();

  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db->ContentHash(), hash);
}

TEST_F(ConcurrentEngineTest, RepeatedConcurrentRunAndRecoveryCycles) {
  auto db = MakeBankDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  for (int cycle = 0; cycle < 3; ++cycle) {
    DriverOptions opts;
    opts.num_workers = 4;
    opts.num_txns = 1000;
    opts.seed = 42 + static_cast<uint64_t>(cycle);
    ASSERT_EQ(db->RunWorkers(BankMix(), opts).failed, 0u);
    const uint64_t hash = db->ContentHash();
    db->Crash();
    db->Recover(recovery::Scheme::kClrP, ropts);
    ASSERT_EQ(db->ContentHash(), hash) << "cycle " << cycle;
  }
}

TEST_F(ConcurrentEngineTest, SingleWorkerMatchesSerialExecution) {
  auto db1 = MakeBankDb();
  auto db2 = MakeBankDb();

  // db1: historical serial loop.
  ASSERT_TRUE(db1->TryTakeCheckpoint().ok());
  Rng rng(123);
  std::vector<Value> params;
  for (int i = 0; i < 500; ++i) {
    ProcId proc = bank_.NextTransaction(&rng, &params);
    ASSERT_TRUE(db1->ExecuteProcedure(proc, params).ok());
  }

  // db2: the driver with one worker and the same seed.
  ASSERT_TRUE(db2->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 1;
  opts.num_txns = 500;
  opts.seed = 123;
  ASSERT_EQ(db2->RunWorkers(BankMix(), opts).failed, 0u);

  EXPECT_EQ(db1->ContentHash(), db2->ContentHash());
}

TEST_F(ConcurrentEngineTest, AdhocFractionSurvivesConcurrentRecovery) {
  auto db = MakeBankDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 2000;
  opts.adhoc_fraction = 0.3;
  ASSERT_EQ(db->RunWorkers(BankMix(), opts).failed, 0u);
  const uint64_t hash = db->ContentHash();

  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash);
}

TEST_F(ConcurrentEngineTest, EightWorkerHotKeyStressConservesAndRecovers) {
  // High-contention configuration: 8 executor workers funneling transfers
  // into a 32-user hot set, through the full stack (sessions, parallel
  // commit, per-worker log staging, group commit). Conservation plus
  // recovered-hash equality is the end-to-end check that the slot-locked
  // commit path and its abort-time lock release stay correct under real
  // conflict pressure.
  auto db = MakeBankDb(/*commits_per_epoch=*/50);
  const storage::Table* current = db->catalog()->GetTable("Current");
  const double before =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());

  DriverOptions opts;
  opts.num_workers = 8;
  opts.num_txns = 4000;
  DriverResult r = db->RunWorkers(
      [this](Rng* rng, std::vector<Value>* params) {
        params->clear();
        params->push_back(Value(rng->UniformInt(0, 31)));  // Hot range.
        params->push_back(
            Value(static_cast<double>(rng->UniformInt(1, 100))));
        return bank_.transfer_id();
      },
      opts);
  ASSERT_EQ(r.failed, 0u);
  ASSERT_EQ(r.committed, 4000u);

  const double after =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());
  EXPECT_NEAR(before, after, 1e-6);

  const uint64_t hash = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 8;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash);
  EXPECT_NEAR(testutil::VisibleSum(current, db->txn_manager()->LastCommitted()),
              before, 1e-6);
}

TEST(ConcurrentSmallbankTest, StressRecoversExactState) {
  DatabaseOptions dopts;
  dopts.scheme = logging::LogScheme::kCommand;
  dopts.commits_per_epoch = 100;
  dopts.epochs_per_batch = 2;
  Database db(dopts);
  workload::Smallbank sb(workload::SmallbankConfig{
      .num_accounts = 2000, .hotspot_fraction = 0.2, .hotspot_size = 50});
  sb.CreateTables(db.catalog());
  sb.RegisterProcedures(db.registry());
  sb.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  DriverOptions opts;
  opts.num_workers = 4;
  opts.num_txns = 3000;
  DriverResult r = db.RunWorkers(
      [&sb](Rng* rng, std::vector<Value>* params) {
        return sb.NextTransaction(rng, params);
      },
      opts);
  ASSERT_EQ(r.failed, 0u);
  ASSERT_EQ(r.committed, 3000u);
  const uint64_t hash = db.ContentHash();

  db.Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), hash);
}

TEST(OccStarvationTest, LongTransactionCommitsDespiteAStreamOfConflicts) {
  // One TPC-C warehouse. NewOrder (about 35 reads and writes) reads the
  // warehouse row that a second thread's short Payments keep rewriting,
  // so most of its attempts lose validation. Past the starvation
  // threshold (10 aborts) an attempt runs with the commit gate closed and
  // must commit: no call needs more than 11 attempts.
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  opts.commits_per_epoch = 100;
  Database db(opts);
  workload::Tpcc tpcc(workload::TpccConfig{.num_warehouses = 1,
                                           .districts_per_warehouse = 1,
                                           .customers_per_district = 30,
                                           .num_items = 100});
  tpcc.Install(&db);
  db.FinalizeSchema();

  std::atomic<bool> stop{false};
  std::thread payments([&] {
    Rng rng(2);
    std::vector<Value> params;
    while (!stop.load()) {
      if (tpcc.NextTransaction(&rng, &params) != tpcc.payment_id()) continue;
      const TxnResult r = db.Execute(tpcc.payment_id(), params);
      EXPECT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_LE(r.attempts, 11);
    }
  });
  Rng rng(1);
  std::vector<Value> params;
  int max_attempts = 0;
  for (int orders = 0; orders < 200;) {
    if (tpcc.NextTransaction(&rng, &params) != tpcc.new_order_id()) continue;
    const TxnResult r = db.Execute(tpcc.new_order_id(), params);
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    max_attempts = std::max(max_attempts, r.attempts);
    ++orders;
  }
  stop.store(true);
  payments.join();
  EXPECT_LE(max_attempts, 11);
}

}  // namespace
}  // namespace pacman
