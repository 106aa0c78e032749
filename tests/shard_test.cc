// Partitioned-engine coverage: static and dynamic single-shard
// classification, content-hash parity between sharded and unsharded
// engines (ContentHash is an order-independent per-key mix, so it is
// invariant under partitioning — any divergence is a real state
// difference), cross-shard money conservation under concurrent workers,
// and process-restart recovery through the per-shard lanes for all five
// schemes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pacman/database.h"
#include "pacman/workload_driver.h"
#include "storage/shard.h"
#include "test_util.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kShards = 4;

DatabaseOptions SimOptions(logging::LogScheme scheme, uint32_t num_shards) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.num_shards = num_shards;
  opts.commits_per_epoch = 10;
  opts.epochs_per_batch = 2;
  return opts;
}

// --- ShardOfKey ----------------------------------------------------------

TEST(ShardOfKeyTest, SingleShardAlwaysZero) {
  for (Key k : {Key{0}, Key{1}, Key{12345}, Key{~0ull}}) {
    EXPECT_EQ(storage::ShardOfKey(k, 1), 0u);
    EXPECT_EQ(storage::ShardOfKey(k, 0), 0u);
  }
}

TEST(ShardOfKeyTest, SpreadsSequentialKeysAcrossAllShards) {
  // Sequential keys (the common synthetic-workload shape) must not pile
  // onto one partition; the finalizer should populate every shard.
  std::set<uint32_t> seen;
  for (Key k = 0; k < 1000; ++k) {
    const uint32_t s = storage::ShardOfKey(k, kShards);
    ASSERT_LT(s, kShards);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), kShards);
}

// --- Option validation ---------------------------------------------------

TEST(ShardValidationDeathTest, RejectsZeroShards) {
  DatabaseOptions opts;
  opts.num_shards = 0;
  EXPECT_DEATH(Database{opts}, "num_shards must be >= 1");
}

TEST(ShardValidationTest, ShardedEngineForcesOneLoggerPerShard) {
  Database db(SimOptions(logging::LogScheme::kCommand, kShards));
  EXPECT_EQ(db.options().num_loggers, kShards);
  EXPECT_EQ(db.log_manager()->num_shards(), kShards);
}

// --- Static classification (proc/compiler.cc summary bit) ----------------

TEST(ShardStaticClassificationTest, SmallbankProcedures) {
  Database db(SimOptions(logging::LogScheme::kCommand, kShards));
  workload::Smallbank sb;
  sb.Install(&db);
  db.FinalizeSchema();
  auto is_static = [&](ProcId id) {
    return db.programs().Get(id).summary.single_shard_static;
  };
  // Every access keyed by P(0): one key value per execution, one shard.
  EXPECT_TRUE(is_static(sb.deposit_checking_id()));
  EXPECT_TRUE(is_static(sb.transact_savings_id()));
  EXPECT_TRUE(is_static(sb.write_check_id()));
  EXPECT_TRUE(is_static(sb.balance_id()));
  // Two distinct account parameters: may straddle shards.
  EXPECT_FALSE(is_static(sb.amalgamate_id()));
  EXPECT_FALSE(is_static(sb.send_payment_id()));
}

TEST(ShardStaticClassificationTest, BankProcedures) {
  Database db(SimOptions(logging::LogScheme::kCommand, kShards));
  workload::Bank bank;
  bank.Install(&db);
  db.FinalizeSchema();
  // Transfer touches spouse/nation rows, Deposit the per-nation stats
  // row: several key expressions each, so neither is statically
  // single-shard.
  EXPECT_FALSE(
      db.programs().Get(bank.transfer_id()).summary.single_shard_static);
  EXPECT_FALSE(
      db.programs().Get(bank.deposit_id()).summary.single_shard_static);
}

TEST(ShardStaticClassificationTest, TpccProcedures) {
  Database db(SimOptions(logging::LogScheme::kCommand, kShards));
  workload::Tpcc tpcc({.num_warehouses = 2,
                       .districts_per_warehouse = 2,
                       .customers_per_district = 30,
                       .num_items = 40,
                       .orders_per_district = 8,
                       .items_per_order = 3});
  tpcc.Install(&db);
  db.FinalizeSchema();
  // Every TPC-C procedure touches rows of several tables under distinct
  // composite keys (warehouse, district, customer, order lines…).
  for (ProcId id : {tpcc.new_order_id(), tpcc.payment_id(),
                    tpcc.delivery_id(), tpcc.stock_level_id(),
                    tpcc.order_status_id()}) {
    EXPECT_FALSE(db.programs().Get(id).summary.single_shard_static)
        << "proc " << id;
  }
}

// --- Dynamic classification (logging/log_manager.cc StageSharded) --------

TEST(ShardDynamicClassificationTest, CountsSingleAndCrossShardCommits) {
  Database db(SimOptions(logging::LogScheme::kCommand, kShards));
  workload::Smallbank sb({.num_accounts = 200});
  sb.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  // A statically single-shard procedure routes without any access scan.
  ASSERT_TRUE(db.ExecuteProcedure(sb.deposit_checking_id(),
                                  {Value(int64_t{3}), Value(1.0)})
                  .ok());
  EXPECT_EQ(db.log_manager()->single_shard_commits(), 1u);
  EXPECT_EQ(db.log_manager()->cross_shard_commits(), 0u);

  // Pick one same-shard pair and one cross-shard pair of accounts.
  int64_t same_a = -1, same_b = -1, cross_a = -1, cross_b = -1;
  for (int64_t a = 0; a < 200 && (same_a < 0 || cross_a < 0); ++a) {
    for (int64_t b = a + 1; b < 200; ++b) {
      const bool same = storage::ShardOfKey(a, kShards) ==
                        storage::ShardOfKey(b, kShards);
      if (same && same_a < 0) {
        same_a = a;
        same_b = b;
      } else if (!same && cross_a < 0) {
        cross_a = a;
        cross_b = b;
      }
    }
  }
  ASSERT_GE(same_a, 0);
  ASSERT_GE(cross_a, 0);

  // SendPayment is not statically single-shard; the dynamic write/read
  // scan classifies each execution by its actual keys.
  ASSERT_TRUE(db.ExecuteProcedure(
                    sb.send_payment_id(),
                    {Value(same_a), Value(same_b), Value(1.0)})
                  .ok());
  EXPECT_EQ(db.log_manager()->single_shard_commits(), 2u);
  EXPECT_EQ(db.log_manager()->cross_shard_commits(), 0u);

  ASSERT_TRUE(db.ExecuteProcedure(
                    sb.send_payment_id(),
                    {Value(cross_a), Value(cross_b), Value(1.0)})
                  .ok());
  EXPECT_EQ(db.log_manager()->single_shard_commits(), 2u);
  EXPECT_EQ(db.log_manager()->cross_shard_commits(), 1u);
}

// --- Sharded vs unsharded content-hash parity ----------------------------

using testutil::SchemeCase;

class ShardHashParityTest
    : public ::testing::TestWithParam<SchemeCase> {};

// The same workload against a 1-shard and a 4-shard engine must produce
// identical logical state, before and after a crash/recovery cycle —
// partitioning is a layout decision, never a semantic one.
TEST_P(ShardHashParityTest, ShardCountsAgreeBeforeAndAfterRecovery) {
  const SchemeCase param = GetParam();
  auto run = [&](uint32_t num_shards) -> std::unique_ptr<Database> {
    auto db = std::make_unique<Database>(SimOptions(param.log, num_shards));
    workload::Smallbank sb({.num_accounts = 120});
    sb.Install(db.get());
    db->FinalizeSchema();
    EXPECT_TRUE(db->TryTakeCheckpoint().ok());
    Rng rng(17);
    std::vector<Value> params;
    for (int i = 0; i < 90; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      EXPECT_TRUE(
          db->ExecuteProcedure(proc, params, /*adhoc=*/i % 7 == 0).ok());
    }
    db->AdvanceEpoch();
    return db;
  };

  std::unique_ptr<Database> unsharded = run(1);
  std::unique_ptr<Database> sharded = run(kShards);
  const uint64_t hash = unsharded->ContentHash();
  ASSERT_EQ(sharded->ContentHash(), hash);
  // The sharded engine must actually have split work across loggers.
  EXPECT_GT(sharded->log_manager()->single_shard_commits(), 0u);
  EXPECT_GT(sharded->log_manager()->cross_shard_commits(), 0u);

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  for (Database* db : {unsharded.get(), sharded.get()}) {
    db->Crash();
    db->Recover(param.rec, ropts, ExecutionBackend::kThreads);
    EXPECT_EQ(db->ContentHash(), hash);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ShardHashParityTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kPhysical, recovery::Scheme::kPlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClr},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP}));

// --- Cross-shard atomicity under concurrency -----------------------------

TEST(ShardConcurrencyTest, CrossShardPaymentsConserveMoneyAt8Workers) {
  auto db = std::make_unique<Database>(
      SimOptions(logging::LogScheme::kCommand, kShards));
  workload::Smallbank sb({.num_accounts = 400});
  sb.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());

  const Timestamp t0 = db->txn_manager()->LastCommitted();
  const double sum_before = testutil::VisibleSum(
      db->catalog()->GetTable(db->catalog()->GetTableId("Checking")), t0);

  // Checking-to-checking transfers only: total checking balance is an
  // invariant every commit must preserve, including cross-shard commits
  // whose log records split across loggers.
  WorkloadDriver driver(db.get(), [&](Rng* rng, std::vector<Value>* params) {
    const int64_t a = rng->UniformInt(0, 399);
    int64_t b = rng->UniformInt(0, 398);
    if (b >= a) ++b;
    params->assign({Value(a), Value(b), Value(5.0)});
    return sb.send_payment_id();
  });
  DriverOptions dopts;
  dopts.num_workers = 8;
  dopts.num_txns = 2000;
  dopts.adhoc_fraction = 0.25;
  DriverResult r = driver.Run(dopts);
  ASSERT_EQ(r.failed, 0u);
  ASSERT_EQ(r.committed, dopts.num_txns);
  db->AdvanceEpoch();
  EXPECT_GT(db->log_manager()->cross_shard_commits(), 0u);

  const Timestamp t1 = db->txn_manager()->LastCommitted();
  EXPECT_DOUBLE_EQ(
      testutil::VisibleSum(
          db->catalog()->GetTable(db->catalog()->GetTableId("Checking")), t1),
      sum_before);

  // The invariant must survive per-shard recovery too.
  const uint64_t hash = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClr, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db->ContentHash(), hash);
  const Timestamp t2 = db->txn_manager()->LastCommitted();
  EXPECT_DOUBLE_EQ(
      testutil::VisibleSum(
          db->catalog()->GetTable(db->catalog()->GetTableId("Checking")), t2),
      sum_before);
}

// --- Process-restart recovery through the per-shard lanes ----------------

class ShardRestartRecoveryTest
    : public ::testing::TestWithParam<SchemeCase> {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "pacman_shard_XXXXXX").string();
    char* created = ::mkdtemp(tmpl.data());
    ASSERT_NE(created, nullptr);
    dir_ = created;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  DatabaseOptions ShardedFileOptions(logging::LogScheme scheme) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.num_shards = kShards;
    // One device per shard: each shard's logger stream (and checkpoint
    // stripes) on its own directory, the layout ApplyDeviceFlags sets up.
    opts.num_ssds = kShards;
    opts.device = device::DeviceKind::kFile;
    opts.log_dir = dir_;
    opts.commits_per_epoch = 10;
    opts.epochs_per_batch = 2;
    return opts;
  }

  void RunTxns(Database* db, int n, uint64_t seed = 1) {
    Rng rng(seed);
    std::vector<Value> params;
    for (int i = 0; i < n; ++i) {
      ProcId proc = bank_.NextTransaction(&rng, &params);
      ASSERT_TRUE(
          db->ExecuteProcedure(proc, params, /*adhoc=*/i % 5 == 0).ok());
    }
    db->AdvanceEpoch();
  }

  std::string dir_;
  // single_fraction = 0 so every Transfer writes; Transfer's multi-key
  // write sets make cross-shard records a certainty at 4 shards.
  workload::Bank bank_{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
};

// kill -9 equivalence: destroy the sharded Database with no shutdown
// handshake, reopen the directory, recover over one lane per shard, and
// require exact state parity — for every scheme.
TEST_P(ShardRestartRecoveryTest, SurvivesProcessRestartPerShard) {
  const SchemeCase param = GetParam();
  uint64_t hash_before = 0;
  {
    auto db = std::make_unique<Database>(ShardedFileOptions(param.log));
    ASSERT_FALSE(db->opened_existing_state());
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 80);
    hash_before = db->ContentHash();
  }

  auto db = std::make_unique<Database>(ShardedFileOptions(param.log));
  EXPECT_TRUE(db->opened_existing_state());
  EXPECT_TRUE(db->crashed());
  bank_.CreateTables(db->catalog());
  bank_.RegisterProcedures(db->registry());
  db->FinalizeSchema();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult r =
      db->Recover(param.rec, ropts, ExecutionBackend::kThreads);
  EXPECT_FALSE(db->crashed());
  EXPECT_GT(r.log.records_replayed, 0u);
  EXPECT_EQ(db->ContentHash(), hash_before);

  // The recovered sharded database accepts new work.
  RunTxns(db.get(), 10, /*seed=*/9);
  EXPECT_NE(db->ContentHash(), hash_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ShardRestartRecoveryTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kPhysical, recovery::Scheme::kPlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClr},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP}));

}  // namespace
}  // namespace pacman
