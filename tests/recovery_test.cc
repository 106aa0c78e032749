// End-to-end recovery tests: every scheme must restore the exact
// pre-crash committed state (content-hash checked), across workloads,
// thread counts, execution modes, ad-hoc fractions and backends.
#include "pacman/database.h"

#include <gtest/gtest.h>

#include "proc/procedure.h"
#include "workload/adhoc.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

using logging::LogScheme;
using recovery::PacmanMode;
using recovery::RecoveryOptions;
using recovery::Scheme;

LogScheme SchemeLogFormat(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return LogScheme::kPhysical;
    case Scheme::kLlr:
    case Scheme::kLlrP:
      return LogScheme::kLogical;
    case Scheme::kClr:
    case Scheme::kClrP:
      return LogScheme::kCommand;
  }
  return LogScheme::kCommand;
}

// Builds a bank database, runs a workload, checkpoints mid-way, crashes,
// recovers with `scheme` and verifies the content hash.
class BankRecoveryTest
    : public ::testing::TestWithParam<std::tuple<Scheme, uint32_t>> {};

TEST_P(BankRecoveryTest, RecoversExactState) {
  const Scheme scheme = std::get<0>(GetParam());
  const uint32_t threads = std::get<1>(GetParam());

  DatabaseOptions opts;
  opts.scheme = SchemeLogFormat(scheme);
  opts.num_ssds = 2;
  opts.num_loggers = 2;
  opts.epochs_per_batch = 3;
  opts.commits_per_epoch = 50;
  Database db(opts);

  workload::Bank bank(
      {.num_users = 500, .num_nations = 8, .single_fraction = 0.1});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  Rng rng(99);
  std::vector<Value> params;
  for (int i = 0; i < 400; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    if (i == 200) {
      ASSERT_TRUE(db.TryTakeCheckpoint().ok());  // Mid-run checkpoint.
    }
  }

  const uint64_t pre_crash = db.ContentHash();
  db.Crash();
  EXPECT_NE(db.ContentHash(), pre_crash);  // Memory is really gone.

  RecoveryOptions ropts;
  ropts.num_threads = threads;
  FullRecoveryResult result = db.Recover(scheme, ropts);
  EXPECT_EQ(db.ContentHash(), pre_crash);
  EXPECT_GT(result.checkpoint.seconds, 0.0);
  EXPECT_GT(result.log.seconds, 0.0);
  EXPECT_GT(result.log.records_replayed, 0u);

  // The database accepts new transactions after recovery.
  ProcId proc = bank.NextTransaction(&rng, &params);
  EXPECT_TRUE(db.ExecuteProcedure(proc, params).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BankRecoveryTest,
    ::testing::Combine(::testing::Values(Scheme::kPlr, Scheme::kLlr,
                                         Scheme::kLlrP, Scheme::kClr,
                                         Scheme::kClrP),
                       ::testing::Values(1u, 4u, 16u)));

// CLR-P execution-mode matrix (static / synchronous / pipelined) on TPC-C.
class ClrPModeTest : public ::testing::TestWithParam<PacmanMode> {};

TEST_P(ClrPModeTest, TpccRecoversExactState) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 40;
  opts.epochs_per_batch = 2;
  Database db(opts);

  workload::Tpcc tpcc({.num_warehouses = 2,
                       .districts_per_warehouse = 4,
                       .customers_per_district = 50,
                       .num_items = 100,
                       .orders_per_district = 8});
  tpcc.CreateTables(db.catalog());
  tpcc.RegisterProcedures(db.registry());
  tpcc.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  Rng rng(5);
  std::vector<Value> params;
  for (int i = 0; i < 300; ++i) {
    ProcId proc = tpcc.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre_crash = db.ContentHash();
  db.Crash();

  RecoveryOptions ropts;
  ropts.num_threads = 8;
  ropts.mode = GetParam();
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre_crash);
}

INSTANTIATE_TEST_SUITE_P(Modes, ClrPModeTest,
                         ::testing::Values(PacmanMode::kStaticOnly,
                                           PacmanMode::kSynchronous,
                                           PacmanMode::kPipelined));

TEST(RecoveryEquivalenceTest, AllSchemesProduceTheSameState) {
  // The same transaction stream recovered by all five schemes must yield
  // identical content hashes.
  std::vector<uint64_t> hashes;
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    DatabaseOptions opts;
    opts.scheme = SchemeLogFormat(scheme);
    opts.commits_per_epoch = 30;
    Database db(opts);
    workload::Smallbank sb({.num_accounts = 300,
                            .hotspot_fraction = 0.3,
                            .hotspot_size = 20});
    sb.CreateTables(db.catalog());
    sb.RegisterProcedures(db.registry());
    sb.Load(db.catalog());
    db.FinalizeSchema();
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());
    Rng rng(17);
    std::vector<Value> params;
    for (int i = 0; i < 250; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 6;
    db.Recover(scheme, ropts);
    ASSERT_EQ(db.ContentHash(), pre) << recovery::SchemeName(scheme);
    hashes.push_back(db.ContentHash());
  }
  for (uint64_t h : hashes) EXPECT_EQ(h, hashes[0]);
}

TEST(AdhocRecoveryTest, MixedCommandAndLogicalRecords) {
  for (double frac : {0.0, 0.3, 1.0}) {
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.commits_per_epoch = 25;
    Database db(opts);
    workload::Bank bank(
        {.num_users = 300, .num_nations = 8, .single_fraction = 0.0});
    bank.CreateTables(db.catalog());
    bank.RegisterProcedures(db.registry());
    bank.Load(db.catalog());
    db.FinalizeSchema();
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());

    Rng rng(23);
    std::vector<Value> params;
    for (int i = 0; i < 200; ++i) {
      ProcId proc = bank.NextTransaction(&rng, &params);
      bool adhoc = workload::TagAdhoc(&rng, frac);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params, adhoc).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 8;
    db.Recover(Scheme::kClrP, ropts);
    EXPECT_EQ(db.ContentHash(), pre) << "adhoc fraction " << frac;
  }
}

TEST(AdhocRecoveryTest, FreeFormWritesRecover) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 10;
  Database db(opts);
  workload::Bank bank({.num_users = 100, .num_nations = 4,
                       .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    std::vector<workload::AdhocWrite> writes;
    writes.push_back({"Current",
                      static_cast<Key>(rng.UniformInt(0, 99)),
                      {Value(static_cast<double>(i))}});
    writes.push_back({"Saving",
                      static_cast<Key>(rng.UniformInt(0, 99)),
                      {Value(static_cast<double>(2 * i))}});
    txn::CommitInfo info;
    ASSERT_TRUE(workload::ExecuteAdhocWrites(db.catalog(), db.txn_manager(),
                                             writes, &info)
                    .ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(ThreadBackendTest, RealThreadsRecoverToo) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 20;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 200, .num_nations = 4, .single_fraction = 0.1});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  Rng rng(13);
  std::vector<Value> params;
  for (int i = 0; i < 150; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(ChoppingRecoveryTest, ChoppingGraphRecoversExactState) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 25;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 300, .num_nations = 8, .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  Rng rng(41);
  std::vector<Value> params;
  for (int i = 0; i < 200; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();

  analysis::GlobalDependencyGraph chopping_gdg = db.BuildChoppingGdg();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  ropts.mode = PacmanMode::kStaticOnly;
  ropts.gdg_override = &chopping_gdg;
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(RecoveryStatsTest, ClrIsSlowerThanClrPInVirtualTime) {
  auto run = [](Scheme scheme) {
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.commits_per_epoch = 40;
    Database db(opts);
    workload::Smallbank sb({.num_accounts = 500,
                            .hotspot_fraction = 0.1,
                            .hotspot_size = 50});
    sb.CreateTables(db.catalog());
    sb.RegisterProcedures(db.registry());
    sb.Load(db.catalog());
    db.FinalizeSchema();
    EXPECT_TRUE(db.TryTakeCheckpoint().ok());
    Rng rng(3);
    std::vector<Value> params;
    for (int i = 0; i < 400; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      EXPECT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 16;
    FullRecoveryResult r = db.Recover(scheme, ropts);
    EXPECT_EQ(db.ContentHash(), pre);
    return r.log.seconds;
  };
  const double clr = run(Scheme::kClr);
  const double clr_p = run(Scheme::kClrP);
  // The headline claim, in miniature: parallel command-log recovery is
  // substantially faster than serial replay at 16 threads.
  EXPECT_LT(clr_p, clr / 2.0);
}

TEST(ReloadOnlyTest, ReloadSkipsReplay) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 20;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 100, .num_nations = 4, .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  Rng rng(8);
  std::vector<Value> params;
  for (int i = 0; i < 100; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  ropts.reload_only = true;
  FullRecoveryResult r = db.Recover(Scheme::kClr, ropts);
  EXPECT_EQ(r.log.records_replayed, 0u);
  EXPECT_GT(r.log.breakdown.data_loading, 0.0);
  EXPECT_EQ(r.log.breakdown.useful_work, 0.0);
}

// A Key is any uint64_t, so a key at or above 2^56 in one table and its
// low bits in another are different tuples: the load pipeline's per-key
// order check and CLR-P's conflict chains key on the exact (table, key)
// pair. One transaction writes A[2^56 + 5] and B[5] (tables 0 and 1);
// every scheme recovers it.
TEST(RecoveryKeyTest, KeysAbove56BitsDoNotAliasAcrossTables) {
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    SCOPED_TRACE(recovery::SchemeName(scheme));
    DatabaseOptions opts;
    opts.scheme = SchemeLogFormat(scheme);
    Database db(opts);
    const Schema schema({{"v", ValueType::kInt64, 0}});
    ASSERT_EQ(db.catalog()->CreateTable("A", schema)->id(), 0u);
    ASSERT_EQ(db.catalog()->CreateTable("B", schema)->id(), 1u);
    proc::ProcedureBuilder b(
        "WriteBoth", {ValueType::kInt64, ValueType::kInt64, ValueType::kInt64});
    b.WriteRow("A", proc::P(0), {proc::P(2)});
    b.WriteRow("B", proc::P(1), {proc::P(2)});
    const ProcId proc = db.registry()->Register(b.Build());
    db.FinalizeSchema();
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());
    ASSERT_TRUE(db.ExecuteProcedure(proc, {Value(int64_t{(1ll << 56) + 5}),
                                           Value(int64_t{5}),
                                           Value(int64_t{1})})
                    .ok());
    const uint64_t pre_crash = db.ContentHash();
    db.Crash();
    db.Recover(scheme, RecoveryOptions{});
    EXPECT_EQ(db.ContentHash(), pre_crash);
  }
}

}  // namespace
}  // namespace pacman
