// Fault-injection and durability-failure hardening tests.
//
// Four layers, bottom up:
//   1. FaultInjectingDevice unit behavior: deterministic seeded schedules,
//      Nth-op triggers with transient healing, torn writes, ENOSPC
//      budgets, kill/heal, op-journal replay.
//   2. RetryIo: transient faults absorbed within the attempt budget,
//      permanent faults escalate after it.
//   3. Engine policy: a transient flush fault is retried and the epoch
//      still advances; a permanent log-device failure degrades the
//      database to read-only (writes rejected with kReadOnly, reads keep
//      serving, acked commits survive recovery, un-acked ones are never
//      falsely acked).
//   4. ALICE-style crash-consistency sweeps: during a mixed bank
//      workload over journaling fault devices, rebuild the device image
//      at *every* durable-op boundary (and at every byte offset of the
//      final batch file) and recover — under all five schemes, sharded
//      and unsharded, the recovered state must always be one of the
//      epoch-boundary states the forward run acked, in order.
#include "device/fault_injecting_device.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "device/io_retry.h"
#include "device/simulated_ssd.h"
#include "logging/log_manager.h"
#include "logging/log_store.h"
#include "maintenance/checkpoint_service.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pacman/database.h"
#include "test_util.h"
#include "workload/bank.h"

namespace pacman {
namespace {

using device::FaultInjectingDevice;
using device::FaultSpec;
using device::IoResult;
using device::OpJournal;
using device::OpJournalEntry;
using device::SimulatedSsd;

std::unique_ptr<SimulatedSsd> Ssd() {
  return std::make_unique<SimulatedSsd>();
}

// --- Spec parsing ---------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  FaultSpec spec;
  std::string inner;
  ASSERT_TRUE(device::ParseFaultSpec(
                  "file,fail_write=3,fail_append=4,fail_fsync=5,fail_read=6,"
                  "heal=2,torn=128,enospc=1024,rate=5,seed=9,device=1,"
                  "persist=1",
                  &spec, &inner)
                  .ok());
  EXPECT_EQ(inner, "file");
  EXPECT_EQ(spec.fail_write, 3u);
  EXPECT_EQ(spec.fail_append, 4u);
  EXPECT_EQ(spec.fail_fsync, 5u);
  EXPECT_EQ(spec.fail_read, 6u);
  EXPECT_EQ(spec.heal_after, 2u);
  EXPECT_EQ(spec.torn_bytes, 128u);
  EXPECT_EQ(spec.enospc_bytes, 1024u);
  EXPECT_EQ(spec.rate_percent, 5u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.only_device, 1);
  EXPECT_TRUE(spec.persist);

  // The header's torn-append example: `torn` pairs with fail_append too.
  ASSERT_TRUE(
      device::ParseFaultSpec("file,torn=16,fail_append=9", &spec, &inner)
          .ok());
  EXPECT_EQ(spec.fail_append, 9u);
  EXPECT_EQ(spec.torn_bytes, 16u);
  EXPECT_EQ(spec.fail_write, 0u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  FaultSpec spec;
  std::string inner;
  // Unknown inner backend, missing '=', unknown key, non-numeric value,
  // out-of-range rate: all named errors, none a silent default.
  for (const char* bad :
       {"disk,fail_write=1", "sim,fail_write", "sim,frobnicate=1",
        "sim,fail_write=x", "sim,rate=101", ""}) {
    EXPECT_FALSE(device::ParseFaultSpec(bad, &spec, &inner).ok()) << bad;
  }
}

// --- Injector unit behavior -----------------------------------------------

TEST(FaultInjectorTest, SeededRateScheduleIsDeterministic) {
  FaultSpec spec;
  spec.rate_percent = 25;
  spec.seed = 99;
  auto run = [&spec]() {
    FaultInjectingDevice dev(Ssd(), spec);
    std::string pattern;
    for (int i = 0; i < 100; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      pattern += dev.WriteFile(name, {1, 2, 3}).ok() ? '.' : 'X';
    }
    for (int i = 0; i < 50; ++i) {
      pattern += dev.AppendFile("a", {9}).ok() ? '.' : 'X';
    }
    for (int i = 0; i < 20; ++i) pattern += dev.SyncBarrier().ok() ? '.' : 'X';
    return pattern;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());  // Same spec => identical fault sequence.
  const size_t faults = std::count(first.begin(), first.end(), 'X');
  EXPECT_GT(faults, 0u);
  EXPECT_LT(faults, first.size());
}

TEST(FaultInjectorTest, NthWriteFailsTransientlyThenHeals) {
  FaultSpec spec;
  spec.fail_write = 3;
  spec.heal_after = 2;
  FaultInjectingDevice dev(Ssd(), spec);
  EXPECT_TRUE(dev.WriteFile("f1", {1}).ok());
  EXPECT_TRUE(dev.WriteFile("f2", {1}).ok());
  EXPECT_FALSE(dev.WriteFile("f3", {1}).ok());
  EXPECT_FALSE(dev.WriteFile("f4", {1}).ok());
  EXPECT_TRUE(dev.WriteFile("f5", {1}).ok());
  const device::FaultCounters c = dev.counters();
  EXPECT_EQ(c.writes, 5u);
  EXPECT_EQ(c.faults_injected, 2u);
  // The failed writes left nothing behind.
  EXPECT_FALSE(dev.Exists("f3"));
  EXPECT_TRUE(dev.Exists("f5"));
}

TEST(FaultInjectorTest, PermanentScheduleFailsForever) {
  FaultSpec spec;
  spec.fail_fsync = 2;  // heal_after = 0: dead from the trigger on.
  FaultInjectingDevice dev(Ssd(), spec);
  EXPECT_TRUE(dev.SyncBarrier().ok());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(dev.SyncBarrier().ok());
}

TEST(FaultInjectorTest, TornWritePersistsOnlyThePrefix) {
  FaultSpec spec;
  spec.fail_write = 1;
  spec.torn_bytes = 4;
  FaultInjectingDevice dev(Ssd(), spec);
  const std::vector<uint8_t> payload = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  IoResult r = dev.WriteFile("t", payload);
  EXPECT_FALSE(r.ok());
  // The op reported failure, but the medium kept a 4-byte prefix — the
  // torn image recovery sweeps must cope with.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.inner()->ReadFile("t", &bytes).ok());
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0, 1, 2, 3}));
}

TEST(FaultInjectorTest, TornAppendKeepsEarlierContentPlusThePrefix) {
  FaultSpec spec;
  spec.fail_append = 2;
  spec.heal_after = 1;
  spec.torn_bytes = 3;
  FaultInjectingDevice dev(Ssd(), spec);
  ASSERT_TRUE(dev.AppendFile("t", {0, 1}).ok());
  IoResult r = dev.AppendFile("t", {2, 3, 4, 5, 6});
  EXPECT_FALSE(r.ok());
  // The append reported failure, but the medium kept the earlier content
  // plus a 3-byte prefix of the new bytes — a crash mid-append.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.inner()->ReadFile("t", &bytes).ok());
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(dev.AppendFile("t", {7}).ok());  // Healed.
  EXPECT_EQ(dev.counters().faults_injected, 1u);
}

TEST(FaultInjectorTest, EnospcBudgetExhausts) {
  FaultSpec spec;
  spec.enospc_bytes = 10;
  FaultInjectingDevice dev(Ssd(), spec);
  EXPECT_TRUE(dev.WriteFile("a", std::vector<uint8_t>(8, 1)).ok());
  IoResult r = dev.WriteFile("b", std::vector<uint8_t>(8, 2));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.message().find("no space"), std::string::npos);
  EXPECT_EQ(dev.counters().faults_injected, 1u);
}

TEST(FaultInjectorTest, KillAndHealModelYankedVolume) {
  FaultInjectingDevice dev(Ssd(), FaultSpec{});
  EXPECT_TRUE(dev.WriteFile("a", {1}).ok());
  dev.FailAllWrites("log volume yanked");
  IoResult r = dev.WriteFile("b", {2});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.message().find("log volume yanked"), std::string::npos);
  EXPECT_FALSE(dev.SyncBarrier().ok());
  dev.Heal();
  EXPECT_TRUE(dev.WriteFile("b", {2}).ok());
}

TEST(FaultInjectorTest, ReadFaultReportsCorruptionWithContext) {
  FaultSpec spec;
  spec.fail_read = 1;
  spec.heal_after = 1;
  FaultInjectingDevice dev(Ssd(), spec);
  ASSERT_TRUE(dev.WriteFile("payload", {1, 2, 3}).ok());
  std::vector<uint8_t> bytes;
  Status s = dev.ReadFile("payload", &bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("payload"), std::string::npos);
  EXPECT_NE(s.message().find("offset"), std::string::npos);
  EXPECT_TRUE(dev.ReadFile("payload", &bytes).ok());  // Healed.
}

TEST(FaultInjectorTest, OnlyDeviceScopesTheSchedule) {
  FaultSpec spec;
  spec.fail_write = 1;
  spec.only_device = 1;
  FaultInjectingDevice dev0(Ssd(), spec, /*index=*/0);
  FaultInjectingDevice dev1(Ssd(), spec, /*index=*/1);
  EXPECT_TRUE(dev0.WriteFile("a", {1}).ok());
  EXPECT_FALSE(dev1.WriteFile("a", {1}).ok());
}

TEST(FaultInjectorTest, JournalReplayRebuildsEveryOpBoundary) {
  auto journal = std::make_shared<OpJournal>();
  FaultInjectingDevice dev(Ssd(), FaultSpec{}, /*index=*/0, journal);
  ASSERT_TRUE(dev.WriteFile("a", {1}).ok());
  ASSERT_TRUE(dev.AppendFile("a", {2}).ok());
  ASSERT_TRUE(dev.WriteFile("b", {3}).ok());
  ASSERT_TRUE(dev.RemoveFile("a").ok());
  const std::vector<OpJournalEntry> entries = journal->Snapshot();
  ASSERT_EQ(entries.size(), 4u);

  // Expected (exists(a), contents(a), exists(b)) after each prefix.
  struct Expect {
    bool has_a;
    std::vector<uint8_t> a;
    bool has_b;
  };
  const Expect expect[] = {
      {false, {}, false},      {true, {1}, false},     {true, {1, 2}, false},
      {true, {1, 2}, true},    {false, {}, true},
  };
  for (size_t upto = 0; upto <= entries.size(); ++upto) {
    SimulatedSsd target;
    device::ReplayJournal(entries, upto, {&target});
    EXPECT_EQ(target.Exists("a"), expect[upto].has_a) << upto;
    EXPECT_EQ(target.Exists("b"), expect[upto].has_b) << upto;
    if (expect[upto].has_a) {
      std::vector<uint8_t> bytes;
      ASSERT_TRUE(target.ReadFile("a", &bytes).ok());
      EXPECT_EQ(bytes, expect[upto].a) << upto;
    }
  }
}

// --- RetryIo --------------------------------------------------------------

TEST(IoRetryTest, TransientFaultIsAbsorbedWithinTheBudget) {
  FaultSpec spec;
  spec.fail_write = 1;
  spec.heal_after = 2;  // Two misses, then healthy.
  FaultInjectingDevice dev(Ssd(), spec);
  std::atomic<uint64_t> retries{0};
  IoResult r = device::RetryIo(device::IoRetryPolicy{}, &retries,
                               [&] { return dev.WriteFile("x", {1}); });
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(retries.load(), 2u);
  EXPECT_TRUE(dev.Exists("x"));
}

TEST(IoRetryTest, PermanentFaultEscalatesAfterTheBudget) {
  FaultSpec spec;
  spec.fail_append = 1;  // Permanent.
  FaultInjectingDevice dev(Ssd(), spec);
  std::atomic<uint64_t> retries{0};
  device::IoRetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_s = 1e-5;
  IoResult r = device::RetryIo(policy, &retries,
                               [&] { return dev.AppendFile("x", {1}); });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(retries.load(), 2u);  // Attempts 2 and 3.
  EXPECT_EQ(dev.counters().appends, 3u);
}

// --- Engine failure policy ------------------------------------------------

// Builds a bank database over FaultInjectingDevices (handles collected
// into *devs for kill/heal control) with manual epochs. The read-only
// Balance procedure registers alongside Transfer/Deposit so degraded-mode
// reads have something to serve.
struct FaultyEngine {
  explicit FaultyEngine(FaultSpec spec = FaultSpec{}) {
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    opts.num_ssds = 2;
    opts.commits_per_epoch = 0;  // The test drives epochs.
    opts.epochs_per_batch = 1;
    opts.ckpt_files_per_ssd = 2;
    opts.device_factory =
        [this, spec](uint32_t i) -> std::unique_ptr<device::StorageDevice> {
      auto dev = std::make_unique<FaultInjectingDevice>(Ssd(), spec, i);
      devs.push_back(dev.get());
      return dev;
    };
    db = std::make_unique<Database>(opts);
    bank.CreateTables(db->catalog());
    bank.RegisterProcedures(db->registry());
    bank.RegisterBalance(db->registry());
    bank.Load(db->catalog());
    db->FinalizeSchema();
    EXPECT_TRUE(db->TryTakeCheckpoint().ok());
  }

  void RunTxns(int n) {
    std::vector<Value> params;
    for (int i = 0; i < n; ++i) {
      const ProcId proc = bank.NextTransaction(&rng, &params);
      ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
    }
  }

  void KillDevices(const std::string& reason) {
    for (FaultInjectingDevice* d : devs) d->FailAllWrites(reason);
  }
  void HealDevices() {
    for (FaultInjectingDevice* d : devs) d->Heal();
  }

  workload::Bank bank{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
  std::vector<FaultInjectingDevice*> devs;
  std::unique_ptr<Database> db;
  Rng rng{7};
};

TEST(FaultEngineTest, TransientFlushFaultIsRetriedAndAbsorbed) {
  // The setup checkpoint issues SyncBarrier #1 on each device; the first
  // group-commit flush issues #2 — which fails once and heals, exercising
  // the logging layer's RetryIo path end to end.
  FaultSpec spec;
  spec.fail_fsync = 2;
  spec.heal_after = 1;
  FaultyEngine e(spec);
  e.RunTxns(30);
  const logging::FlushCost cost = e.db->AdvanceEpoch();
  EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
  EXPECT_FALSE(e.db->read_only());
  EXPECT_EQ(e.db->state(), DatabaseState::kOpen);
  EXPECT_GE(e.db->io_retries(), 1u);
  EXPECT_EQ(e.db->io_failures(), 0u);
  uint64_t faults = 0;
  for (FaultInjectingDevice* d : e.devs) faults += d->counters().faults_injected;
  EXPECT_GE(faults, 1u);
}

// Every record of a strictly parsed batch file, checking that no commit
// appears twice.
std::vector<logging::LogRecord> StrictRecords(device::StorageDevice* dev,
                                              const std::string& name) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(dev->ReadFile(name, &bytes).ok());
  logging::LogBatch batch;
  logging::BatchParseOptions strict;
  strict.file_name = name;
  const Status s = logging::LogStore::DeserializeBatch(
      logging::LogScheme::kCommand, std::move(bytes), strict, &batch);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::set<Timestamp> seen;
  for (const logging::LogRecord& r : batch.records) {
    EXPECT_TRUE(seen.insert(r.commit_ts).second)
        << "commit " << r.commit_ts << " persisted twice";
  }
  return batch.records;
}

TEST(FaultEngineTest, TornAppendFailsAFlushAndTheNextFlushRewrites) {
  // One logger over one device, so the op numbers are exact:
  //   flush 1: append #1 (file header + block), fsync #1
  //   flush 2: append #2 is torn after 10 bytes; each of the three retries
  //            rewrites the image atomically, but fsyncs #2-#4 fail: the
  //            flush fails
  //   flush 3: rewrites the image (the owed records included), fsync #5
  //            fails; the retry rewrites again and fsync #6 succeeds
  //   flush 4: append #3 is torn too; the retry's rewrite succeeds.
  FaultSpec spec;
  spec.fail_append = 2;
  spec.fail_fsync = 2;
  spec.heal_after = 4;  // The log path's whole retry budget.
  spec.torn_bytes = 10;
  FaultInjectingDevice dev(Ssd(), spec);
  logging::Logger logger(0, logging::LogScheme::kCommand, &dev,
                         /*epochs_per_batch=*/10);
  Timestamp cts = 100;
  auto append = [&](int n) {
    for (int i = 0; i < n; ++i) {
      logging::LogRecord r;
      r.commit_ts = cts++;
      r.proc = 1;
      r.params = {Value(static_cast<int64_t>(r.commit_ts))};
      logger.Append(std::move(r));
    }
  };
  const std::string name = logging::LogStore::BatchFileName(0, 0);

  append(3);
  ASSERT_TRUE(logger.FlushEpoch(1).status.ok());
  append(3);
  EXPECT_FALSE(logger.FlushEpoch(2).status.ok());
  EXPECT_EQ(dev.counters().appends, 2u);
  EXPECT_EQ(dev.counters().writes, 3u);  // The retries rewrote, not appended.
  append(2);
  const logging::FlushCost third = logger.FlushEpoch(3);
  ASSERT_TRUE(third.status.ok()) << third.status.ToString();
  EXPECT_EQ(dev.counters().appends, 2u);
  EXPECT_EQ(dev.counters().writes, 5u);
  // Flush 1's records keep their epoch; the owed ones re-stamped into the
  // flush that finally persisted them.
  std::vector<logging::LogRecord> records = StrictRecords(&dev, name);
  ASSERT_EQ(records.size(), 8u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].commit_ts, 100 + i);
    EXPECT_EQ(records[i].epoch, i < 3 ? 1u : 3u);
  }

  append(1);
  ASSERT_TRUE(logger.FlushEpoch(4).status.ok());
  EXPECT_EQ(dev.counters().appends, 3u);
  records = StrictRecords(&dev, name);
  ASSERT_EQ(records.size(), 9u);
  // The file is the one-block image of its records, and bytes_logged
  // counts that block's record bytes once, however often they were
  // rewritten.
  size_t payload = 0;
  const std::vector<uint8_t> image = logging::LogStore::SerializeBlock(
      logging::LogScheme::kCommand, 0, 0, /*file_header=*/true,
      records.data(), records.size(), &payload);
  std::vector<uint8_t> file;
  ASSERT_TRUE(dev.ReadFile(name, &file).ok());
  EXPECT_EQ(file, image);
  EXPECT_EQ(logger.bytes_logged(), payload);
}

TEST(FaultEngineTest, TornAppendRecoveryReturnsTheAckedState) {
  // The same torn append inside a database: the failed flush degrades it
  // to read-only, the crash's final close rewrites the image atomically,
  // and recovery lands on the last acked epoch with a strictly parseable
  // log holding each commit once.
  FaultSpec spec;
  spec.fail_append = 2;
  spec.fail_fsync = 3;  // Fsync #1 is the setup checkpoint's barrier.
  spec.heal_after = 4;
  spec.torn_bytes = 10;
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  opts.num_ssds = 1;
  opts.num_loggers = 1;
  opts.commits_per_epoch = 0;
  opts.epochs_per_batch = 5;
  opts.ckpt_files_per_ssd = 2;
  FaultInjectingDevice* dev = nullptr;
  opts.device_factory =
      [&dev, spec](uint32_t i) -> std::unique_ptr<device::StorageDevice> {
    auto d = std::make_unique<FaultInjectingDevice>(Ssd(), spec, i);
    dev = d.get();
    return d;
  };
  Database db(opts);
  workload::Bank bank{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
  bank.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  ASSERT_EQ(dev->counters().fsyncs, 1u);

  Rng rng(7);
  std::vector<Value> params;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const ProcId proc = bank.NextTransaction(&rng, &params);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
  };
  run(20);
  ASSERT_TRUE(db.AdvanceEpoch().status.ok());
  const uint64_t h_acked = db.ContentHash();
  run(10);
  EXPECT_FALSE(db.AdvanceEpoch().status.ok());
  EXPECT_TRUE(db.read_only());

  db.Crash();
  const std::vector<logging::LogRecord> records =
      StrictRecords(dev, logging::LogStore::BatchFileName(0, 0));
  size_t acked = 0;
  for (const logging::LogRecord& r : records) acked += r.epoch <= 1 ? 1 : 0;
  EXPECT_GT(acked, 0u);
  EXPECT_GT(records.size(), acked);  // The unacked tail is there, past pepoch.

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  db.Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_FALSE(db.read_only());
  EXPECT_EQ(db.ContentHash(), h_acked);
}

TEST(FaultEngineTest, PermanentLogFailureDegradesToReadOnly) {
  FaultyEngine e;
  e.RunTxns(30);
  ASSERT_TRUE(e.db->AdvanceEpoch().status.ok());
  // Everything up to here has been acked durable; h_acked is the state no
  // failure may lose.
  const uint64_t h_acked = e.db->ContentHash();

  e.RunTxns(10);  // In-flight work, never acked.
  e.KillDevices("log volume yanked");
  const logging::FlushCost failed = e.db->AdvanceEpoch();
  EXPECT_FALSE(failed.status.ok());
  EXPECT_TRUE(e.db->read_only());
  EXPECT_EQ(e.db->state(), DatabaseState::kReadOnly);
  EXPECT_NE(e.db->read_only_reason().find("log volume yanked"),
            std::string::npos);
  EXPECT_GE(e.db->io_failures(), 1u);

  // Writes are rejected cleanly, before commit.
  Status w = e.db->ExecuteProcedure(
      e.bank.deposit_id(),
      {Value(int64_t{1}), Value(5.0), Value(int64_t{0})});
  EXPECT_EQ(w.code(), StatusCode::kReadOnly);
  // Reads keep serving.
  TxnResult r = e.db->Execute(e.bank.balance_id(), {Value(int64_t{1})});
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.values.size(), 2u);
  // The durability fence reports kReadOnly instead of touching the dead
  // device again (and the epoch does not advance).
  EXPECT_EQ(e.db->AdvanceEpoch().status.code(), StatusCode::kReadOnly);

  // Crash with the device still dead, then heal and recover: every acked
  // commit survives, nothing un-acked was falsely acked.
  e.db->Crash();
  e.HealDevices();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  e.db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_FALSE(e.db->read_only());  // Recover() restores kOpen.
  EXPECT_EQ(e.db->state(), DatabaseState::kOpen);
  EXPECT_EQ(e.db->ContentHash(), h_acked);

  // The never-acked records the failed flush left in the loggers must not
  // ride along with the next group commit: commit more, crash, and a
  // second recovery lands on exactly what was acked.
  e.RunTxns(10);
  ASSERT_TRUE(e.db->AdvanceEpoch().status.ok());
  const uint64_t h_acked2 = e.db->ContentHash();
  EXPECT_NE(h_acked2, h_acked);
  e.db->Crash();
  e.db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(e.db->ContentHash(), h_acked2);
}

TEST(FaultEngineTest, CheckpointCycleFailureCountsAndRetries) {
  FaultyEngine e;
  e.RunTxns(30);
  ASSERT_TRUE(e.db->AdvanceEpoch().status.ok());

  maintenance::CheckpointPolicy policy;
  policy.log_bytes = 1;
  maintenance::CheckpointService svc(e.db.get(), policy, /*pool=*/nullptr);

  auto count_batches = [&e]() {
    size_t n = 0;
    for (FaultInjectingDevice* d : e.devs) n += d->ListFiles("log_").size();
    return n;
  };
  const size_t batches_before = count_batches();

  e.KillDevices("checkpoint volume failed");
  EXPECT_FALSE(svc.RunOnce().ok());
  EXPECT_EQ(svc.stats().checkpoint_failures, 1u);
  EXPECT_EQ(svc.stats().checkpoints, 0u);
  // A failed cycle must not have truncated anything: the log is still the
  // only durable copy.
  EXPECT_EQ(count_batches(), batches_before);
  // The checkpoint path never degrades the database — only the log path
  // does. The next cycle simply retries.
  EXPECT_FALSE(e.db->read_only());

  e.HealDevices();
  EXPECT_TRUE(svc.RunOnce().ok());
  EXPECT_EQ(svc.stats().checkpoints, 1u);
  EXPECT_EQ(svc.stats().checkpoint_failures, 1u);
  EXPECT_GT(svc.stats().last_checkpoint_id, 0u);
}

// --- Live server in degraded mode -----------------------------------------

// Minimal blocking wire client (subset of tests/net_test.cc's).
class WireClient {
 public:
  ~WireClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    if (!SendFrame(net::HelloFrame())) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kHelloOk)) {
      return false;
    }
    Serializer s;
    s.PutU8(static_cast<uint8_t>(net::MsgType::kOpenSession));
    if (!SendFrame(s)) return false;
    return RecvFrame(&p) && !p.empty() &&
           p[0] == static_cast<uint8_t>(net::MsgType::kSessionOpened);
  }

  bool GetProc(const std::string& name, uint32_t* id) {
    Serializer s;
    s.PutU8(static_cast<uint8_t>(net::MsgType::kGetProc));
    s.PutString(name);
    if (!SendFrame(s)) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kProcInfo)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    uint8_t status = 0;
    std::string msg;
    if (!d.GetU8(&status).ok() || !d.GetString(&msg).ok()) return false;
    if (status != static_cast<uint8_t>(StatusCode::kOk)) return false;
    return d.GetU32(id).ok();
  }

  bool Call(uint64_t request_id, uint32_t proc, const std::vector<Value>& args,
            net::CallResultMsg* out) {
    if (!SendFrame(net::CallFrame(request_id, proc, 0, args))) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kCallResult)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    return net::ParseCallResult(&d, out).ok();
  }

  // The wire durability fence; fills *code with the flush Status.
  bool Flush(uint8_t* code) {
    Serializer s;
    s.PutU8(static_cast<uint8_t>(net::MsgType::kFlush));
    if (!SendFrame(s)) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kFlushOk)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    std::string msg;
    return d.GetU8(code).ok() && d.GetString(&msg).ok();
  }

 private:
  bool SendFrame(const Serializer& payload) {
    std::string wire;
    net::AppendFrame(payload, &wire);
    return SendFrame(wire);
  }
  bool SendFrame(const std::string& wire) {
    const char* p = wire.data();
    size_t n = wire.size();
    while (n > 0) {
      const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }
  bool RecvFrame(std::vector<uint8_t>* payload) {
    uint32_t len = 0;
    if (!RecvExact(&len, sizeof(len))) return false;
    if (len == 0 || len > net::kFrameLimit) return false;
    payload->resize(len);
    return RecvExact(payload->data(), len);
  }
  bool RecvExact(void* out, size_t n) {
    char* p = static_cast<char*>(out);
    while (n > 0) {
      const ssize_t r = recv(fd_, p, n, 0);
      if (r <= 0) return false;
      p += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

TEST(FaultServerTest, PermanentLogFailureLeavesServerServingReadOnly) {
  FaultyEngine e;
  net::Server server(e.db.get(), net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  WireClient c;
  ASSERT_TRUE(c.Open(server.port()));
  uint32_t deposit = 0, balance = 0;
  ASSERT_TRUE(c.GetProc("Deposit", &deposit));
  ASSERT_TRUE(c.GetProc("Balance", &balance));

  // Healthy: a write commits and the durability fence acks it.
  net::CallResultMsg r;
  ASSERT_TRUE(c.Call(1, deposit,
                     {Value(int64_t{3}), Value(10.0), Value(int64_t{0})}, &r));
  ASSERT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  uint8_t code = 0;
  ASSERT_TRUE(c.Flush(&code));
  EXPECT_EQ(code, static_cast<uint8_t>(StatusCode::kOk));

  // Yank the log volume. The commit below succeeds in memory, but the
  // fence that would ack it must report the failure — never a false ack.
  e.KillDevices("log volume yanked");
  ASSERT_TRUE(c.Call(2, deposit,
                     {Value(int64_t{4}), Value(10.0), Value(int64_t{0})}, &r));
  ASSERT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  ASSERT_TRUE(c.Flush(&code));
  EXPECT_NE(code, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_TRUE(e.db->read_only());

  // Degraded: writes answer kReadOnly on the wire, reads keep serving,
  // the fence keeps reporting kReadOnly, and the server stays up for new
  // connections — no SIGABRT, no dropped listener.
  ASSERT_TRUE(c.Call(3, deposit,
                     {Value(int64_t{5}), Value(10.0), Value(int64_t{0})}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kReadOnly));
  ASSERT_TRUE(c.Call(4, balance, {Value(int64_t{3})}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(r.values.size(), 2u);
  ASSERT_TRUE(c.Flush(&code));
  EXPECT_EQ(code, static_cast<uint8_t>(StatusCode::kReadOnly));

  WireClient fresh;
  EXPECT_TRUE(fresh.Open(server.port()));
  net::CallResultMsg r2;
  ASSERT_TRUE(fresh.Call(1, balance, {Value(int64_t{4})}, &r2));
  EXPECT_EQ(r2.status, static_cast<uint8_t>(StatusCode::kOk));

  EXPECT_TRUE(e.db->read_only());
  EXPECT_NE(e.db->read_only_reason().find("log volume yanked"),
            std::string::npos);
  EXPECT_GE(e.db->io_failures(), 1u);

  server.Stop();
}

// --- ALICE-style crash-consistency sweeps ---------------------------------

logging::LogScheme LogSchemeFor(recovery::Scheme s) {
  switch (s) {
    case recovery::Scheme::kPlr:
      return logging::LogScheme::kPhysical;
    case recovery::Scheme::kLlr:
    case recovery::Scheme::kLlrP:
      return logging::LogScheme::kLogical;
    case recovery::Scheme::kClr:
    case recovery::Scheme::kClrP:
      return logging::LogScheme::kCommand;
  }
  return logging::LogScheme::kCommand;
}

// One state the forward run acked durable at an epoch boundary: a legal
// recovery outcome.
struct LegalState {
  uint64_t hash = 0;
  double money = 0.0;
};

struct SweepRun {
  std::vector<OpJournalEntry> entries;  // Durable ops, arrival order.
  size_t checkpoint_done = 0;  // Journal size once setup ckpt was durable.
  std::vector<LegalState> legal;  // Boundary states, oldest first.
};

constexpr uint32_t kSweepDevices = 2;

DatabaseOptions SweepOptions(recovery::Scheme scheme, uint32_t shards) {
  DatabaseOptions opts;
  opts.scheme = LogSchemeFor(scheme);
  opts.num_ssds = kSweepDevices;
  opts.num_shards = shards;
  opts.commits_per_epoch = 0;
  // Several epochs per batch file, so the final file takes several
  // appends: a torn append still only ever cuts records beyond the pepoch
  // watermark, never already-acked epochs in front of it.
  opts.epochs_per_batch = 3;
  opts.ckpt_files_per_ssd = 2;
  return opts;
}

workload::Bank SweepBank() {
  return workload::Bank(workload::BankConfig{
      .num_users = 40, .num_nations = 4, .single_fraction = 0.0});
}

double MoneyTotal(Database* db) {
  const Timestamp ts = db->txn_manager()->LastCommitted();
  return testutil::VisibleSum(db->catalog()->GetTable("Current"), ts) +
         testutil::VisibleSum(db->catalog()->GetTable("Saving"), ts);
}

// Runs the mixed workload over journaling fault devices, acking epochs
// with AdvanceEpoch and recording each acked (hash, money) state.
SweepRun ForwardRun(recovery::Scheme scheme, uint32_t shards) {
  SweepRun run;
  auto journal = std::make_shared<OpJournal>();
  DatabaseOptions opts = SweepOptions(scheme, shards);
  FaultSpec spec;
  spec.persist = true;  // Recovery treats the image as a real medium.
  opts.device_factory =
      [journal, spec](uint32_t i) -> std::unique_ptr<device::StorageDevice> {
    return std::make_unique<FaultInjectingDevice>(Ssd(), spec, i, journal);
  };
  Database db(opts);
  workload::Bank bank = SweepBank();
  bank.Install(&db);
  db.FinalizeSchema();
  EXPECT_TRUE(db.TryTakeCheckpoint().ok());
  run.checkpoint_done = journal->size();
  run.legal.push_back({db.ContentHash(), MoneyTotal(&db)});

  Rng rng(11);
  std::vector<Value> params;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 8; ++i) {
      const ProcId proc = bank.NextTransaction(&rng, &params);
      PACMAN_CHECK(db.ExecuteProcedure(proc, params).ok());
    }
    PACMAN_CHECK(db.AdvanceEpoch().status.ok());
    run.legal.push_back({db.ContentHash(), MoneyTotal(&db)});
  }
  // A deliberately tiny final epoch keeps the last batch file small, so
  // the per-byte torn-write sweep below stays cheap.
  PACMAN_CHECK(
      db.ExecuteProcedure(bank.deposit_id(),
                          {Value(int64_t{0}), Value(5.0), Value(int64_t{0})})
          .ok());
  PACMAN_CHECK(db.AdvanceEpoch().status.ok());
  run.legal.push_back({db.ContentHash(), MoneyTotal(&db)});

  run.entries = journal->Snapshot();
  return run;
}

// An extra raw write or append applied after the journal prefix — the
// torn image of the final batch file.
struct ExtraWrite {
  uint32_t device = 0;
  std::string name;
  std::vector<uint8_t> bytes;
  bool append = false;
};

// Rebuilds the device state of a crash at `upto` (plus the optional torn
// image), recovers a fresh database from it, and returns its state.
LegalState RecoverAtBoundary(recovery::Scheme scheme, uint32_t shards,
                             const std::vector<OpJournalEntry>& entries,
                             size_t upto, const ExtraWrite* extra) {
  DatabaseOptions opts = SweepOptions(scheme, shards);
  FaultSpec spec;
  spec.persist = true;
  opts.device_factory =
      [&entries, upto, extra,
       spec](uint32_t i) -> std::unique_ptr<device::StorageDevice> {
    auto dev = std::make_unique<FaultInjectingDevice>(Ssd(), spec, i);
    for (size_t k = 0; k < upto && k < entries.size(); ++k) {
      const OpJournalEntry& e = entries[k];
      if (e.device != i) continue;
      switch (e.kind) {
        case OpJournalEntry::Kind::kWrite:
          PACMAN_CHECK(dev->WriteFile(e.name, e.bytes).ok());
          break;
        case OpJournalEntry::Kind::kAppend:
          PACMAN_CHECK(dev->AppendFile(e.name, e.bytes).ok());
          break;
        case OpJournalEntry::Kind::kRemove:
          PACMAN_CHECK(dev->RemoveFile(e.name).ok());
          break;
      }
    }
    if (extra != nullptr && extra->device == i) {
      PACMAN_CHECK((extra->append ? dev->AppendFile(extra->name, extra->bytes)
                                  : dev->WriteFile(extra->name, extra->bytes))
                       .ok());
    }
    return dev;
  };
  Database db(opts);
  EXPECT_TRUE(db.opened_existing_state());
  workload::Bank bank = SweepBank();
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  db.FinalizeSchema();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  db.Recover(scheme, ropts);
  EXPECT_FALSE(db.crashed());
  EXPECT_FALSE(db.read_only());
  return {db.ContentHash(), MoneyTotal(&db)};
}

// Index of `state` in `legal`, or -1: a recovered state that matches no
// acked boundary is corruption (lost acked work or resurrected zombies).
int LegalIndex(const std::vector<LegalState>& legal, const LegalState& state) {
  for (size_t i = 0; i < legal.size(); ++i) {
    if (legal[i].hash == state.hash) {
      EXPECT_NEAR(legal[i].money, state.money, 1e-6);
      return static_cast<int>(i);
    }
  }
  return -1;
}

class AliceSweepTest
    : public ::testing::TestWithParam<std::tuple<recovery::Scheme, uint32_t>> {
};

TEST_P(AliceSweepTest, RecoversALegalStateAtEveryDurableOpBoundary) {
  const recovery::Scheme scheme = std::get<0>(GetParam());
  const uint32_t shards = std::get<1>(GetParam());
  const SweepRun run = ForwardRun(scheme, shards);
  ASSERT_GT(run.entries.size(), run.checkpoint_done);

  // Crash at every durable-op boundary from "setup checkpoint durable"
  // through the full journal. The recovered state must be one of the
  // acked boundary states, and must never move backwards as more of the
  // journal survives.
  int last_index = 0;
  for (size_t upto = run.checkpoint_done; upto <= run.entries.size(); ++upto) {
    const LegalState got =
        RecoverAtBoundary(scheme, shards, run.entries, upto, nullptr);
    const int idx = LegalIndex(run.legal, got);
    ASSERT_GE(idx, 0) << "crash at op boundary " << upto
                      << " recovered an unacked state";
    EXPECT_GE(idx, last_index) << "durable state moved backwards at " << upto;
    last_index = idx;
  }
  // The full journal recovers the final acked state exactly.
  EXPECT_EQ(last_index, static_cast<int>(run.legal.size()) - 1);
}

TEST_P(AliceSweepTest, ToleratesTornFinalBatchAtEveryByteOffset) {
  const recovery::Scheme scheme = std::get<0>(GetParam());
  const uint32_t shards = std::get<1>(GetParam());
  const SweepRun run = ForwardRun(scheme, shards);

  // The last batch-file op of the run — an append of one block, or a
  // whole-image write: tear it at byte k for every k. A torn append leaves
  // the file's earlier blocks plus a prefix of the new one.
  size_t idx = run.entries.size();
  while (idx > 0) {
    --idx;
    if (run.entries[idx].kind != OpJournalEntry::Kind::kRemove &&
        run.entries[idx].name.rfind("log_", 0) == 0) {
      break;
    }
  }
  const OpJournalEntry& last_batch = run.entries[idx];
  ASSERT_EQ(last_batch.name.rfind("log_", 0), 0u);
  // Several epochs per batch: the final op appends to an existing file.
  ASSERT_EQ(last_batch.kind, OpJournalEntry::Kind::kAppend);
  const size_t len = last_batch.bytes.size();
  ASSERT_GT(len, 0u);

  // The block's records postdate the pepoch watermark (its pepoch write
  // follows it in the flush order), so every tear — including nothing and
  // the complete block — must recover the state of the crash just before
  // the op.
  const LegalState want =
      RecoverAtBoundary(scheme, shards, run.entries, idx, nullptr);
  ASSERT_GE(LegalIndex(run.legal, want), 0);

  // Full per-byte sweep unsharded; strided spot-checks sharded (the parse
  // path is byte-position dependent, not shard dependent).
  const size_t stride = shards == 1 ? 1 : len / 16 + 1;
  for (size_t k = 0; k <= len; k += stride) {
    ExtraWrite torn;
    torn.device = last_batch.device;
    torn.name = last_batch.name;
    torn.append = last_batch.kind == OpJournalEntry::Kind::kAppend;
    torn.bytes.assign(last_batch.bytes.begin(),
                      last_batch.bytes.begin() + static_cast<ptrdiff_t>(k));
    const LegalState got =
        RecoverAtBoundary(scheme, shards, run.entries, idx, &torn);
    EXPECT_EQ(got.hash, want.hash) << "torn at byte " << k << " of " << len;
    EXPECT_NEAR(got.money, want.money, 1e-6) << "torn at byte " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AliceSweepTest,
    ::testing::Combine(::testing::Values(recovery::Scheme::kPlr,
                                         recovery::Scheme::kLlr,
                                         recovery::Scheme::kLlrP,
                                         recovery::Scheme::kClr,
                                         recovery::Scheme::kClrP),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace pacman
