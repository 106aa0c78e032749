// Process-restart durability over the pluggable device API: transactions
// run against a FileDevice-backed database, the Database object is
// destroyed *without* any shutdown handshake (the moral equivalent of
// kill -9 after a group-commit flush), and a fresh Database constructed
// over the same directory recovers to identical table contents. Plus unit
// coverage for the FileDevice object store, batch-file naming and config
// validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "device/file_device.h"
#include "device/simulated_ssd.h"
#include "logging/log_manager.h"
#include "logging/log_store.h"
#include "pacman/database.h"
#include "test_util.h"
#include "workload/bank.h"

namespace pacman {
namespace {

namespace fs = std::filesystem;

class DeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "pacman_device_XXXXXX").string();
    char* created = ::mkdtemp(tmpl.data());
    ASSERT_NE(created, nullptr);
    dir_ = created;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  DatabaseOptions FileDbOptions(logging::LogScheme scheme) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.device = device::DeviceKind::kFile;
    opts.log_dir = dir_;
    opts.commits_per_epoch = 10;
    opts.epochs_per_batch = 2;
    return opts;
  }

  // Runs `n` bank transactions (every 5th tagged ad-hoc, exercising the
  // mixed log of §4.5) and flushes the final epoch so everything
  // committed is durable before the "kill".
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

  // Schema + procedures only: a restarted process reinstalls the
  // compile-time artifacts; the data comes back from checkpoint + log.
  void InstallSchemaOnly(Database* db) {
    bank_.CreateTables(db->catalog());
    bank_.RegisterProcedures(db->registry());
    db->FinalizeSchema();
  }

  double BalanceSum(Database* db) {
    const Timestamp ts = db->txn_manager()->LastCommitted();
    return testutil::VisibleSum(
               db->catalog()->GetTable(db->catalog()->GetTableId("Current")),
               ts) +
           testutil::VisibleSum(
               db->catalog()->GetTable(db->catalog()->GetTableId("Saving")),
               ts);
  }

  std::string dir_;
  // single_fraction = 0 so every Transfer writes (exact replay counts).
  workload::Bank bank_{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
};

// --- FileDevice object store -------------------------------------------

TEST_F(DeviceTest, FileDeviceObjectStoreRoundTrip) {
  device::FileDevice dev({.dir = dir_ + "/dev"});
  EXPECT_FALSE(dev.Exists("a"));
  ASSERT_TRUE(dev.WriteFile("a", {1, 2, 3}).ok());
  EXPECT_TRUE(dev.Exists("a"));
  EXPECT_EQ(dev.FileSize("a"), 3u);
  ASSERT_TRUE(dev.AppendFile("a", {4, 5}).ok());
  ASSERT_TRUE(dev.SyncBarrier().ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.ReadFile("a", &bytes).ok());
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  // Overwrite is a full replace (atomic tmp+rename underneath).
  ASSERT_TRUE(dev.WriteFile("a", {9}).ok());
  ASSERT_TRUE(dev.ReadFile("a", &bytes).ok());
  EXPECT_EQ(bytes, std::vector<uint8_t>{9});
  EXPECT_EQ(dev.ReadFile("missing", &bytes).code(), StatusCode::kNotFound);
  EXPECT_EQ(dev.FileSize("missing"), 0u);

  ASSERT_TRUE(dev.WriteFile("log_b", {0}).ok());
  ASSERT_TRUE(dev.WriteFile("log_a", {0}).ok());
  EXPECT_EQ(dev.ListFiles("log_"),
            (std::vector<std::string>{"log_a", "log_b"}));
  EXPECT_GT(dev.total_bytes_written(), 0u);
  EXPECT_GT(dev.total_fsyncs(), 0u);
  dev.RemoveAll();
  EXPECT_TRUE(dev.ListFiles("").empty());
}

// ReadFile sizes its buffer from fstat and reads into it in place: every
// size around its former 64 KB read chunk reads back byte for byte, into a
// buffer that held something else before.
TEST_F(DeviceTest, FileDeviceReadsBackEverySizeByteForByte) {
  device::FileDevice dev({.dir = dir_ + "/dev"});
  for (const size_t size : {size_t{0}, size_t{1}, size_t{65535},
                            size_t{65536}, size_t{65537}, size_t{3} << 20}) {
    SCOPED_TRACE("size " + std::to_string(size));
    std::vector<uint8_t> bytes(size);
    for (size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 9));
    }
    const std::string name = "f" + std::to_string(size);
    ASSERT_TRUE(dev.WriteFile(name, bytes).ok());
    std::vector<uint8_t> got(7, 0xee);
    ASSERT_TRUE(dev.ReadFile(name, &got).ok());
    EXPECT_TRUE(got == bytes);
    // An appended file reads back whole too.
    ASSERT_TRUE(dev.AppendFile(name, {1, 2, 3}).ok());
    ASSERT_TRUE(dev.ReadFile(name, &got).ok());
    bytes.insert(bytes.end(), {1, 2, 3});
    EXPECT_TRUE(got == bytes);
  }
}

TEST_F(DeviceTest, FileDeviceStateSurvivesReopen) {
  {
    device::FileDevice dev({.dir = dir_ + "/dev"});
    ASSERT_TRUE(dev.WriteFile("pepoch.log", {7, 7}).ok());
  }
  device::FileDevice reopened({.dir = dir_ + "/dev"});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(reopened.ReadFile("pepoch.log", &bytes).ok());
  EXPECT_EQ(bytes, (std::vector<uint8_t>{7, 7}));
}

TEST_F(DeviceTest, FileDeviceCostSurfaceReportsMeasuredWallClock) {
  device::FileDevice dev({.dir = dir_ + "/dev"});
  // Before any samples: the nominal priors answer, and they are finite
  // and positive.
  EXPECT_GT(dev.WriteSeconds(1 << 20), 0.0);
  EXPECT_GT(dev.ReadSeconds(1 << 20), 0.0);
  EXPECT_GE(dev.FsyncSeconds(), 0.0);
  std::vector<uint8_t> payload(1 << 16, 0xab);
  const device::IoResult w = dev.WriteFile("f", payload);
  ASSERT_TRUE(w.ok());
  EXPECT_GE(w.seconds, 0.0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.ReadFile("f", &bytes).ok());
  // After samples the estimates scale linearly in the byte count.
  EXPECT_GT(dev.WriteSeconds(1 << 20), 0.0);
  EXPECT_NEAR(dev.ReadSeconds(2 << 20) / dev.ReadSeconds(1 << 20), 2.0, 1e-9);
}

TEST_F(DeviceTest, FileDeviceBarrierWaitsForAConcurrentBarriersFsync) {
  // A checkpoint's barrier and a logger's barrier on one device. The
  // append lands before the first barrier takes it off the owed list, so
  // the second barrier has nothing of its own to fsync; it still must not
  // return OK before the first one's fsync of that append has finished.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::atomic<bool> fsynced{false};
  device::FileDeviceConfig config{.dir = dir_ + "/dev"};
  config.fsync_file = [&](int fd) {
    std::unique_lock<std::mutex> l(mu);
    entered = true;
    cv.notify_all();
    cv.wait(l, [&] { return release; });
    const int rc = ::fsync(fd);
    fsynced.store(true);
    return rc;
  };
  device::FileDevice dev(config);
  ASSERT_TRUE(dev.AppendFile("log", {1, 2, 3}).ok());

  std::thread first([&] { EXPECT_TRUE(dev.SyncBarrier().ok()); });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return entered; });
  }
  bool second_after_fsync = false;
  std::thread second([&] {
    EXPECT_TRUE(dev.SyncBarrier().ok());
    second_after_fsync = fsynced.load();
  });
  // Give the second barrier time to reach the device before the first
  // one's fsync is let go.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> l(mu);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  EXPECT_TRUE(second_after_fsync);
}

TEST_F(DeviceTest, FileDeviceBarrierFailsAfterAFailedFsyncUntilRewrite) {
  // After a failed fsync the kernel may have dropped the appended bytes,
  // and a second fsync would succeed: every later barrier must fail until
  // the file is replaced. Other owed files stay owed.
  int calls = 0;
  device::FileDeviceConfig config{.dir = dir_ + "/dev"};
  config.fsync_file = [&](int fd) {
    if (++calls == 1) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  device::FileDevice dev(config);
  ASSERT_TRUE(dev.AppendFile("log", {1, 2, 3}).ok());
  ASSERT_TRUE(dev.AppendFile("other", {4}).ok());
  EXPECT_FALSE(dev.SyncBarrier().ok());
  EXPECT_FALSE(dev.SyncBarrier().ok());
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(dev.WriteFile("log", {1, 2, 3}).ok());
  EXPECT_TRUE(dev.SyncBarrier().ok());
  EXPECT_EQ(calls, 2);  // "other" was fsynced by the barrier that passed.
  ASSERT_TRUE(dev.AppendFile("log", {4}).ok());
  EXPECT_TRUE(dev.SyncBarrier().ok());
  EXPECT_EQ(calls, 3);
}

TEST_F(DeviceTest, LoggerRewritesTheBatchAfterAFailedFsync) {
  // The logger retries a failed barrier by rewriting the whole batch
  // image, which is what clears the device's failed-fsync state: the
  // flush succeeds and each record is in the file once.
  int calls = 0;
  device::FileDeviceConfig config{.dir = dir_ + "/dev"};
  config.fsync_file = [&](int fd) {
    if (++calls == 2) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  device::FileDevice dev(config);
  logging::Logger logger(0, logging::LogScheme::kCommand, &dev,
                         /*epochs_per_batch=*/10);
  Timestamp cts = 100;
  for (Epoch epoch = 1; epoch <= 3; ++epoch) {
    for (int i = 0; i < 3; ++i) {
      logging::LogRecord r;
      r.commit_ts = cts++;
      r.proc = 1;
      r.params = {Value(static_cast<int64_t>(r.commit_ts))};
      logger.Append(std::move(r));
    }
    const logging::FlushCost c = logger.FlushEpoch(epoch);
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  }
  EXPECT_EQ(calls, 3);  // Flush 2's retry rewrote instead of appending.

  const std::string name = logging::LogStore::BatchFileName(0, 0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.ReadFile(name, &bytes).ok());
  logging::LogBatch batch;
  logging::BatchParseOptions strict;
  strict.file_name = name;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                  logging::LogScheme::kCommand, std::move(bytes), strict,
                  &batch)
                  .ok());
  ASSERT_EQ(batch.records.size(), 9u);
  for (size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_EQ(batch.records[i].commit_ts, 100 + i);
  }
}

// --- Config validation (satellite: named constructor-time errors) -------

using DeviceValidationDeathTest = DeviceTest;

TEST_F(DeviceValidationDeathTest, FileDeviceRejectsBadConfig) {
  EXPECT_DEATH(device::FileDevice{device::FileDeviceConfig{}},
               "dir must name a directory");
  device::FileDeviceConfig bad;
  bad.dir = dir_ + "/dev";
  bad.nominal_write_mbps = 0.0;
  EXPECT_DEATH(device::FileDevice{bad}, "nominal_write_mbps must be positive");
}

TEST_F(DeviceValidationDeathTest, DatabaseRequiresLogDirForFileDevice) {
  DatabaseOptions opts;
  opts.device = device::DeviceKind::kFile;
  EXPECT_DEATH(Database{opts}, "log_dir is required");
}

// --- Batch file naming (satellite: robust on-device naming) -------------

TEST(BatchFileNameTest, PaddedNamesKeepLexicographicEqualNumericOrder) {
  EXPECT_EQ(logging::LogStore::BatchFileName(3, 42),
            "log_03_000000000042.batch");
  // Beyond the historical 8-digit padding, names still sort correctly.
  EXPECT_LT(logging::LogStore::BatchFileName(0, 99999999),
            logging::LogStore::BatchFileName(0, 100000000));
}

TEST(BatchFileNameTest, ParseAcceptsBothPaddingForms) {
  uint32_t logger = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(logging::LogStore::ParseBatchFileName("log_03_000000000042.batch",
                                                    &logger, &seq));
  EXPECT_EQ(logger, 3u);
  EXPECT_EQ(seq, 42u);
  // The 8-digit form written by earlier repo versions parses unchanged.
  ASSERT_TRUE(logging::LogStore::ParseBatchFileName("log_01_00000007.batch",
                                                    &logger, &seq));
  EXPECT_EQ(logger, 1u);
  EXPECT_EQ(seq, 7u);
  EXPECT_FALSE(
      logging::LogStore::ParseBatchFileName("pepoch.log", &logger, &seq));
  EXPECT_FALSE(
      logging::LogStore::ParseBatchFileName("log_xx_1.batch", &logger, &seq));
  EXPECT_FALSE(
      logging::LogStore::ParseBatchFileName("log_1_2.ckpt", &logger, &seq));
}

// --- Process-restart durability (the capstone) ---------------------------

using testutil::SchemeCase;

class RestartRecoveryTest
    : public DeviceTest,
      public ::testing::WithParamInterface<SchemeCase> {};

TEST_P(RestartRecoveryTest, SurvivesProcessRestart) {
  const SchemeCase param = GetParam();
  uint64_t hash_before = 0;
  double sum_before = 0.0;
  {
    auto db = std::make_unique<Database>(FileDbOptions(param.log));
    ASSERT_FALSE(db->opened_existing_state());
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 80);
    hash_before = db->ContentHash();
    sum_before = BalanceSum(db.get());
    // Destroy with no Crash()/Finalize handshake: everything up to the
    // last group-commit flush must already be durable on disk.
  }

  auto db = std::make_unique<Database>(FileDbOptions(param.log));
  EXPECT_TRUE(db->opened_existing_state());
  EXPECT_TRUE(db->crashed());
  InstallSchemaOnly(db.get());
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult r =
      db->Recover(param.rec, ropts, ExecutionBackend::kThreads);
  EXPECT_FALSE(db->crashed());
  EXPECT_GT(r.log.records_replayed, 0u);
  EXPECT_EQ(db->ContentHash(), hash_before);
  EXPECT_DOUBLE_EQ(BalanceSum(db.get()), sum_before);

  // The recovered database accepts new work.
  RunTxns(db.get(), 10, /*seed=*/9);
  EXPECT_NE(db->ContentHash(), hash_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RestartRecoveryTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kPhysical, recovery::Scheme::kPlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP}));

TEST_F(DeviceTest, RestartRecoverContinueAndRestartAgain) {
  // Two generations of restart: recover, commit more work, get killed
  // again, recover again. Exercises batch-sequence resumption (new
  // batches must not overwrite the previous process's) and epoch
  // continuity (the pepoch watermark must not regress below records the
  // first process persisted).
  uint64_t h1 = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 60);
    h1 = db->ContentHash();
  }

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  uint64_t h2 = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    InstallSchemaOnly(db.get());
    db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db->ContentHash(), h1);
    RunTxns(db.get(), 30, /*seed=*/5);
    h2 = db->ContentHash();
    EXPECT_NE(h2, h1);
  }
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    InstallSchemaOnly(db.get());
    FullRecoveryResult r =
        db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    EXPECT_EQ(db->ContentHash(), h2);
    EXPECT_GT(r.log.records_replayed, 0u);
  }
}

TEST_F(DeviceTest, GroupCommitWritesEachLoggedByteOnce) {
  // 12 group commits into batches of 5 epochs. Every flush appends one
  // block to its batch file, so the device writes the logged record bytes
  // plus v4 framing — write amplification ~1.0 instead of re-writing the
  // growing batch image at every flush.
  DatabaseOptions opts = FileDbOptions(logging::LogScheme::kLogical);
  opts.commits_per_epoch = 0;
  opts.epochs_per_batch = 5;
  Database db(opts);
  bank_.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  auto device_bytes = [&db] {
    uint64_t n = 0;
    for (device::StorageDevice* d : db.device_ptrs()) {
      n += d->total_bytes_written();
    }
    return n;
  };
  const uint64_t bytes_before = device_bytes();
  const uint64_t logged_before = db.log_bytes();
  constexpr uint64_t kEpochs = 12;
  Rng rng(3);
  std::vector<Value> params;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (int i = 0; i < 40; ++i) {
      const ProcId proc = bank_.NextTransaction(&rng, &params);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
    ASSERT_TRUE(db.AdvanceEpoch().status.ok());
  }
  const uint64_t logged = db.log_bytes() - logged_before;
  // Everything the devices took, minus the 8-byte pepoch watermark each
  // flush rewrites.
  const uint64_t log_writes = device_bytes() - bytes_before - kEpochs * 8;
  uint64_t files = 0;
  uint64_t on_disk = 0;
  for (device::StorageDevice* d : db.device_ptrs()) {
    for (const std::string& name : d->ListFiles("log_")) {
      files++;
      on_disk += d->FileSize(name);
    }
  }
  EXPECT_EQ(files, 3u * db.log_manager()->num_loggers());
  EXPECT_EQ(log_writes, on_disk) << "a batch file was rewritten";
  const uint64_t framing =
      files * logging::LogStore::kFileHeaderBytes +
      kEpochs * db.log_manager()->num_loggers() *
          logging::LogStore::kMaxBlockHeaderBytes;
  EXPECT_GE(log_writes, logged);
  EXPECT_LE(log_writes, logged + framing);
  EXPECT_LT(static_cast<double>(log_writes) / static_cast<double>(logged),
            1.05);
}

TEST_F(DeviceTest, TruncateBeyondWatermarkErasesZombieRecords) {
  device::FileDevice dev({.dir = dir_ + "/dev"});
  logging::LogBatch batch;
  batch.logger_id = 0;
  batch.seq = 4;
  for (Epoch e : {Epoch{1}, Epoch{2}, Epoch{7}}) {
    logging::LogRecord rec;
    rec.commit_ts = 10 + e;
    rec.epoch = e;
    rec.proc = kAdhocProcId;
    rec.AddImage(0, e, {Value(1.0)}, false);
    batch.records.push_back(std::move(rec));
  }
  const std::string name = logging::LogStore::BatchFileName(0, batch.seq);
  ASSERT_TRUE(dev.WriteFile(name, logging::LogStore::SerializeBatch(
                                      logging::LogScheme::kCommand, batch))
                  .ok());

  ASSERT_TRUE(logging::LogStore::TruncateBeyondWatermark(
                  logging::LogScheme::kCommand, {&dev}, /*pepoch=*/2)
                  .ok());
  // The epoch-7 zombie is gone; the file (and its sequence slot) remain.
  EXPECT_TRUE(dev.Exists(name));
  auto reloaded = testutil::LoadLog(logging::LogScheme::kCommand, {&dev});
  ASSERT_TRUE(reloaded->status.ok());
  ASSERT_EQ(reloaded->batches().size(), 1u);
  ASSERT_EQ(reloaded->batches()[0].records.size(), 2u);
  for (const auto* r : reloaded->batches()[0].records) EXPECT_LE(r->epoch, 2u);
}

TEST_F(DeviceTest, RestartRecoveryErasesZombiesFromPartialFlush) {
  // Models a kill mid-FlushAll: one logger's batch image reached the disk
  // with records beyond the durable pepoch watermark. The first restart
  // recovery must both exclude them from replay and erase them, so they
  // cannot resurface once the new process's epoch counter (and pepoch)
  // catches up with their stamps.
  uint64_t h1 = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 40);
    h1 = db->ContentHash();
    // Plant the zombie: a batch whose record postdates the watermark and
    // would visibly corrupt the Current table if ever replayed.
    logging::LogBatch zombie;
    zombie.logger_id = 0;
    zombie.seq = 9999;
    logging::LogRecord rec;
    rec.commit_ts = 1u << 30;
    rec.epoch = db->epoch_manager()->PersistentEpoch() + 1;
    rec.proc = kAdhocProcId;
    rec.AddImage(db->catalog()->GetTableId("Current"), 0, {Value(-1e9)},
                 false);
    zombie.records.push_back(rec);
    ASSERT_TRUE(db->device(0)
                    ->WriteFile(logging::LogStore::BatchFileName(0, zombie.seq),
                                logging::LogStore::SerializeBatch(
                                    logging::LogScheme::kCommand, zombie))
                    .ok());
  }

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    InstallSchemaOnly(db.get());
    db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db->ContentHash(), h1) << "zombie record replayed";
    // Advance far enough that pepoch passes the zombie's stamp, then die.
    RunTxns(db.get(), 30, /*seed=*/5);
    h1 = db->ContentHash();
  }
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    InstallSchemaOnly(db.get());
    db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    EXPECT_EQ(db->ContentHash(), h1) << "zombie resurfaced after restart";
  }
}

TEST_F(DeviceTest, RecoveryRepairsATornTailBeforeItBecomesInterior) {
  // A kill mid-append leaves the newest batch file ending in a short
  // block. Recovery tolerates that there, and must also rewrite the file
  // clean: once the restarted process opens later batches it is interior,
  // where a short block is loud corruption.
  uint64_t h1 = 0;
  std::string torn_name;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 40);
    h1 = db->ContentHash();
    torn_name = db->device(0)->ListFiles("log_00_").back();
    // A block header cut after its record count and the first byte of
    // its payload length.
    ASSERT_TRUE(db->device(0)->AppendFile(torn_name, {0x01, 0xc0}).ok());
    ASSERT_TRUE(db->device(0)->SyncBarrier().ok());
  }
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  uint64_t h2 = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    InstallSchemaOnly(db.get());
    db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db->ContentHash(), h1);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(db->device(0)->ReadFile(torn_name, &bytes).ok());
    logging::LogBatch batch;
    EXPECT_TRUE(logging::LogStore::DeserializeBatch(
                    logging::LogScheme::kCommand, bytes, &batch)
                    .ok())
        << "torn file left unrepaired";
    RunTxns(db.get(), 30, /*seed=*/5);
    h2 = db->ContentHash();
    ASSERT_NE(db->device(0)->ListFiles("log_00_").back(), torn_name);
  }
  auto db = std::make_unique<Database>(
      FileDbOptions(logging::LogScheme::kCommand));
  InstallSchemaOnly(db.get());
  db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db->ContentHash(), h2);
}

TEST_F(DeviceTest, ColdStartRefusesForwardWorkBeforeRecovery) {
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 20);
  }
  auto db = std::make_unique<Database>(
      FileDbOptions(logging::LogScheme::kCommand));
  InstallSchemaOnly(db.get());
  // The durable image is authoritative; executing before Recover() would
  // fork history, so the crashed-state check rejects it.
  EXPECT_DEATH(db->ExecuteProcedure(bank_.transfer_id(),
                                    {Value(int64_t{0}), Value(1.0)}),
               "");
}

// The simulated SSD prices every operation from the paper's device rates
// (550 MB/s read, 520 MB/s write, 5 ms per fsync), and each mutating call
// reports exactly what the cost surface charges for it.
TEST_F(DeviceTest, SimulatedSsdChargesThePaperDeviceRates) {
  device::SimulatedSsd ssd;
  EXPECT_DOUBLE_EQ(ssd.WriteSeconds(520'000'000), 1.0);
  EXPECT_DOUBLE_EQ(ssd.ReadSeconds(550'000'000), 1.0);
  EXPECT_DOUBLE_EQ(ssd.FsyncSeconds(), 5e-3);
  EXPECT_EQ(ssd.WriteSeconds(0), 0.0);

  const std::vector<uint8_t> bytes(4096, 0x5a);
  const device::IoResult write = ssd.WriteFile("a", bytes);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write.seconds, ssd.WriteSeconds(bytes.size()));
  const device::IoResult append = ssd.AppendFile("a", bytes);
  ASSERT_TRUE(append.ok());
  EXPECT_EQ(append.seconds, ssd.WriteSeconds(bytes.size()));
  EXPECT_EQ(ssd.FileSize("a"), 2 * bytes.size());
  EXPECT_EQ(ssd.total_bytes_written(), 2 * bytes.size());

  const device::IoResult sync = ssd.SyncBarrier();
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync.seconds, ssd.FsyncSeconds());
  EXPECT_EQ(ssd.total_fsyncs(), 1u);
  const device::IoResult remove = ssd.RemoveFile("a");
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove.seconds, ssd.FsyncSeconds());
  EXPECT_FALSE(ssd.Exists("a"));
}

TEST_F(DeviceTest, SimulatedDeviceReportsNoExistingState) {
  // The sim backend never persists across construction, so a fresh
  // database over it must not start in the crashed state.
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  EXPECT_FALSE(db.opened_existing_state());
  EXPECT_FALSE(db.crashed());
}

TEST_F(DeviceTest, CustomDeviceFactoryIsHonored) {
  // The factory hook lets embedders plug any backend; here it routes both
  // "ssds" into FileDevices in one shared parent directory.
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  opts.commits_per_epoch = 10;
  std::string dir = dir_;
  opts.device_factory = [dir](uint32_t index) {
    return std::make_unique<device::FileDevice>(device::FileDeviceConfig{
        .dir = dir + "/custom" + std::to_string(index)});
  };
  Database db(opts);
  bank_.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  RunTxns(&db, 20);
  EXPECT_TRUE(fs::exists(dir_ + "/custom0"));
  EXPECT_TRUE(fs::exists(dir_ + "/custom1"));
  EXPECT_GT(db.device(0)->total_bytes_written() +
                db.device(1)->total_bytes_written(),
            0u);
}

}  // namespace
}  // namespace pacman
