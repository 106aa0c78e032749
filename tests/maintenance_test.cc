// Continuous background checkpointing + log truncation
// (maintenance/checkpoint_service.h): covered batch files are deleted and
// superseded checkpoints retired while the database keeps committing, the
// retained log stays bounded as total logged bytes grows, and recovery
// from the truncated state is bit-identical to a run with GC disabled —
// including across process kills landing between a truncation and the
// next checkpoint, and with a torn (killed mid-write) checkpoint meta on
// disk.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/file_device.h"
#include "device/simulated_ssd.h"
#include "logging/log_store.h"
#include "maintenance/checkpoint_service.h"
#include "pacman/database.h"
#include "test_util.h"
#include "workload/bank.h"

namespace pacman {
namespace {

namespace fs = std::filesystem;

uint64_t CountFiles(Database* db, const std::string& prefix) {
  uint64_t n = 0;
  for (device::StorageDevice* dev : db->device_ptrs()) {
    n += dev->ListFiles(prefix).size();
  }
  return n;
}

// The checkpoint id of every stripe file on the checkpointer's devices.
std::vector<uint64_t> StripeIds(logging::Checkpointer* cp) {
  std::vector<uint64_t> ids;
  for (device::StorageDevice* dev : cp->devices()) {
    for (const std::string& name : dev->ListFiles("ckpt_")) {
      uint64_t id = 0;
      uint32_t ssd = 0, file = 0;
      if (logging::Checkpointer::ParseStripeFileName(name, &id, &ssd, &file)) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "pacman_maint_XXXXXX").string();
    char* created = ::mkdtemp(tmpl.data());
    ASSERT_NE(created, nullptr);
    dir_ = created;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  DatabaseOptions SimDbOptions(logging::LogScheme scheme) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.commits_per_epoch = 10;
    opts.epochs_per_batch = 2;
    return opts;
  }

  DatabaseOptions FileDbOptions(logging::LogScheme scheme,
                                const std::string& sub) {
    DatabaseOptions opts = SimDbOptions(scheme);
    opts.device = device::DeviceKind::kFile;
    opts.log_dir = dir_ + "/" + sub;
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

  void InstallSchemaOnly(Database* db) {
    bank_.CreateTables(db->catalog());
    bank_.RegisterProcedures(db->registry());
    db->FinalizeSchema();
  }

  // A service driven synchronously (RunOnce) — no background thread, so
  // every cycle is deterministic.
  std::unique_ptr<maintenance::CheckpointService> MakeService(Database* db) {
    maintenance::CheckpointPolicy policy;
    policy.interval_s = 3600;  // Triggers irrelevant: tests call RunOnce.
    return std::make_unique<maintenance::CheckpointService>(db, policy,
                                                            nullptr);
  }

  std::string dir_;
  workload::Bank bank_{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
};

// --- Device RemoveFile contract ------------------------------------------

TEST_F(MaintenanceTest, FileDeviceRemoveFileIsDurableAndIdempotent) {
  device::FileDevice dev({.dir = dir_ + "/dev"});
  ASSERT_TRUE(dev.WriteFile("log_00_000000000001.batch", {1, 2, 3}).ok());
  ASSERT_TRUE(dev.Exists("log_00_000000000001.batch"));
  ASSERT_TRUE(dev.RemoveFile("log_00_000000000001.batch").ok());
  EXPECT_FALSE(dev.Exists("log_00_000000000001.batch"));
  // Idempotent: deleting an absent name is a no-op, not an abort.
  EXPECT_TRUE(dev.RemoveFile("log_00_000000000001.batch").ok());
  EXPECT_TRUE(dev.RemoveFile("never_existed").ok());
  // Durable: a reopened device (fresh directory scan) agrees.
  device::FileDevice reopened({.dir = dir_ + "/dev"});
  EXPECT_FALSE(reopened.Exists("log_00_000000000001.batch"));
}

TEST_F(MaintenanceTest, SimulatedSsdRemoveFileIsIdempotent) {
  device::SimulatedSsd dev;
  ASSERT_TRUE(dev.WriteFile("a", {1}).ok());
  ASSERT_TRUE(dev.RemoveFile("a").ok());
  EXPECT_FALSE(dev.Exists("a"));
  EXPECT_TRUE(dev.RemoveFile("a").ok());
  EXPECT_TRUE(dev.ListFiles("").empty());
}

// --- Batch coverage headers ----------------------------------------------

TEST_F(MaintenanceTest, ReadBatchCoverageAnswersFromHeader) {
  device::SimulatedSsd dev;
  logging::LogBatch batch;
  batch.logger_id = 1;
  batch.seq = 4;
  for (uint64_t cts : {70u, 30u, 50u}) {
    logging::LogRecord r;
    r.commit_ts = cts;
    r.epoch = 2;
    batch.records.push_back(r);
  }
  const std::string name = logging::LogStore::BatchFileName(1, 4);
  ASSERT_TRUE(dev.WriteFile(name, logging::LogStore::SerializeBatch(
                                      logging::LogScheme::kCommand, batch))
                  .ok());

  logging::LogBatch cov;
  ASSERT_TRUE(logging::LogStore::ReadBatchCoverage(&dev, name, &cov)
                  .ok());
  EXPECT_EQ(cov.logger_id, 1u);
  EXPECT_EQ(cov.seq, 4u);
  EXPECT_EQ(cov.min_cts, 30u);
  EXPECT_EQ(cov.max_cts, 70u);
  EXPECT_TRUE(cov.records.empty());  // Header-only: no record parse.

  // Full deserialization round-trips the same interval.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(dev.ReadFile(name, &bytes).ok());
  logging::LogBatch full;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                  logging::LogScheme::kCommand, bytes, &full)
                  .ok());
  EXPECT_EQ(full.min_cts, 30u);
  EXPECT_EQ(full.max_cts, 70u);
  EXPECT_EQ(full.records.size(), 3u);
}

// --- Torn-checkpoint fallback --------------------------------------------

TEST_F(MaintenanceTest, TornMetaFallsBackToPreviousDurableCheckpoint) {
  auto db = std::make_unique<Database>(
      SimDbOptions(logging::LogScheme::kCommand));
  bank_.Install(db.get());
  db->FinalizeSchema();
  logging::CheckpointMeta first;
  ASSERT_TRUE(db->TryTakeCheckpoint(&first).ok());
  RunTxns(db.get(), 30);
  logging::CheckpointMeta second;
  ASSERT_TRUE(db->TryTakeCheckpoint(&second).ok());
  logging::Checkpointer* cp = db->checkpointer();

  logging::CheckpointMeta latest;
  ASSERT_TRUE(cp->ReadLatestMeta(&latest).ok());
  EXPECT_EQ(latest.id, second.id);

  // A torn meta (kill mid-write: garbage bytes under a higher id) must
  // not mask the durable checkpoint below it.
  ASSERT_TRUE(db->device(0)
                  ->WriteFile(logging::Checkpointer::MetaFileName(9),
                              std::vector<uint8_t>(24, 0xab))
                  .ok());
  ASSERT_TRUE(cp->ReadLatestMeta(&latest).ok());
  EXPECT_EQ(latest.id, second.id);

  // A meta whose stripes are incomplete (kill between stripe writes and
  // meta of a *previous* generation, or stripe loss) is skipped too.
  ASSERT_TRUE(db->device(0)
                  ->RemoveFile(
                      logging::Checkpointer::StripeFileName(second.id, 0, 0))
                  .ok());
  ASSERT_TRUE(cp->ReadLatestMeta(&latest).ok());
  EXPECT_EQ(latest.id, first.id);
}

// --- Checkpoint failure surfaces as Status --------------------------------

// Forwards every operation to an in-memory SimulatedSsd: the base of the
// wrapper devices below, which each override the calls they observe.
class ForwardingDevice : public device::StorageDevice {
 public:
  device::IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) override {
    return inner_.WriteFile(name, std::move(bytes));
  }
  device::IoResult AppendFile(const std::string& name,
                              const std::vector<uint8_t>& bytes) override {
    return inner_.AppendFile(name, bytes);
  }
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override {
    return inner_.ReadFile(name, out);
  }
  bool Exists(const std::string& name) const override {
    return inner_.Exists(name);
  }
  std::vector<std::string> ListFiles(
      const std::string& prefix) const override {
    return inner_.ListFiles(prefix);
  }
  void RemoveAll() override { inner_.RemoveAll(); }
  device::IoResult RemoveFile(const std::string& name) override {
    return inner_.RemoveFile(name);
  }
  size_t FileSize(const std::string& name) const override {
    return inner_.FileSize(name);
  }
  device::IoResult SyncBarrier() override { return inner_.SyncBarrier(); }
  bool IsPersistent() const override { return inner_.IsPersistent(); }
  double WriteSeconds(size_t bytes) const override {
    return inner_.WriteSeconds(bytes);
  }
  double ReadSeconds(size_t bytes) const override {
    return inner_.ReadSeconds(bytes);
  }
  double FsyncSeconds() const override { return inner_.FsyncSeconds(); }

 private:
  device::SimulatedSsd inner_;
};

// Wrapper device that silently swallows checkpoint stripe writes — the
// "device acknowledged a write it did not keep" failure TakeCheckpoint
// must detect instead of letting truncation delete the only copy.
class StripeDroppingDevice : public ForwardingDevice {
 public:
  explicit StripeDroppingDevice(bool* drop) : drop_(drop) {}
  device::IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) override {
    if (*drop_ && name.rfind("ckpt_", 0) == 0 &&
        name.rfind("ckpt_meta_", 0) != 0) {
      return device::IoResult::Ok(0.0);  // Acknowledge and drop.
    }
    return ForwardingDevice::WriteFile(name, std::move(bytes));
  }

 private:
  bool* drop_;
};

TEST_F(MaintenanceTest, CheckpointFailsLoudlyWhenStripesDoNotLand) {
  bool drop = false;
  DatabaseOptions opts = SimDbOptions(logging::LogScheme::kCommand);
  opts.device_factory = [&drop](uint32_t) {
    return std::make_unique<StripeDroppingDevice>(&drop);
  };
  auto db = std::make_unique<Database>(opts);
  bank_.Install(db.get());
  db->FinalizeSchema();
  logging::CheckpointMeta good;
  ASSERT_TRUE(db->TryTakeCheckpoint(&good).ok());
  RunTxns(db.get(), 20);

  drop = true;
  logging::CheckpointMeta meta;
  Status s = db->TryTakeCheckpoint(&meta);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // The failed attempt committed nothing: the previous checkpoint is
  // still the latest durable one.
  logging::CheckpointMeta latest;
  ASSERT_TRUE(db->checkpointer()->ReadLatestMeta(&latest).ok());
  EXPECT_EQ(latest.id, good.id);

  // A service cycle over the failing device counts the failure and
  // deletes no log: nothing may be truncated against a failed checkpoint.
  const uint64_t log_files_before = CountFiles(db.get(), "log_");
  auto service = MakeService(db.get());
  EXPECT_FALSE(service->RunOnce(nullptr).ok());
  EXPECT_EQ(service->stats().checkpoint_failures, 1u);
  EXPECT_EQ(service->stats().batches_deleted, 0u);
  EXPECT_EQ(CountFiles(db.get(), "log_"), log_files_before);

  drop = false;
  ASSERT_TRUE(db->TryTakeCheckpoint(&meta).ok());
  EXPECT_GT(meta.id, good.id);
}

// --- Truncation + retention over live state -------------------------------

TEST_F(MaintenanceTest, ServiceTruncatesCoveredBatchesAndRetiresCheckpoints) {
  auto db = std::make_unique<Database>(
      SimDbOptions(logging::LogScheme::kCommand));
  bank_.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  RunTxns(db.get(), 120);
  const uint64_t log_files_before = CountFiles(db.get(), "log_");
  ASSERT_GT(log_files_before, 2u);  // Closed batches exist to truncate.

  auto service = MakeService(db.get());
  maintenance::CheckpointEvent ev;
  ASSERT_TRUE(service->RunOnce(&ev).ok());
  EXPECT_GT(ev.batches_deleted, 0u);
  EXPECT_GT(ev.batch_bytes_deleted, 0u);
  EXPECT_GT(ev.stripes_deleted, 0u);  // Checkpoint id 0 retired.
  EXPECT_LT(CountFiles(db.get(), "log_"), log_files_before);
  // Exactly one meta file survives, and it is the new one.
  std::vector<uint64_t> ids = db->checkpointer()->ListMetaIds();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], ev.id);

  // The truncated state recovers exactly.
  RunTxns(db.get(), 40, /*seed=*/3);
  const uint64_t hash_before = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash_before);

  // Idle skip: nothing committed since the last cycle — no new
  // checkpoint, no churn.
  auto idle = MakeService(db.get());
  ASSERT_TRUE(idle->RunOnce(&ev).ok());
  const uint64_t after_first = idle->stats().checkpoints;
  ASSERT_TRUE(idle->RunOnce(nullptr).ok());
  EXPECT_EQ(idle->stats().checkpoints, after_first);
}

TEST_F(MaintenanceTest, CycleRetiresEveryOlderCheckpoint) {
  auto db = std::make_unique<Database>(
      SimDbOptions(logging::LogScheme::kCommand));
  bank_.Install(db.get());
  db->FinalizeSchema();
  // Manual checkpoints pile up: nothing retires them until a cycle runs.
  for (int i = 0; i < 3; ++i) {
    RunTxns(db.get(), 30, /*seed=*/10 + i);
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  }
  logging::Checkpointer* cp = db->checkpointer();
  ASSERT_EQ(cp->ListMetaIds().size(), 3u);
  const uint64_t old_stripes = StripeIds(cp).size();
  ASSERT_GT(old_stripes, 0u);

  RunTxns(db.get(), 30, /*seed=*/20);
  auto service = MakeService(db.get());
  maintenance::CheckpointEvent ev;
  ASSERT_TRUE(service->RunOnce(&ev).ok());
  // Only the checkpoint this cycle verified survives: all three older
  // metas and every stripe they named are deleted.
  EXPECT_EQ(cp->ListMetaIds(), std::vector<uint64_t>{ev.id});
  EXPECT_EQ(ev.stripes_deleted, 3 + old_stripes);
  for (uint64_t id : StripeIds(cp)) EXPECT_EQ(id, ev.id);

  // The survivor alone recovers the database exactly.
  const uint64_t hash_before = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash_before);
}

TEST_F(MaintenanceTest, RetainedLogStaysBoundedAsLoggedBytesGrows) {
  auto db = std::make_unique<Database>(
      SimDbOptions(logging::LogScheme::kCommand));
  bank_.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  auto service = MakeService(db.get());

  uint64_t max_files = 0;
  const uint64_t bytes_start = db->log_bytes();
  for (int round = 0; round < 12; ++round) {
    RunTxns(db.get(), 60, /*seed=*/100 + round);
    ASSERT_TRUE(service->RunOnce(nullptr).ok());
    max_files = std::max(max_files, CountFiles(db.get(), "log_"));
  }
  // Total logged bytes grew with uptime; the retained file count did not:
  // it stays within a constant budget (open batches + at most one closed
  // batch per logger between cycles).
  EXPECT_GT(db->log_bytes() - bytes_start, 0u);
  const uint64_t num_loggers = db->log_manager()->num_loggers();
  EXPECT_LE(max_files, 4 * num_loggers + 2);
  EXPECT_GE(service->stats().truncations, 1u);
}

// What a BatchReadCountingDevice saw, shared by every device of one
// database. Touched only by the test thread: the service cycles run
// synchronously and nothing else reads batch files here.
struct BatchReadProbe {
  Database* db = nullptr;
  bool counting = true;
  // Runs just before a checkpoint meta is written, i.e. after the
  // checkpoint took its snapshot.
  std::function<void()> before_meta;
  std::map<std::string, int> reads;     // ReadFile calls per batch file.
  std::vector<std::string> open_reads;  // Reads of an in-progress batch.
};

class BatchReadCountingDevice : public ForwardingDevice {
 public:
  explicit BatchReadCountingDevice(BatchReadProbe* probe) : probe_(probe) {}
  device::IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) override {
    if (probe_->before_meta && name.rfind("ckpt_meta_", 0) == 0) {
      probe_->before_meta();
    }
    return ForwardingDevice::WriteFile(name, std::move(bytes));
  }
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override {
    uint32_t logger = 0;
    uint64_t seq = 0;
    if (probe_->counting &&
        logging::LogStore::ParseBatchFileName(name, &logger, &seq)) {
      probe_->reads[name]++;
      if (seq >= probe_->db->log_manager()->MinOpenSeq()) {
        probe_->open_reads.push_back(name);
      }
    }
    return ForwardingDevice::ReadFile(name, out);
  }

 private:
  BatchReadProbe* probe_;
};

TEST_F(MaintenanceTest, TruncationReadsEachClosedBatchHeaderOnce) {
  BatchReadProbe probe;
  DatabaseOptions opts = SimDbOptions(logging::LogScheme::kCommand);
  opts.device_factory = [&probe](uint32_t) {
    return std::make_unique<BatchReadCountingDevice>(&probe);
  };
  auto db = std::make_unique<Database>(opts);
  probe.db = db.get();
  bank_.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  auto service = MakeService(db.get());
  // Commits landing while a cycle writes its checkpoint close batches the
  // checkpoint does not cover; the next cycle covers them, and must not
  // read them again to find out.
  int landed = 0;
  probe.before_meta = [&] { RunTxns(db.get(), 25, /*seed=*/50 + landed++); };

  logging::LogManager* lm = db->log_manager();
  uint64_t uncovered_closed = 0;
  uint64_t open_files = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    RunTxns(db.get(), 40, /*seed=*/10 + cycle);
    maintenance::CheckpointEvent ev;
    ASSERT_TRUE(service->RunOnce(&ev).ok());
    // Every closed batch the checkpoint covers is gone.
    probe.counting = false;
    const uint64_t min_open = lm->MinOpenSeq();
    for (const logging::BatchFile& f :
         logging::LogStore::ListBatchFiles(lm->devices())) {
      if (f.seq >= min_open) {
        open_files++;
        continue;
      }
      logging::LogBatch b;
      ASSERT_TRUE(logging::LogStore::ReadBatchCoverage(
                      lm->devices()[f.device], f.name, &b)
                      .ok());
      EXPECT_GT(b.max_cts, ev.ts) << f.name << " is covered but kept";
      uncovered_closed++;
    }
    probe.counting = true;
  }
  // The cycles met both kinds of file the reads must treat differently.
  EXPECT_GT(uncovered_closed, 0u);
  EXPECT_GT(open_files, 0u);
  EXPECT_FALSE(probe.reads.empty());
  for (const auto& [name, n] : probe.reads) {
    EXPECT_LE(n, 1) << name << " read " << n << " times";
  }
  EXPECT_TRUE(probe.open_reads.empty())
      << "in-progress batch read: " << probe.open_reads.front();
}

// One service outlives an in-process crash. Crash() closes the log
// streams and Recover() resumes them; the service's cached coverage of
// the batches closed before the crash stays true, because closed batches
// are immutable, and its next cycle deletes every batch the new
// checkpoint covers, whichever side of the crash closed it.
TEST_F(MaintenanceTest, ServiceTruncatesAcrossAnInProcessCrash) {
  auto db = std::make_unique<Database>(
      SimDbOptions(logging::LogScheme::kCommand));
  bank_.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  auto service = MakeService(db.get());
  RunTxns(db.get(), 60);
  ASSERT_TRUE(service->RunOnce(nullptr).ok());
  RunTxns(db.get(), 60, /*seed=*/2);

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  const uint64_t hash_at_crash = db->ContentHash();
  db->Crash();
  logging::LogManager* lm = db->log_manager();
  std::map<std::string, Timestamp> at_crash;  // Batch file → max_cts.
  for (const logging::BatchFile& f :
       logging::LogStore::ListBatchFiles(lm->devices())) {
    logging::LogBatch b;
    ASSERT_TRUE(logging::LogStore::ReadBatchCoverage(
                    lm->devices()[f.device], f.name, &b)
                    .ok());
    at_crash[f.name] = b.max_cts;
  }
  ASSERT_FALSE(at_crash.empty());
  db->Recover(recovery::Scheme::kClrP, ropts);
  ASSERT_EQ(db->ContentHash(), hash_at_crash);

  RunTxns(db.get(), 60, /*seed=*/3);
  maintenance::CheckpointEvent ev;
  ASSERT_TRUE(service->RunOnce(&ev).ok());
  EXPECT_GT(ev.batches_deleted, 0u);
  uint64_t covered_at_crash = 0;
  for (const auto& [name, max_cts] : at_crash) {
    if (max_cts > ev.ts) continue;
    covered_at_crash++;
    for (device::StorageDevice* dev : lm->devices()) {
      EXPECT_FALSE(dev->Exists(name)) << name << " is covered but kept";
    }
  }
  EXPECT_GT(covered_at_crash, 0u);
  const uint64_t min_open = lm->MinOpenSeq();
  for (const logging::BatchFile& f :
       logging::LogStore::ListBatchFiles(lm->devices())) {
    if (f.seq >= min_open) continue;
    logging::LogBatch b;
    ASSERT_TRUE(logging::LogStore::ReadBatchCoverage(
                    lm->devices()[f.device], f.name, &b)
                    .ok());
    EXPECT_GT(b.max_cts, ev.ts) << f.name << " is covered but kept";
  }

  // What the cycle kept recovers the database exactly.
  RunTxns(db.get(), 20, /*seed=*/4);
  const uint64_t hash_before = db->ContentHash();
  db->Crash();
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash_before);
}

// --- GC/no-GC recovery parity across all five schemes ---------------------

using testutil::SchemeCase;

class MaintenanceParityTest
    : public MaintenanceTest,
      public ::testing::WithParamInterface<SchemeCase> {};

TEST_P(MaintenanceParityTest, RecoveryMatchesNoGcControl) {
  const SchemeCase param = GetParam();
  auto run = [&](bool gc) -> uint64_t {
    auto db = std::make_unique<Database>(SimDbOptions(param.log));
    bank_.Install(db.get());
    db->FinalizeSchema();
    EXPECT_TRUE(db->TryTakeCheckpoint().ok());
    auto service = MakeService(db.get());
    for (int round = 0; round < 4; ++round) {
      RunTxns(db.get(), 50, /*seed=*/10 + round);
      if (gc) {
        EXPECT_TRUE(service->RunOnce(nullptr).ok());
      }
    }
    const uint64_t hash_before = db->ContentHash();
    db->Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 4;
    db->Recover(param.rec, ropts);
    EXPECT_EQ(db->ContentHash(), hash_before);
    return db->ContentHash();
  };
  // Same workload, GC on vs off: recovered content is bit-identical.
  EXPECT_EQ(run(/*gc=*/true), run(/*gc=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MaintenanceParityTest,
    ::testing::Values(
        SchemeCase{logging::LogScheme::kPhysical, recovery::Scheme::kPlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlr},
        SchemeCase{logging::LogScheme::kLogical, recovery::Scheme::kLlrP},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClr},
        SchemeCase{logging::LogScheme::kCommand, recovery::Scheme::kClrP}));

// --- Kill -9 interactions (file device) -----------------------------------

TEST_F(MaintenanceTest, KillAfterTruncationRecoversIdenticalState) {
  // Process 1: work, truncate, more work, killed before the next
  // checkpoint — recovery must compose the surviving checkpoint with the
  // post-truncation log suffix.
  uint64_t hash_before = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand, "gc"));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 80);
    auto service = MakeService(db.get());
    maintenance::CheckpointEvent ev;
    ASSERT_TRUE(service->RunOnce(&ev).ok());
    ASSERT_GT(ev.batches_deleted, 0u);
    RunTxns(db.get(), 40, /*seed=*/7);
    hash_before = db->ContentHash();
    // Kill: destroyed with no shutdown handshake.
  }
  auto db = std::make_unique<Database>(
      FileDbOptions(logging::LogScheme::kCommand, "gc"));
  ASSERT_TRUE(db->opened_existing_state());
  InstallSchemaOnly(db.get());
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult r =
      db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_GT(r.log.records_replayed, 0u);
  EXPECT_EQ(db->ContentHash(), hash_before);
}

TEST_F(MaintenanceTest, KillMidCheckpointLeavesTornMetaThatIsIgnored) {
  uint64_t hash_before = 0;
  uint64_t durable_id = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand, "torn"));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 60);
    auto service = MakeService(db.get());
    maintenance::CheckpointEvent ev;
    ASSERT_TRUE(service->RunOnce(&ev).ok());
    durable_id = ev.id;
    RunTxns(db.get(), 30, /*seed=*/5);
    hash_before = db->ContentHash();
    // Simulate a kill -9 mid-checkpoint: stripes of the next id partially
    // written, meta torn (truncated garbage).
    ASSERT_TRUE(db->device(0)
                    ->WriteFile(logging::Checkpointer::StripeFileName(
                                    durable_id + 1, 0, 0),
                                std::vector<uint8_t>(128, 0x5a))
                    .ok());
    ASSERT_TRUE(db->device(0)
                    ->WriteFile(
                        logging::Checkpointer::MetaFileName(durable_id + 1),
                        std::vector<uint8_t>(13, 0x5a))
                    .ok());
  }
  auto db = std::make_unique<Database>(
      FileDbOptions(logging::LogScheme::kCommand, "torn"));
  InstallSchemaOnly(db.get());
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db->ContentHash(), hash_before);
  // Recovery started from the durable checkpoint, not the torn one.
  logging::CheckpointMeta latest;
  ASSERT_TRUE(db->checkpointer()->ReadLatestMeta(&latest).ok());
  EXPECT_EQ(latest.id, durable_id);
}

TEST_F(MaintenanceTest, DoubleKillWithGcKeepsContinuity) {
  // Kill, recover, truncate again, kill again: batch-seq resumption and
  // checkpoint-id resumption must hold across generations with files
  // disappearing in between.
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  uint64_t h1 = 0, h2 = 0;
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand, "dk"));
    bank_.Install(db.get());
    db->FinalizeSchema();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    RunTxns(db.get(), 60);
    auto service = MakeService(db.get());
    ASSERT_TRUE(service->RunOnce(nullptr).ok());
    RunTxns(db.get(), 20, /*seed=*/2);
    h1 = db->ContentHash();
  }
  {
    auto db = std::make_unique<Database>(
        FileDbOptions(logging::LogScheme::kCommand, "dk"));
    InstallSchemaOnly(db.get());
    db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db->ContentHash(), h1);
    RunTxns(db.get(), 40, /*seed=*/3);
    // Second generation truncates too (its service starts from scratch
    // and reads inherited batch coverage from the file headers).
    auto service = MakeService(db.get());
    maintenance::CheckpointEvent ev;
    ASSERT_TRUE(service->RunOnce(&ev).ok());
    EXPECT_GT(ev.batches_deleted, 0u);
    RunTxns(db.get(), 20, /*seed=*/4);
    h2 = db->ContentHash();
  }
  auto db = std::make_unique<Database>(
      FileDbOptions(logging::LogScheme::kCommand, "dk"));
  InstallSchemaOnly(db.get());
  db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db->ContentHash(), h2);
  EXPECT_NE(h2, h1);
}

// --- Background lifecycle -------------------------------------------------

TEST_F(MaintenanceTest, BackgroundServiceRunsWithWorkersAndStopsOnCrash) {
  DatabaseOptions opts = SimDbOptions(logging::LogScheme::kCommand);
  opts.checkpoint_interval_s = 0.02;
  auto db = std::make_unique<Database>(opts);
  bank_.Install(db.get());
  db->FinalizeSchema();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  EXPECT_EQ(db->maintenance_service(), nullptr);  // Not started yet.

  db->StartWorkers(2);
  ASSERT_NE(db->maintenance_service(), nullptr);
  EXPECT_TRUE(db->maintenance_service()->running());
  // Commit work and wait for the background loop to take a checkpoint.
  Rng rng(11);
  std::vector<Value> params;
  for (int spin = 0; spin < 400; ++spin) {
    for (int i = 0; i < 10; ++i) {
      ProcId proc = bank_.NextTransaction(&rng, &params);
      ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
    }
    db->AdvanceEpoch();
    const maintenance::MaintenanceStats ms = db->maintenance_stats();
    if (ms.checkpoints >= 2 && ms.batches_deleted >= 1) break;
    struct timespec ts = {0, 10 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  EXPECT_GE(db->maintenance_stats().checkpoints, 2u);
  EXPECT_GE(db->maintenance_stats().batches_deleted, 1u);

  const uint64_t hash_before = db->ContentHash();
  db->Crash();  // Stops the service before dropping table state.
  EXPECT_FALSE(db->maintenance_service()->running());
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash_before);
  // EnsureWorkers restarts maintenance after recovery; counters persist.
  const uint64_t ckpts = db->maintenance_stats().checkpoints;
  ASSERT_TRUE(db->EnsureWorkers(2));
  EXPECT_TRUE(db->maintenance_service()->running());
  EXPECT_GE(db->maintenance_stats().checkpoints, ckpts);
  db->StopWorkers();
  EXPECT_FALSE(db->maintenance_service()->running());
}

}  // namespace
}  // namespace pacman
