// Failure-injection tests: corrupted and truncated log/checkpoint files
// must be rejected with kCorruption, never mis-parsed.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>

#include "common/serializer.h"
#include "logging/checkpointer.h"
#include "logging/log_store.h"
#include "pacman/database.h"
#include "workload/bank.h"

namespace pacman {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDbWithLogs() {
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    opts.commits_per_epoch = 10;
    opts.epochs_per_batch = 2;
    auto db = std::make_unique<Database>(opts);
    bank_.CreateTables(db->catalog());
    bank_.RegisterProcedures(db->registry());
    bank_.Load(db->catalog());
    db->FinalizeSchema();
    PACMAN_CHECK(db->TryTakeCheckpoint().ok());
    Rng rng(1);
    std::vector<Value> params;
    for (int i = 0; i < 60; ++i) {
      ProcId proc = bank_.NextTransaction(&rng, &params);
      PACMAN_CHECK(db->ExecuteProcedure(proc, params).ok());
    }
    db->AdvanceEpoch();
    db->log_manager()->FinalizeAll();
    return db;
  }

  workload::Bank bank_{workload::BankConfig{
      .num_users = 100, .num_nations = 4, .single_fraction = 0.0}};
};

TEST_F(FailureTest, TruncatedBatchFileIsRejected) {
  auto db = MakeDbWithLogs();
  auto names = db->device(0)->ListFiles("log_");
  ASSERT_FALSE(names.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(db->device(0)->ReadFile(names[0], &bytes).ok());
  // Truncate in the middle of the record area.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  logging::LogBatch out;
  Status s = logging::LogStore::DeserializeBatch(logging::LogScheme::kCommand,
                                                 truncated, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(FailureTest, BitFlippedMagicIsRejected) {
  auto db = MakeDbWithLogs();
  auto names = db->device(0)->ListFiles("log_");
  ASSERT_FALSE(names.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(db->device(0)->ReadFile(names[0], &bytes).ok());
  std::vector<uint8_t> corrupted = bytes;
  corrupted[0] ^= 0xff;
  logging::LogBatch out;
  EXPECT_EQ(logging::LogStore::DeserializeBatch(logging::LogScheme::kCommand,
                                                corrupted, &out)
                .code(),
            StatusCode::kCorruption);
}

TEST_F(FailureTest, WrongSchemeParseFailsOrDiverges) {
  // A command-log batch parsed as a logical batch must not round-trip
  // into a structurally valid equivalent: either it errors, or the
  // records it produces differ from the command-log parse.
  auto db = MakeDbWithLogs();
  auto names = db->device(0)->ListFiles("log_");
  ASSERT_FALSE(names.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(db->device(0)->ReadFile(names[0], &bytes).ok());
  logging::LogBatch as_cl, as_ll;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                  logging::LogScheme::kCommand, bytes, &as_cl)
                  .ok());
  Status s = logging::LogStore::DeserializeBatch(logging::LogScheme::kLogical,
                                                 bytes, &as_ll);
  if (s.ok()) {
    bool differs = as_ll.records.size() != as_cl.records.size();
    for (size_t i = 0; !differs && i < as_ll.records.size(); ++i) {
      differs = as_ll.records[i].writes.size() !=
                as_cl.records[i].writes.size();
    }
    EXPECT_TRUE(differs);
  } else {
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
  }
}

TEST_F(FailureTest, MissingFilesReportNotFound) {
  device::SimulatedSsd ssd;
  std::vector<uint8_t> bytes;
  EXPECT_EQ(ssd.ReadFile("nope", &bytes).code(), StatusCode::kNotFound);
  storage::Catalog catalog;
  logging::Checkpointer ckpt(&catalog, logging::LogScheme::kCommand, {&ssd});
  logging::CheckpointMeta meta;
  EXPECT_EQ(ckpt.ReadLatestMeta(&meta).code(), StatusCode::kNotFound);
}

TEST_F(FailureTest, CorruptCheckpointStripeIsRejected) {
  auto db = MakeDbWithLogs();
  logging::Checkpointer ckpt(db->catalog(), logging::LogScheme::kCommand,
                             db->device_ptrs());
  logging::CheckpointMeta meta;
  ASSERT_TRUE(ckpt.ReadLatestMeta(&meta).ok());
  const std::string name = logging::Checkpointer::StripeFileName(meta.id, 0, 0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(db->device(0)->ReadFile(name, &bytes).ok());
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() - 3);
  ASSERT_TRUE(db->device(0)->WriteFile(name, std::move(truncated)).ok());
  logging::CheckpointStripe stripe;
  EXPECT_EQ(ckpt.ReadStripe(meta, 0, 0, &stripe).code(),
            StatusCode::kCorruption);
}

// Recovery's restore task walks the stripe bytes itself and copies each
// row into its version as it stands, so it must check every row first: a
// bad value tag, or a stripe cut mid-record, aborts the restore loudly,
// naming the stripe and the record's offset.
TEST_F(FailureTest, CorruptCheckpointRowAbortsRestore) {
  enum class Damage { kBadTag, kCutRow };
  for (Damage damage : {Damage::kBadTag, Damage::kCutRow}) {
    auto db = MakeDbWithLogs();
    logging::Checkpointer ckpt(db->catalog(), logging::LogScheme::kCommand,
                               db->device_ptrs());
    logging::CheckpointMeta meta;
    ASSERT_TRUE(ckpt.ReadLatestMeta(&meta).ok());
    const std::string name =
        logging::Checkpointer::StripeFileName(meta.id, 0, 0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(db->device(0)->ReadFile(name, &bytes).ok());
    // A command-log record: table and key (varints), then the row, whose
    // first value's tag follows its varint count.
    Deserializer in(bytes);
    uint32_t table = 0;
    uint64_t key = 0, count = 0;
    ASSERT_TRUE(in.GetVarint32(&table).ok() && in.GetVarint(&key).ok() &&
                in.GetVarint(&count).ok() && count > 0 && !in.AtEnd());
    std::string want;
    if (damage == Damage::kBadTag) {
      bytes[in.position()] = 0x7f;
      want = name + ": record at offset 0: bad value tag";
    } else {
      bytes.resize(bytes.size() - 3);
      want = name +
             ": record at offset [0-9]+: (serializer underflow|unterminated "
             "varint|string underflow|row length too large)";
    }
    ASSERT_TRUE(db->device(0)->WriteFile(name, std::move(bytes)).ok());
    db->Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 2;
    EXPECT_DEATH(db->Recover(recovery::Scheme::kClrP, ropts), want);
  }
}

// A log dir that the previous build left, whose one checkpoint is in the
// retired fixed-width format: meta magic "PCKM", and stripe records of a
// u32 table, a u64 key and a u32-counted row of tagged 8-byte values.
// Recovery must refuse it by name, neither misparsing the stripe nor
// reporting that the devices hold no checkpoint.
TEST_F(FailureTest, RetiredCheckpointFormatAbortsRecoveryByName) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "pacman_ckpt_XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  opts.num_ssds = 1;
  opts.device = device::DeviceKind::kFile;
  opts.log_dir = dir;
  {
    Database writer(opts);  // An empty dir: only opens the device.
    Serializer stripe;
    stripe.PutU32(0);  // Table.
    stripe.PutU64(7);  // Key.
    stripe.PutU32(1);  // One value: an int64.
    stripe.PutValue(Value(int64_t{42}));
    Serializer meta;
    meta.PutU32(0x50434B4D);  // "PCKM"
    meta.PutU64(1);           // Id.
    meta.PutU64(1);           // Snapshot ts.
    meta.PutU32(1);           // Files per device.
    meta.PutU32(1);           // Devices.
    meta.PutU64(stripe.size());
    meta.PutU64(Fnv1a(meta.data().data(), meta.size()));
    ASSERT_TRUE(writer.device(0)
                    ->WriteFile(logging::Checkpointer::StripeFileName(1, 0, 0),
                                stripe.Release())
                    .ok());
    ASSERT_TRUE(writer.device(0)
                    ->WriteFile(logging::Checkpointer::MetaFileName(1),
                                meta.Release())
                    .ok());
  }
  Database db(opts);
  EXPECT_TRUE(db.crashed());  // The checkpoint is state to recover.
  bank_.CreateTables(db.catalog());
  bank_.RegisterProcedures(db.registry());
  db.FinalizeSchema();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  EXPECT_DEATH(db.Recover(recovery::Scheme::kClrP, ropts),
               "ckpt_meta_000000000001 is in the retired fixed-width "
               "checkpoint format \\(PCKM\\)");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST_F(FailureTest, RecordsBeyondPepochAreNotReplayed) {
  // A log batch whose records postdate the pepoch watermark models an
  // epoch that was only partially persisted at the crash: its results
  // were never released to clients and must not be replayed (Appendix A).
  auto db = MakeDbWithLogs();
  const uint64_t pre = db->ContentHash();
  db->Crash();

  logging::LogBatch rogue;
  rogue.logger_id = 0;
  rogue.seq = 9999;
  logging::LogRecord rec;
  rec.commit_ts = 1u << 30;  // Far past everything replayable.
  rec.epoch = 1u << 20;      // Far past the persisted epoch.
  rec.proc = kAdhocProcId;
  rec.AddImage(db->catalog()->GetTableId("Current"), 0, {Value(-1e9)},
               false);
  rogue.records.push_back(rec);
  ASSERT_TRUE(
      db->device(0)
          ->WriteFile(logging::LogStore::BatchFileName(0, rogue.seq),
                      logging::LogStore::SerializeBatch(
                          logging::LogScheme::kCommand, rogue))
          .ok());

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), pre) << "unpersisted-epoch record replayed";
}

TEST_F(FailureTest, CrashBeforeAnyCheckpointIsDetected) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  bank_.CreateTables(db.catalog());
  bank_.RegisterProcedures(db.registry());
  bank_.Load(db.catalog());
  db.FinalizeSchema();
  db.Crash();
  // Recovering without a checkpoint is a deployment error; the death is
  // the documented contract (PACMAN_CHECK in Recover).
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 1;
  EXPECT_DEATH(db.Recover(recovery::Scheme::kClrP, ropts), "");
}

}  // namespace
}  // namespace pacman
