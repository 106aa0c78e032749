// Pipelined-recovery suite: recovery through the parallel load +
// streaming merge path (recovery/log_pipeline.h) must restore the exact
// pre-crash state under every scheme and backend, stay seq-ordered under
// out-of-order fragment arrival, schedule each batch's reads and parse in
// the one reload stage, and fail loudly (with file name + offset) on
// corrupt batch files.
#include "recovery/log_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <thread>

#include "device/file_device.h"
#include "device/simulated_ssd.h"
#include "pacman/database.h"
#include "sim/machine.h"
#include "test_util.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

using logging::LogScheme;
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

// --- Every recovery restores the pre-crash state, per scheme --------------

enum class Workload { kBank, kTpcc };

class RecoveryParityTest
    : public ::testing::TestWithParam<std::tuple<Scheme, Workload>> {};

// One database, one log: recover it twice (simulated backend, then
// overlapped replay on real threads) and demand the pre-crash content hash
// each time. Re-crashing a recovered
// database appends only empty flush batches, so every recovery replays the
// same committed history.
TEST_P(RecoveryParityTest, EveryBackendRecoversPreCrashState) {
  const Scheme scheme = std::get<0>(GetParam());
  const Workload workload = std::get<1>(GetParam());

  DatabaseOptions opts;
  opts.scheme = SchemeLogFormat(scheme);
  opts.num_ssds = 2;
  opts.num_loggers = 3;  // Multi-logger: every seq has several fragments.
  opts.epochs_per_batch = 2;
  opts.commits_per_epoch = 30;
  Database db(opts);

  workload::Bank bank(
      {.num_users = 300, .num_nations = 8, .single_fraction = 0.1});
  workload::Tpcc tpcc({.num_warehouses = 2,
                       .districts_per_warehouse = 4,
                       .customers_per_district = 40,
                       .num_items = 80,
                       .orders_per_district = 6});
  std::function<ProcId(Rng*, std::vector<Value>*)> next;
  if (workload == Workload::kBank) {
    bank.Install(&db);
    next = [&](Rng* rng, std::vector<Value>* p) {
      return bank.NextTransaction(rng, p);
    };
  } else {
    tpcc.Install(&db);
    next = [&](Rng* rng, std::vector<Value>* p) {
      return tpcc.NextTransaction(rng, p);
    };
  }
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());

  Rng rng(7);
  std::vector<Value> params;
  for (int i = 0; i < 260; ++i) {
    ProcId proc = next(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    if (i == 130) {
      ASSERT_TRUE(db.TryTakeCheckpoint().ok());  // Mid-run checkpoint.
    }
  }
  const uint64_t pre_crash = db.ContentHash();
  db.Crash();

  RecoveryOptions ropts;
  ropts.num_threads = 4;
  FullRecoveryResult rs = db.Recover(scheme, ropts);
  EXPECT_EQ(db.ContentHash(), pre_crash) << "simulated backend";
  EXPECT_GT(rs.log.records_replayed, 0u);

  db.Crash();
  db.Recover(scheme, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db.ContentHash(), pre_crash)
      << "overlapped real-thread backend";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RecoveryParityTest,
    ::testing::Combine(::testing::Values(Scheme::kPlr, Scheme::kLlr,
                                         Scheme::kLlrP, Scheme::kClr,
                                         Scheme::kClrP),
                       ::testing::Values(Workload::kBank, Workload::kTpcc)));

// --- Out-of-order fragment arrival ----------------------------------------

// Delegating device that delays every read, so this device's fragments
// reliably arrive after the other device finished its whole stream — the
// streaming merge must still emit global batches in ascending seq with
// exactly the contents of an undelayed load.
class SlowReadDevice final : public device::StorageDevice {
 public:
  SlowReadDevice(device::StorageDevice* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}

  device::IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) override {
    return inner_->WriteFile(name, std::move(bytes));
  }
  device::IoResult AppendFile(const std::string& name,
                              const std::vector<uint8_t>& bytes) override {
    return inner_->AppendFile(name, bytes);
  }
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->ReadFile(name, out);
  }
  bool Exists(const std::string& name) const override {
    return inner_->Exists(name);
  }
  std::vector<std::string> ListFiles(
      const std::string& prefix) const override {
    return inner_->ListFiles(prefix);
  }
  void RemoveAll() override { inner_->RemoveAll(); }
  device::IoResult RemoveFile(const std::string& name) override {
    return inner_->RemoveFile(name);
  }
  size_t FileSize(const std::string& name) const override {
    return inner_->FileSize(name);
  }
  device::IoResult SyncBarrier() override { return inner_->SyncBarrier(); }
  bool IsPersistent() const override { return inner_->IsPersistent(); }
  double WriteSeconds(size_t bytes) const override {
    return inner_->WriteSeconds(bytes);
  }
  double ReadSeconds(size_t bytes) const override {
    return inner_->ReadSeconds(bytes);
  }
  double FsyncSeconds() const override { return inner_->FsyncSeconds(); }

 private:
  device::StorageDevice* inner_;
  int delay_ms_;
};

TEST(StreamingMergeTest, OutOfOrderSeqArrivalStaysSeqOrdered) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.num_ssds = 2;
  opts.num_loggers = 4;  // Two loggers per device: multi-fragment seqs.
  opts.epochs_per_batch = 2;
  opts.commits_per_epoch = 20;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 200, .num_nations = 4, .single_fraction = 0.1});
  bank.Install(&db);
  db.FinalizeSchema();
  ASSERT_TRUE(db.TryTakeCheckpoint().ok());
  Rng rng(3);
  std::vector<Value> params;
  for (int i = 0; i < 200; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  db.Crash();

  // Reference: the same log loaded with no delay.
  auto reference = testutil::LoadLog(LogScheme::kCommand, db.device_ptrs());
  ASSERT_TRUE(reference->status.ok());
  const std::vector<recovery::GlobalBatch>& expected = reference->batches();
  ASSERT_GT(expected.size(), 2u);

  // Pipelined load with device 0 delayed: logger 0/2 fragments of every
  // seq arrive after device 1 already delivered logger 1/3 for all seqs,
  // so completion order is maximally out of order w.r.t. seq order.
  SlowReadDevice slow(db.device(0), /*delay_ms=*/5);
  std::vector<device::StorageDevice*> devices = {&slow, db.device(1)};
  exec::ThreadPool pool(4);
  recovery::LogPipelineOptions lopts;
  lopts.num_threads = 4;
  lopts.checkpoint_ts = 0;
  lopts.num_ssds = opts.num_ssds;
  recovery::PipelinedLogLoader loader(LogScheme::kCommand, devices, &pool,
                                      lopts);
  loader.Start();
  ASSERT_EQ(loader.num_batches(), expected.size());
  // WaitBatch in seq order while later fragments are still loading.
  for (size_t k = 0; k < loader.num_batches(); ++k) {
    const recovery::GlobalBatch* got = loader.WaitBatch(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->seq, expected[k].seq);
    ASSERT_EQ(got->records.size(), expected[k].records.size()) << "seq " << k;
    for (size_t i = 0; i < got->records.size(); ++i) {
      EXPECT_EQ(got->records[i]->commit_ts, expected[k].records[i]->commit_ts);
      EXPECT_EQ(got->records[i]->proc, expected[k].records[i]->proc);
      EXPECT_EQ(got->records[i]->params.size(),
                expected[k].records[i]->params.size());
      for (size_t v = 0; v < got->records[i]->params.size(); ++v) {
        EXPECT_TRUE(got->records[i]->params[v] ==
                    expected[k].records[i]->params[v]);
      }
    }
  }
  ASSERT_TRUE(loader.WaitAll().ok());
  EXPECT_GT(loader.total_records(), 0u);
}

// --- The reload stage every log-replay builder shares ---------------------

TEST(ReloadStageTest, ReadsEveryFileThenDeserializesBehindTheGate) {
  device::SimulatedSsd ssd0, ssd1;
  const std::vector<device::StorageDevice*> ssds = {&ssd0, &ssd1};
  const recovery::CostModel costs;
  std::vector<recovery::GlobalBatch> batches(2);
  batches[0].seq = 7;
  batches[0].files = {{0, 4000}, {1, 1000}};
  batches[1].seq = 8;
  batches[1].files = {{1, 2000}};

  sim::TaskGraph g;
  const sim::GroupId cpu = recovery::CpuGroup(2);
  // Stand-ins for AddBatchGates' gates; batch 8's holds its reload back
  // for one virtual second.
  const std::vector<sim::TaskId> gates = {
      g.AddTask(cpu, 0), g.AddTask(cpu, 0, [] { return 1.0; })};
  recovery::RecoveryCounters counters;
  std::vector<uint64_t> deserialized;
  std::vector<sim::TaskId> deser;
  for (size_t i = 0; i < batches.size(); ++i) {
    const uint64_t seq = batches[i].seq;
    deser.push_back(recovery::AddReloadStage(
        batches, i, &gates, ssds, costs, &g, &counters,
        [&deserialized, seq] { deserialized.push_back(seq); }));
  }

  // Creation order fixes task ids and with them the simulated dispatch
  // order: each batch's reads in file order, then its deserialize task.
  ASSERT_EQ(g.NumTasks(), 7u);
  EXPECT_EQ(deser, (std::vector<sim::TaskId>{4, 6}));
  const std::vector<sim::GroupId> groups = {recovery::SsdGroup(0),
                                            recovery::SsdGroup(1), cpu,
                                            recovery::SsdGroup(1), cpu};
  const std::vector<uint64_t> priorities = {7, 7, 7, 8, 8};
  for (sim::TaskId t = 2; t < 7; ++t) {
    EXPECT_EQ(g.task(t).group, groups[t - 2]) << "task " << t;
    EXPECT_EQ(g.task(t).priority, priorities[t - 2]) << "task " << t;
  }
  EXPECT_EQ(g.task(deser[0]).num_deps, 3u);  // Two reads and the gate.
  EXPECT_EQ(g.task(deser[1]).num_deps, 2u);  // One read and the gate.
  EXPECT_EQ(g.task(gates[1]).dependents, std::vector<sim::TaskId>{deser[1]});

  // One core per device, two CPU cores: batch 7 deserializes as soon as
  // its reads land; batch 8 waits out its gate.
  sim::Machine machine(sim::MachineConfig{{1, 1, 2}});
  EXPECT_DOUBLE_EQ(machine.Run(g), 1.0 + 2000 * costs.deserialize_byte);
  EXPECT_EQ(deserialized, (std::vector<uint64_t>{7, 8}));

  // Every read and both deserializations are charged as data loading.
  recovery::RecoveryStats stats;
  counters.FillStats(&stats);
  const double loading = ssd0.ReadSeconds(4000) + ssd1.ReadSeconds(1000) +
                         ssd1.ReadSeconds(2000) +
                         7000 * costs.deserialize_byte;
  EXPECT_NEAR(stats.breakdown.data_loading, loading, 1e-12 * loading);
  EXPECT_EQ(stats.breakdown.useful_work, 0.0);
}

// --- Corrupt batch files fail loudly with file name + offset --------------

TEST(CorruptBatchTest, TruncatedBatchFileOnPersistentDeviceIsLoud) {
  char tmpl[] = "/tmp/pacman_corrupt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  device::FileDevice dev({.dir = dir + "/dev0"});

  logging::LogBatch batch;
  batch.logger_id = 0;
  batch.seq = 3;
  for (int i = 0; i < 5; ++i) {
    logging::LogRecord rec;
    rec.commit_ts = 100 + i;
    rec.epoch = 1;
    rec.proc = kAdhocProcId;
    rec.writes.push_back(
        {0, static_cast<Key>(i), {Value(1.5), Value(std::string("row"))},
         false});
    batch.records.push_back(std::move(rec));
  }
  std::vector<uint8_t> bytes =
      logging::LogStore::SerializeBatch(LogScheme::kCommand, batch);
  const std::string name = logging::LogStore::BatchFileName(0, batch.seq);

  // A newer, intact file in the same logger stream: `name` is then an
  // *interior* file, where truncation is impossible in a crash (interior
  // files were complete before the next one opened) and must stay loud.
  // Only the newest file of a stream gets the torn-tail tolerance.
  logging::LogBatch newer = batch;
  newer.seq = batch.seq + 1;
  ASSERT_TRUE(dev.WriteFile(logging::LogStore::BatchFileName(0, newer.seq),
                            logging::LogStore::SerializeBatch(
                                LogScheme::kCommand, newer))
                  .ok());

  // Truncated mid-record: the loader reports file, offset and record
  // through WaitAll, and returns nullptr from WaitBatch instead of hanging.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  ASSERT_TRUE(dev.WriteFile(name, truncated).ok());
  {
    exec::ThreadPool pool(2);
    std::vector<device::StorageDevice*> devices = {&dev};
    recovery::PipelinedLogLoader loader(LogScheme::kCommand, devices, &pool,
                                        {});
    loader.Start();
    ASSERT_EQ(loader.num_batches(), 2u);
    EXPECT_EQ(loader.WaitBatch(0), nullptr);
    Status ps = loader.WaitAll();
    ASSERT_FALSE(ps.ok());
    EXPECT_EQ(ps.code(), StatusCode::kCorruption);
    EXPECT_NE(ps.message().find(name), std::string::npos) << ps.message();
    EXPECT_NE(ps.message().find("offset"), std::string::npos) << ps.message();
    EXPECT_NE(ps.message().find("record"), std::string::npos) << ps.message();
  }

  // Garbage contents (bad magic) are corruption too, not a quiet skip.
  ASSERT_TRUE(dev.WriteFile(name, std::vector<uint8_t>(64, 0xab)).ok());
  Status s = testutil::LoadLog(LogScheme::kCommand, {&dev})->status;
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find(name), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.message();

  // A valid header with a garbage record count must be rejected by the
  // block's payload bound, not attempted as a giant allocation.
  std::vector<uint8_t> bad_count = bytes;
  // The first block's count follows the file header: a one-byte varint
  // (5) becomes 2^32 - 1.
  const size_t count_off = logging::LogStore::kFileHeaderBytes;
  ASSERT_EQ(bad_count[count_off], 5u);
  bad_count[count_off] = 0xff;
  bad_count.insert(bad_count.begin() + count_off + 1, {0xff, 0xff, 0xff, 0x0f});
  ASSERT_TRUE(dev.WriteFile(name, bad_count).ok());
  s = testutil::LoadLog(LogScheme::kCommand, {&dev})->status;
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("count"), std::string::npos) << s.message();

  dev.RemoveAll();
  std::filesystem::remove_all(dir);
}

// --- Pre-sized serialization and zero-copy parsing ------------------------

logging::LogBatch MixedBatch(LogScheme scheme) {
  logging::LogBatch batch;
  batch.logger_id = 1;
  batch.seq = 12;
  for (int i = 0; i < 4; ++i) {
    logging::LogRecord rec;
    rec.commit_ts = 50 + i;
    rec.epoch = 3;
    if (scheme == LogScheme::kCommand && i % 2 == 0) {
      rec.proc = 0;
      rec.params = {Value(int64_t{7}), Value(2.25),
                    Value(std::string("a string parameter")), Value::Null()};
    } else {
      rec.proc = kAdhocProcId;
      rec.writes.push_back({2, static_cast<Key>(i),
                            {Value(int64_t{1}), Value(std::string("abcdef")),
                             Value::Null()},
                            i == 3});
    }
    batch.records.push_back(std::move(rec));
  }
  return batch;
}

TEST(BatchSerializationTest, PredictedSizeIsExact) {
  for (LogScheme scheme :
       {LogScheme::kPhysical, LogScheme::kLogical, LogScheme::kCommand}) {
    logging::LogBatch batch = MixedBatch(scheme);
    if (scheme != LogScheme::kCommand) {
      for (auto& rec : batch.records) rec.proc = kAdhocProcId;
    }
    size_t payload = 0;
    std::vector<uint8_t> bytes =
        logging::LogStore::SerializeBatch(scheme, batch, &payload);
    // Against the block's bases (its minima) the predicted record sizes
    // add up to the reported payload, and the records alone are exactly
    // the file's tail.
    const logging::RecordBases bases{50, 3};
    size_t predicted = 0;
    Serializer records;
    for (const auto& rec : batch.records) {
      predicted += logging::SerializedRecordBytes(scheme, rec, bases);
      logging::SerializeRecord(scheme, rec, bases, &records);
    }
    EXPECT_EQ(predicted, payload) << logging::LogSchemeName(scheme);
    EXPECT_EQ(records.size(), payload);
    ASSERT_LE(payload, bytes.size());
    EXPECT_LE(bytes.size() - payload,
              logging::LogStore::kFileHeaderBytes +
                  logging::LogStore::kMaxBlockHeaderBytes);
    EXPECT_TRUE(std::equal(records.data().begin(), records.data().end(),
                           bytes.end() - payload));
  }
}

TEST(BatchSerializationTest, ZeroCopyParseBorrowsAndMaterializesOnCopy) {
  logging::LogBatch batch = MixedBatch(LogScheme::kCommand);
  std::vector<uint8_t> bytes =
      logging::LogStore::SerializeBatch(LogScheme::kCommand, batch);

  logging::LogBatch parsed;
  logging::BatchParseOptions popts;
  popts.borrow = true;
  popts.file_name = "test.batch";
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(LogScheme::kCommand, bytes,
                                                  popts, &parsed)
                  .ok());
  ASSERT_EQ(parsed.records.size(), batch.records.size());
  ASSERT_NE(parsed.backing, nullptr);

  // String params view the retained buffer; copies own their bytes.
  const Value& borrowed = parsed.records[0].params[2];
  ASSERT_EQ(borrowed.type(), ValueType::kString);
  EXPECT_TRUE(borrowed.is_borrowed());
  EXPECT_EQ(borrowed.AsStringView(), "a string parameter");
  const uint8_t* lo = parsed.backing->data();
  const uint8_t* hi = lo + parsed.backing->size();
  const auto* p =
      reinterpret_cast<const uint8_t*>(borrowed.AsStringView().data());
  EXPECT_TRUE(p >= lo && p < hi) << "borrowed string is not zero-copy";
  Value copy = borrowed;
  EXPECT_FALSE(copy.is_borrowed());
  EXPECT_TRUE(copy == borrowed);

  // Moving the batch (as the pipeline's fragment slots do) keeps the
  // views valid: the backing vector's heap buffer moves with it.
  logging::LogBatch moved = std::move(parsed);
  EXPECT_EQ(moved.records[0].params[2].AsStringView(), "a string parameter");

  // Round-trip equality against a copy-mode parse.
  logging::LogBatch copied;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(LogScheme::kCommand, bytes,
                                                  &copied)
                  .ok());
  ASSERT_EQ(copied.records.size(), moved.records.size());
  for (size_t i = 0; i < copied.records.size(); ++i) {
    ASSERT_EQ(copied.records[i].params.size(),
              moved.records[i].params.size());
    for (size_t v = 0; v < copied.records[i].params.size(); ++v) {
      EXPECT_TRUE(copied.records[i].params[v] == moved.records[i].params[v]);
    }
  }
}

}  // namespace
}  // namespace pacman
