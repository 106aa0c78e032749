// Tests for common/serializer.h and the log record / batch formats.
#include "common/serializer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/simulated_ssd.h"
#include "logging/log_record.h"
#include "logging/log_store.h"

namespace pacman {
namespace {

TEST(SerializerTest, PrimitivesRoundTrip) {
  Serializer s;
  s.PutU8(7);
  s.PutU32(123456);
  s.PutU64(0xdeadbeefcafebabeull);
  s.PutI64(-42);
  s.PutDouble(2.5);
  s.PutString("abc");

  Deserializer d(s.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double dbl;
  std::string str;
  ASSERT_TRUE(d.GetU8(&u8).ok());
  ASSERT_TRUE(d.GetU32(&u32).ok());
  ASSERT_TRUE(d.GetU64(&u64).ok());
  ASSERT_TRUE(d.GetI64(&i64).ok());
  ASSERT_TRUE(d.GetDouble(&dbl).ok());
  ASSERT_TRUE(d.GetString(&str).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafebabeull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(dbl, 2.5);
  EXPECT_EQ(str, "abc");
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializerTest, UnderflowReturnsCorruption) {
  Serializer s;
  s.PutU8(1);
  Deserializer d(s.data());
  uint64_t u64;
  EXPECT_EQ(d.GetU64(&u64).code(), StatusCode::kCorruption);
}

TEST(SerializerTest, RowRoundTrip) {
  Row row = {Value(int64_t{-5}), Value(1.5), Value(std::string("s")),
             Value::Null()};
  Serializer s;
  s.PutRow(row);
  Deserializer d(s.data());
  Row out;
  ASSERT_TRUE(d.GetRow(&out).ok());
  ASSERT_EQ(out.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) EXPECT_EQ(out[i], row[i]);
}

TEST(LogRecordTest, CommandRecordRoundTrip) {
  logging::LogRecord rec;
  rec.commit_ts = 99;
  rec.epoch = 3;
  rec.proc = 2;
  rec.params = {Value(int64_t{7}), Value(2.5), Value(std::string("p"))};

  Serializer s;
  logging::SerializeRecord(logging::LogScheme::kCommand, rec, &s);
  Deserializer d(s.data());
  logging::LogRecord out;
  ASSERT_TRUE(
      logging::DeserializeRecord(logging::LogScheme::kCommand, &d, &out)
          .ok());
  EXPECT_EQ(out.commit_ts, 99u);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.proc, 2u);
  ASSERT_EQ(out.params.size(), 3u);
  EXPECT_EQ(out.params[1], Value(2.5));
  EXPECT_FALSE(out.is_adhoc());
}

TEST(LogRecordTest, AdhocCommandRecordCarriesWrites) {
  logging::LogRecord rec;
  rec.commit_ts = 100;
  rec.epoch = 1;
  rec.proc = kAdhocProcId;
  rec.writes.push_back({1, 42, {Value(int64_t{1})}, false});
  rec.writes.push_back({2, 43, {}, true});

  Serializer s;
  logging::SerializeRecord(logging::LogScheme::kCommand, rec, &s);
  Deserializer d(s.data());
  logging::LogRecord out;
  ASSERT_TRUE(
      logging::DeserializeRecord(logging::LogScheme::kCommand, &d, &out)
          .ok());
  EXPECT_TRUE(out.is_adhoc());
  ASSERT_EQ(out.writes.size(), 2u);
  EXPECT_EQ(out.writes[0].table, 1u);
  EXPECT_EQ(out.writes[0].key, 42u);
  EXPECT_TRUE(out.writes[1].deleted);
}

TEST(LogRecordTest, PhysicalRecordsAreLargerThanLogical) {
  logging::LogRecord rec;
  rec.commit_ts = 1;
  rec.epoch = 1;
  rec.writes.push_back({1, 7, {Value(int64_t{5}), Value(2.0)}, false});

  Serializer pl, ll;
  logging::SerializeRecord(logging::LogScheme::kPhysical, rec, &pl);
  logging::SerializeRecord(logging::LogScheme::kLogical, rec, &ll);
  // Physical adds two 8-byte version addresses per write (§6.1.1).
  EXPECT_EQ(pl.size(), ll.size() + 16u);
}

TEST(LogRecordTest, PhysicalAndLogicalRoundTrip) {
  for (auto scheme :
       {logging::LogScheme::kPhysical, logging::LogScheme::kLogical}) {
    logging::LogRecord rec;
    rec.commit_ts = 5;
    rec.epoch = 2;
    rec.writes.push_back({3, 11, {Value(std::string("row"))}, false});
    Serializer s;
    logging::SerializeRecord(scheme, rec, &s);
    Deserializer d(s.data());
    logging::LogRecord out;
    ASSERT_TRUE(logging::DeserializeRecord(scheme, &d, &out).ok());
    ASSERT_EQ(out.writes.size(), 1u);
    EXPECT_EQ(out.writes[0].table, 3u);
    EXPECT_EQ(out.writes[0].key, 11u);
    EXPECT_EQ(out.writes[0].after[0], Value(std::string("row")));
  }
}

TEST(LogBatchTest, BatchRoundTrip) {
  logging::LogBatch batch;
  batch.logger_id = 1;
  batch.seq = 4;
  for (int i = 0; i < 10; ++i) {
    logging::LogRecord rec;
    rec.commit_ts = 100 + i;
    rec.epoch = 10 + i / 2;
    rec.proc = 0;
    rec.params = {Value(int64_t{i})};
    batch.records.push_back(rec);
  }
  auto bytes =
      logging::LogStore::SerializeBatch(logging::LogScheme::kCommand, batch);
  logging::LogBatch out;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                  logging::LogScheme::kCommand, bytes, &out)
                  .ok());
  EXPECT_EQ(out.logger_id, 1u);
  EXPECT_EQ(out.seq, 4u);
  ASSERT_EQ(out.records.size(), 10u);
  EXPECT_EQ(out.records[9].commit_ts, 109u);
  EXPECT_EQ(out.file_bytes, bytes.size());
}

// Records exercising every serialized field: all value types, deletes,
// and (under CL) both native command records and ad-hoc row images.
std::vector<logging::LogRecord> AllFieldRecords(logging::LogScheme scheme) {
  std::vector<logging::LogRecord> out;
  for (int i = 0; i < 5; ++i) {
    logging::LogRecord r;
    r.commit_ts = 0x100000000ull * (i + 1) + 7 - i;
    r.epoch = 3 + i;
    if (scheme == logging::LogScheme::kCommand && i % 2 == 0) {
      r.proc = static_cast<ProcId>(i + 1);
      r.params = {Value(int64_t{-5 * i}), Value(0.25 * i),
                  Value(std::string(static_cast<size_t>(i), 'p')),
                  Value::Null()};
    } else {
      r.proc = kAdhocProcId;
      for (int w = 0; w <= i % 3; ++w) {
        r.writes.push_back({static_cast<TableId>(w + 1),
                            static_cast<Key>(100 * i + w),
                            {Value(int64_t{i}), Value(std::string("row")),
                             Value(1.5), Value::Null()},
                            w == 1});
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

void ExpectSameRecords(const std::vector<logging::LogRecord>& got,
                       const std::vector<logging::LogRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].commit_ts, want[i].commit_ts) << i;
    EXPECT_EQ(got[i].epoch, want[i].epoch) << i;
    EXPECT_EQ(got[i].proc, want[i].proc) << i;
    ASSERT_EQ(got[i].params.size(), want[i].params.size()) << i;
    for (size_t v = 0; v < want[i].params.size(); ++v) {
      EXPECT_TRUE(got[i].params[v] == want[i].params[v]) << i << "/" << v;
    }
    ASSERT_EQ(got[i].writes.size(), want[i].writes.size()) << i;
    for (size_t w = 0; w < want[i].writes.size(); ++w) {
      const logging::WriteImage& a = got[i].writes[w];
      const logging::WriteImage& b = want[i].writes[w];
      EXPECT_EQ(a.table, b.table);
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.deleted, b.deleted);
      EXPECT_TRUE(a.after == b.after) << i << "/" << w;
    }
  }
}

TEST(LogBatchTest, V3BlocksRoundTripEveryRecordField) {
  for (auto scheme : {logging::LogScheme::kPhysical,
                      logging::LogScheme::kLogical,
                      logging::LogScheme::kCommand}) {
    const std::vector<logging::LogRecord> records = AllFieldRecords(scheme);
    // Three group-commit flushes into one file: header + block, then two
    // bare blocks appended (the middle one empty).
    std::vector<uint8_t> file = logging::LogStore::SerializeBlock(
        scheme, 3, 21, /*file_header=*/true, records.data(), 2);
    const std::pair<size_t, size_t> kAppends[] = {{2, 0}, {2, 3}};
    for (const auto& [first, n] : kAppends) {
      const std::vector<uint8_t> block = logging::LogStore::SerializeBlock(
          scheme, 3, 21, /*file_header=*/false, records.data() + first, n);
      file.insert(file.end(), block.begin(), block.end());
    }
    logging::LogBatch out;
    logging::BatchParseOptions strict;
    ASSERT_TRUE(
        logging::LogStore::DeserializeBatch(scheme, file, strict, &out).ok())
        << logging::LogSchemeName(scheme);
    EXPECT_EQ(out.logger_id, 3u);
    EXPECT_EQ(out.seq, 21u);
    EXPECT_FALSE(out.torn_tail);
    EXPECT_EQ(out.file_bytes, file.size());
    EXPECT_EQ(out.min_cts, records[0].commit_ts);
    EXPECT_EQ(out.max_cts, records[4].commit_ts);
    ExpectSameRecords(out.records, records);

    // Garbage collection reads the same interval from the block headers.
    device::SimulatedSsd dev;
    const std::string name = logging::LogStore::BatchFileName(3, 21);
    ASSERT_TRUE(dev.WriteFile(name, file).ok());
    logging::LogBatch cov;
    ASSERT_TRUE(
        logging::LogStore::ReadBatchCoverage(scheme, &dev, name, &cov).ok());
    EXPECT_EQ(cov.min_cts, out.min_cts);
    EXPECT_EQ(cov.max_cts, out.max_cts);
    EXPECT_TRUE(cov.records.empty());

    // A short last block is a torn tail: tolerated (keeping the complete
    // records before the tear) only when asked, loud otherwise.
    std::vector<uint8_t> torn(file.begin(), file.end() - 3);
    EXPECT_EQ(logging::LogStore::DeserializeBatch(scheme, torn, strict, &out)
                  .code(),
              StatusCode::kCorruption);
    logging::BatchParseOptions tolerant;
    tolerant.tolerate_torn_tail = true;
    ASSERT_TRUE(
        logging::LogStore::DeserializeBatch(scheme, torn, tolerant, &out).ok());
    EXPECT_TRUE(out.torn_tail);
    ExpectSameRecords(out.records, std::vector<logging::LogRecord>(
                                       records.begin(), records.begin() + 4));
  }
}

// The v2 image the previous writer produced for a two-record CL batch
// (logger 1, seq 7, epochs 3-4): one native call with int/double/string
// parameters and one ad-hoc record with two row images, one a delete.
const std::vector<uint8_t> kGoldenV2Batch = {
    0x32, 0x43, 0x41, 0x50, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x03, 0x02,
    0x00, 0x00, 0x00, 0x61, 0x62, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff,
    0xff, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00,
};

TEST(LogBatchTest, GoldenV1AndV2BatchesStillLoad) {
  logging::LogRecord call;
  call.commit_ts = 0x300000005ull;
  call.epoch = 3;
  call.proc = 2;
  call.params = {Value(int64_t{42}), Value(1.5), Value(std::string("ab"))};
  logging::LogRecord adhoc;
  adhoc.commit_ts = 0x400000001ull;
  adhoc.epoch = 4;
  adhoc.writes = {{5, 9, {Value(int64_t{-1}), Value::Null()}, false},
                  {6, 10, {}, true}};
  // v1 is v2 without the header's 16-byte cts interval, under "PACB".
  const std::vector<uint8_t> v1 = [] {
    std::vector<uint8_t> b = kGoldenV2Batch;
    b[0] = 0x42;
    b.erase(b.begin() + 32, b.begin() + 48);
    return b;
  }();
  for (const std::vector<uint8_t>* image : {&kGoldenV2Batch, &v1}) {
    logging::LogBatch out;
    ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                    logging::LogScheme::kCommand, *image, &out)
                    .ok());
    EXPECT_EQ(out.logger_id, 1u);
    EXPECT_EQ(out.seq, 7u);
    EXPECT_EQ(out.min_cts, call.commit_ts);
    EXPECT_EQ(out.max_cts, adhoc.commit_ts);
    ExpectSameRecords(out.records, {call, adhoc});

    device::SimulatedSsd dev;
    ASSERT_TRUE(dev.WriteFile("log_01_000000000007.batch", *image).ok());
    logging::LogBatch cov;
    ASSERT_TRUE(logging::LogStore::ReadBatchCoverage(
                    logging::LogScheme::kCommand, &dev,
                    "log_01_000000000007.batch", &cov)
                    .ok());
    EXPECT_EQ(cov.min_cts, call.commit_ts);
    EXPECT_EQ(cov.max_cts, adhoc.commit_ts);
  }
}

TEST(LogBatchTest, CorruptBatchRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
  logging::LogBatch out;
  EXPECT_FALSE(logging::LogStore::DeserializeBatch(
                   logging::LogScheme::kCommand, garbage, &out)
                   .ok());
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(17), b(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    int64_t n = r.NuRand(255, 0, 999);
    EXPECT_GE(n, 0);
    EXPECT_LE(n, 999);
  }
  EXPECT_EQ(r.AlphaString(12).size(), 12u);
}

}  // namespace
}  // namespace pacman
