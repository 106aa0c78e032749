// Tests for common/serializer.h and the log record / batch formats.
#include "common/serializer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "device/simulated_ssd.h"
#include "exec/thread_pool.h"
#include "logging/log_record.h"
#include "logging/log_store.h"
#include "recovery/log_pipeline.h"
#include "storage/table.h"

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
  std::vector<uint8_t> bytes(CompactRowBytes(row));
  EXPECT_EQ(EncodeCompactRow(row, bytes.data()), bytes.data() + bytes.size());
  size_t size = 0;
  ASSERT_TRUE(CheckCompactRow(bytes.data(), bytes.size(), &size).ok());
  EXPECT_EQ(size, bytes.size());
  EXPECT_EQ(CompactRowSize(bytes.data()), bytes.size());
  Row out;
  DecodeCompactRow(bytes.data(), &out);
  ASSERT_EQ(out.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(out[i], row[i]);
    Value field;
    DecodeCompactField(bytes.data(), i, &field);
    EXPECT_EQ(field, row[i]);
  }
  Value past_the_end(int64_t{1});
  DecodeCompactField(bytes.data(), row.size(), &past_the_end);
  EXPECT_TRUE(past_the_end.is_null());
}

TEST(SerializerTest, VarintsRoundTripAtMinimalLength) {
  const std::pair<uint64_t, size_t> kCases[] = {
      {0, 1},           {127, 1},          {128, 2},
      {16383, 2},       {16384, 3},        {0xffffffffull, 5},
      {1ull << 63, 10}, {std::numeric_limits<uint64_t>::max(), 10}};
  for (const auto& [v, len] : kCases) {
    Serializer s;
    s.PutVarint(v);
    EXPECT_EQ(s.size(), len) << v;
    Deserializer d(s.data());
    uint64_t out = 0;
    ASSERT_TRUE(d.GetVarint(&out).ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(d.AtEnd());
  }
  // Zigzag keeps small magnitudes of either sign short.
  const std::pair<int64_t, size_t> kSigned[] = {
      {0, 1}, {-1, 1}, {63, 1}, {-64, 1}, {64, 2},
      {std::numeric_limits<int64_t>::min(), 10},
      {std::numeric_limits<int64_t>::max(), 10}};
  for (const auto& [v, len] : kSigned) {
    Serializer s;
    s.PutSignedVarint(v);
    EXPECT_EQ(s.size(), len) << v;
    Deserializer d(s.data());
    int64_t out = 0;
    ASSERT_TRUE(d.GetSignedVarint(&out).ok()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(SerializerTest, OverlongAndUnterminatedVarintsAreCorruption) {
  const std::vector<std::vector<uint8_t>> kBad = {
      {},                                  // Nothing at all.
      {0x80},                              // Unterminated.
      {0xff, 0xff},                        // Unterminated.
      {0x80, 0x00},                        // Overlong zero.
      {0x81, 0x80, 0x00},                  // Overlong one.
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},  // > 64 b.
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00},
  };
  for (const std::vector<uint8_t>& bytes : kBad) {
    Deserializer d(bytes);
    uint64_t out = 0;
    EXPECT_EQ(d.GetVarint(&out).code(), StatusCode::kCorruption)
        << bytes.size();
  }
  Serializer big;
  big.PutVarint(uint64_t{1} << 32);
  Deserializer d(big.data());
  uint32_t out32 = 0;
  EXPECT_EQ(d.GetVarint32(&out32).code(), StatusCode::kCorruption);
}

TEST(SerializerTest, CompactValuesRoundTrip) {
  const double kTwo53 = 9007199254740992.0;
  // (value, compact size). Integral doubles within +-2^53 shrink to a
  // tag plus a zigzag varint; other doubles (-0.0 included) stay raw.
  const std::pair<Value, size_t> kCases[] = {
      {Value::Null(), 1},
      {Value(int64_t{0}), 2},
      {Value(int64_t{-64}), 2},
      {Value(int64_t{3000}), 3},
      {Value(std::numeric_limits<int64_t>::min()), 11},
      {Value(2.0), 2},
      {Value(-3000.0), 3},
      {Value(kTwo53), 9},
      {Value(-kTwo53), 9},
      {Value(kTwo53 + 2.0), 9},
      {Value(0.5), 9},
      {Value(-0.0), 9},
      {Value(std::numeric_limits<double>::infinity()), 9},
      {Value(std::string()), 2},
      {Value(std::string("ab")), 4},
      {Value(std::string(200, 'x')), 203},
  };
  for (const auto& [v, len] : kCases) {
    Serializer s;
    s.PutCompactValue(v);
    EXPECT_EQ(s.size(), len) << v.ToString();
    Deserializer d(s.data());
    Value out;
    ASSERT_TRUE(d.GetCompactValue(&out).ok()) << v.ToString();
    EXPECT_TRUE(out == v) << v.ToString() << " vs " << out.ToString();
    EXPECT_TRUE(d.AtEnd());
    if (v.type() == ValueType::kDouble) {
      EXPECT_EQ(std::signbit(out.AsDouble()), std::signbit(v.AsDouble()));
    }
  }
  Serializer nan;
  nan.PutCompactValue(Value(std::nan("")));
  Deserializer nd(nan.data());
  Value out;
  ASSERT_TRUE(nd.GetCompactValue(&out).ok());
  EXPECT_TRUE(std::isnan(out.AsDouble()));

  // The wire encoding is untouched: fixed-width values.
  Serializer wire;
  wire.PutValue(Value(int64_t{5}));
  EXPECT_EQ(wire.size(), 9u);

  // Unknown tags and integral doubles beyond 2^53 are corruption.
  for (const std::vector<uint8_t>& bytes :
       {std::vector<uint8_t>{5, 0},
        [] {
          Serializer b;
          b.PutU8(kCompactIntegralDouble);
          b.PutSignedVarint((int64_t{1} << 53) + 1);
          return b.Release();
        }()}) {
    Deserializer d(bytes);
    EXPECT_EQ(d.GetCompactValue(&out).code(), StatusCode::kCorruption);
  }
}

TEST(LogRecordTest, CommandRecordRoundTrip) {
  logging::LogRecord rec;
  rec.commit_ts = 99;
  rec.epoch = 3;
  rec.proc = 2;
  rec.params = {Value(int64_t{7}), Value(2.5), Value(std::string("p"))};

  Serializer s;
  logging::SerializeRecord(logging::LogScheme::kCommand, rec, {}, &s);
  Deserializer d(s.data());
  logging::LogRecord out;
  ASSERT_TRUE(
      logging::DeserializeRecord(logging::LogScheme::kCommand, {}, &d, &out)
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
  rec.AddImage(1, 42, {Value(int64_t{1})}, false);
  rec.AddImage(2, 43, {}, true);

  Serializer s;
  logging::SerializeRecord(logging::LogScheme::kCommand, rec, {}, &s);
  Deserializer d(s.data());
  logging::LogRecord out;
  ASSERT_TRUE(
      logging::DeserializeRecord(logging::LogScheme::kCommand, {}, &d, &out)
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
  rec.AddImage(1, 7, {Value(int64_t{5}), Value(2.0)}, false);

  Serializer pl, ll;
  logging::SerializeRecord(logging::LogScheme::kPhysical, rec, {}, &pl);
  logging::SerializeRecord(logging::LogScheme::kLogical, rec, {}, &ll);
  // Physical adds two 8-byte version addresses per write (§6.1.1).
  EXPECT_EQ(pl.size(), ll.size() + 16u);
}

TEST(LogRecordTest, PhysicalAndLogicalRoundTrip) {
  for (auto scheme :
       {logging::LogScheme::kPhysical, logging::LogScheme::kLogical}) {
    logging::LogRecord rec;
    rec.commit_ts = 5;
    rec.epoch = 2;
    rec.AddImage(3, 11, {Value(std::string("row"))}, false);
    Serializer s;
    logging::SerializeRecord(scheme, rec, {}, &s);
    Deserializer d(s.data());
    logging::LogRecord out;
    ASSERT_TRUE(logging::DeserializeRecord(scheme, {}, &d, &out).ok());
    ASSERT_EQ(out.writes.size(), 1u);
    EXPECT_EQ(out.writes[0].table, 3u);
    EXPECT_EQ(out.writes[0].key, 11u);
    Row row;
    out.DecodeImage(out.writes[0], &row);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], Value(std::string("row")));
  }
}

TEST(LogRecordTest, CommandRecordsAreCompact) {
  // A NewOrder-sized call: 23 small integer parameters. Fixed width it
  // took 8 + 8 + 4 + 4 + 23 * 9 = 231 bytes; against its block's bases
  // the TID and epoch take a byte each, proc and count a byte each, and
  // each parameter a tag plus a one-byte zigzag varint.
  logging::LogRecord rec;
  rec.commit_ts = 0x700000123ull;
  rec.epoch = 7;
  rec.proc = 4;
  for (int64_t i = 0; i < 23; ++i) rec.params.push_back(Value(i - 11));
  Serializer s;
  logging::SerializeRecord(logging::LogScheme::kCommand, rec,
                           {rec.commit_ts - 100, rec.epoch}, &s);
  EXPECT_EQ(s.size(), 4u + 23u * 2u);
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
        r.AddImage(static_cast<TableId>(w + 1), static_cast<Key>(100 * i + w),
                   {Value(int64_t{i}), Value(std::string("row")), Value(1.5),
                    Value::Null()},
                   w == 1);
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
      // The same compact row bytes, wherever each record keeps them.
      ASSERT_EQ(a.size, b.size) << i << "/" << w;
      EXPECT_EQ(std::memcmp(got[i].ImageRow(a), want[i].ImageRow(b), a.size),
                0)
          << i << "/" << w;
    }
  }
}

TEST(LogBatchTest, V4BlocksRoundTripEveryRecordField) {
  for (auto scheme : {logging::LogScheme::kPhysical,
                      logging::LogScheme::kLogical,
                      logging::LogScheme::kCommand}) {
    const std::vector<logging::LogRecord> records = AllFieldRecords(scheme);
    for (const logging::LogRecord& r : records) {
      Serializer one;
      logging::SerializeRecord(scheme, r, {}, &one);
      EXPECT_EQ(logging::SerializedRecordBytes(scheme, r, {}), one.size());
    }
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
    EXPECT_EQ(out.min_cts, records[0].commit_ts);
    EXPECT_EQ(out.max_cts, records[4].commit_ts);
    ExpectSameRecords(out.records, records);

    // Garbage collection reads the same interval from the block headers.
    device::SimulatedSsd dev;
    const std::string name = logging::LogStore::BatchFileName(3, 21);
    ASSERT_TRUE(dev.WriteFile(name, file).ok());
    logging::LogBatch cov;
    ASSERT_TRUE(
        logging::LogStore::ReadBatchCoverage(&dev, name, &cov).ok());
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

// Images that the fixed-width writers of formats v2 and v3 produced for a
// two-record CL batch (logger 1, seq 7, epochs 3-4): one native call with
// int/double/string parameters and one ad-hoc record with two row images,
// one a delete. The v3 file was written by two group-commit flushes (file
// header and a block holding the call, then an appended block holding the
// ad-hoc record).
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

const std::vector<uint8_t> kGoldenV3Batch = {
    0x33, 0x43, 0x41, 0x50, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x31, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x2a, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xf8, 0x3f, 0x03, 0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x01, 0x00, 0x00,
    0x00, 0x44, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0x00, 0x06, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
};

// Files of the retired fixed-width formats fail with kCorruption naming the
// file and the format, whether or not the file is the newest of its stream:
// a retired magic is never a torn tail, even when the file is also cut.
TEST(LogBatchTest, RetiredBatchFormatsAreRefused) {
  // v1 is v2 without the header's 16-byte cts interval, under "PACB".
  std::vector<uint8_t> v1 = kGoldenV2Batch;
  v1[0] = 0x42;
  v1.erase(v1.begin() + 32, v1.begin() + 48);
  const std::pair<const char*, const std::vector<uint8_t>*> kRetired[] = {
      {"v1 (PACB)", &v1},
      {"v2 (PAC2)", &kGoldenV2Batch},
      {"v3 (PAC3)", &kGoldenV3Batch},
  };
  const auto expect_refused = [](const Status& s, const std::string& name,
                                 const char* format) {
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_NE(s.message().find(name), std::string::npos) << s.message();
    EXPECT_NE(s.message().find(std::string("retired fixed-width batch "
                                           "format ") +
                               format),
              std::string::npos)
        << s.message();
  };
  for (const auto& [format, image] : kRetired) {
    SCOPED_TRACE(format);
    logging::BatchFile file;
    file.logger = 1;
    file.seq = 7;
    file.name = logging::LogStore::BatchFileName(1, 7);
    for (size_t cut : {size_t{0}, size_t{5}}) {
      for (bool newest : {false, true}) {
        file.newest_in_stream = newest;  // Tolerates a torn tail.
        logging::LogBatch out;
        const Status s = logging::LogStore::ParseBatchFile(
            logging::LogScheme::kCommand, file,
            std::make_shared<const std::vector<uint8_t>>(image->begin(),
                                                         image->end() - cut),
            /*borrow=*/false, &out);
        expect_refused(s, file.name, format);
        EXPECT_TRUE(out.records.empty());
      }
    }

    // Log garbage collection's header-only read refuses it too, and so
    // does recovery's loader beside a v4 successor of the same stream.
    device::SimulatedSsd dev;
    ASSERT_TRUE(dev.WriteFile(file.name, *image).ok());
    logging::LogBatch cov;
    expect_refused(
        logging::LogStore::ReadBatchCoverage(&dev, file.name, &cov),
        file.name, format);
    logging::LogRecord call;
    call.commit_ts = 0x500000002ull;
    call.epoch = 5;
    call.proc = 2;
    call.params = {Value(int64_t{42})};
    logging::LogBatch v4;
    v4.logger_id = 1;
    v4.seq = 8;
    v4.records = {call};
    ASSERT_TRUE(dev.WriteFile(logging::LogStore::BatchFileName(1, 8),
                              logging::LogStore::SerializeBatch(
                                  logging::LogScheme::kCommand, v4))
                    .ok());
    exec::ThreadPool pool(2);
    recovery::PipelinedLogLoader loader(logging::LogScheme::kCommand, {&dev},
                                        &pool, {});
    loader.Start();
    expect_refused(loader.WaitAll(), file.name, format);
  }
}

// Hand-assembled v4 file of one block around `payload`.
std::vector<uint8_t> V4File(uint64_t count, const std::vector<uint8_t>& payload,
                            uint64_t min_cts, uint64_t span,
                            uint64_t base_epoch) {
  Serializer s;
  s.PutU32(0x50414334);  // "PAC4"
  s.PutU32(0);
  s.PutU64(0);
  s.PutVarint(count);
  s.PutVarint(payload.size());
  s.PutVarint(min_cts);
  s.PutVarint(span);
  s.PutVarint(base_epoch);
  s.PutRaw(payload.data(), payload.size());
  return s.Release();
}

TEST(LogBatchTest, V4BlockOfMinimumSizeRecordsParsesStrictly) {
  // 100 parameterless CL calls in one epoch: four bytes each (TID delta,
  // epoch delta, proc, count), well under the fixed-width formats' 20-byte
  // minimum record.
  std::vector<logging::LogRecord> records(100);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].commit_ts = 0x900000000ull + i;
    records[i].epoch = 9;
    records[i].proc = 3;
  }
  size_t payload = 0;
  const std::vector<uint8_t> file = logging::LogStore::SerializeBlock(
      logging::LogScheme::kCommand, 0, 0, /*file_header=*/true,
      records.data(), records.size(), &payload);
  EXPECT_EQ(payload, 4 * records.size());
  logging::LogBatch out;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(
                  logging::LogScheme::kCommand, file,
                  logging::BatchParseOptions{}, &out)
                  .ok());
  ExpectSameRecords(out.records, records);
}

TEST(LogBatchTest, V4MalformedBlocksAreCorruption) {
  const logging::LogScheme cl = logging::LogScheme::kCommand;
  logging::BatchParseOptions strict;
  logging::BatchParseOptions tolerant;
  tolerant.tolerate_torn_tail = true;
  logging::LogBatch out;
  // Well formed: TID delta 1, epoch delta 0, proc 2, no parameters.
  const std::vector<uint8_t> good = V4File(1, {0x01, 0x00, 0x02, 0x00}, 100,
                                           /*span=*/1, /*base_epoch=*/3);
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(cl, good, strict, &out).ok());
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].commit_ts, 101u);
  EXPECT_EQ(out.records[0].epoch, 3u);
  EXPECT_EQ(out.records[0].proc, 2u);

  // A complete block whose record breaks is loud, torn-tail tolerance or
  // not: only a short block can be a tear.
  const std::vector<uint8_t> kBadPayloads[] = {
      {0x81, 0x00, 0x00, 0x02, 0x00},  // Overlong TID delta.
      {0x01, 0x00, 0x02, 0x80},        // Unterminated count.
      {0x02, 0x00, 0x02, 0x00},        // TID beyond the block's interval.
      {0x01, 0x00, 0x02, 0x01, 0x09},  // Unknown value tag.
  };
  for (const std::vector<uint8_t>& payload : kBadPayloads) {
    const std::vector<uint8_t> file = V4File(1, payload, 100, 1, 3);
    for (const logging::BatchParseOptions* opts : {&strict, &tolerant}) {
      EXPECT_EQ(
          logging::LogStore::DeserializeBatch(cl, file, *opts, &out).code(),
          StatusCode::kCorruption)
          << payload.size();
    }
  }

  // The same for a logical record whose one image row breaks: the parse
  // checks rows in place, borrowing or copying, and must still reject
  // each of these without reading past the block.
  const logging::LogScheme ll = logging::LogScheme::kLogical;
  // TID delta 1, epoch delta 0, one image: table 2, key 5, not deleted,
  // then the row.
  const std::vector<uint8_t> kImage = {0x01, 0x00, 0x01, 0x02, 0x05, 0x00};
  const auto ll_file = [&](const std::vector<uint8_t>& row) {
    std::vector<uint8_t> payload = kImage;
    payload.insert(payload.end(), row.begin(), row.end());
    return V4File(1, payload, 100, 1, 3);
  };
  logging::BatchParseOptions borrow_strict;
  borrow_strict.borrow = true;
  logging::BatchParseOptions borrow_tolerant = tolerant;
  borrow_tolerant.borrow = true;
  const logging::BatchParseOptions* const kParses[] = {
      &strict, &tolerant, &borrow_strict, &borrow_tolerant};
  // Well formed: one int64 value, 1.
  for (const logging::BatchParseOptions* opts : kParses) {
    ASSERT_TRUE(logging::LogStore::DeserializeBatch(ll, ll_file({0x01, 0x01,
                                                                 0x02}),
                                                    *opts, &out)
                    .ok());
    ASSERT_EQ(out.records.size(), 1u);
    Row row;
    out.records[0].DecodeImage(out.records[0].writes[0], &row);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], Value(int64_t{1}));
  }
  const std::vector<uint8_t> kBadRows[] = {
      {0x01, 0x09},                    // Unknown value tag.
      {0x01, 0x01, 0x82, 0x00},        // Overlong varint (2 in two bytes).
      {0x01, 0x03, 0x05, 'a', 'b'},    // A string past the block.
      [] {                             // An integral double beyond 2^53.
        Serializer b;
        b.PutVarint(1);
        b.PutU8(kCompactIntegralDouble);
        b.PutSignedVarint(-(int64_t{1} << 53) - 1);
        return b.Release();
      }(),
      {0x05, 0x00},                    // Five values in one byte.
  };
  for (const std::vector<uint8_t>& row : kBadRows) {
    const std::vector<uint8_t> file = ll_file(row);
    for (const logging::BatchParseOptions* opts : kParses) {
      EXPECT_EQ(
          logging::LogStore::DeserializeBatch(ll, file, *opts, &out).code(),
          StatusCode::kCorruption)
          << row.size() << (opts->borrow ? " borrow" : " copy")
          << (opts->tolerate_torn_tail ? " tolerant" : " strict");
    }
  }

  // An overlong varint in a block header (the count, 1 spelled 0x81 0x00).
  std::vector<uint8_t> overlong = good;
  const size_t count_off = logging::LogStore::kFileHeaderBytes;
  ASSERT_EQ(overlong[count_off], 0x01);
  overlong[count_off] = 0x81;
  overlong.insert(overlong.begin() + count_off + 1, 0x00);
  EXPECT_EQ(
      logging::LogStore::DeserializeBatch(cl, overlong, strict, &out).code(),
      StatusCode::kCorruption);
  // A header cut inside its varints is a truncation: loud when strict, a
  // torn tail with nothing kept when tolerated.
  const std::vector<uint8_t> cut(good.begin(), good.begin() + count_off + 2);
  EXPECT_EQ(logging::LogStore::DeserializeBatch(cl, cut, strict, &out).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(
      logging::LogStore::DeserializeBatch(cl, cut, tolerant, &out).ok());
  EXPECT_TRUE(out.torn_tail);
  EXPECT_TRUE(out.records.empty());
}

// Every byte of a small logical batch, flipped three ways: each parse,
// borrowing or copying, strict or tolerating a torn tail, either fails as
// corruption or yields images that install and read back cleanly. Under
// ASan, a row check that let an image run past its block would show here
// as an out-of-bounds read of the exactly sized file buffer.
TEST(LogBatchTest, FlippedLogicalBatchBytesFailOrInstallCleanly) {
  const logging::LogScheme ll = logging::LogScheme::kLogical;
  logging::LogBatch batch;
  for (int i = 0; i < 3; ++i) {
    logging::LogRecord rec;
    rec.commit_ts = 100 + i;
    rec.epoch = 2;
    rec.AddImage(1, static_cast<Key>(i),
                 {Value(int64_t{-i}), Value(0.5 * i),
                  Value(std::string(static_cast<size_t>(i) + 2, 's')),
                  Value::Null(), Value(3.0)},
                 false);
    rec.AddImage(2, static_cast<Key>(10 + i), {}, i == 1);
    batch.records.push_back(std::move(rec));
  }
  const std::vector<uint8_t> file =
      logging::LogStore::SerializeBatch(ll, batch);
  size_t parsed = 0, rejected = 0;
  Row want, got;
  for (size_t i = 0; i < file.size(); ++i) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::vector<uint8_t> bytes = file;
      bytes[i] ^= flip;
      for (const bool borrow : {false, true}) {
        for (const bool tolerate : {false, true}) {
          SCOPED_TRACE("byte " + std::to_string(i) + " ^ " +
                       std::to_string(flip) + (borrow ? " borrow" : "") +
                       (tolerate ? " tolerant" : ""));
          logging::BatchParseOptions opts;
          opts.borrow = borrow;
          opts.tolerate_torn_tail = tolerate;
          logging::LogBatch out;
          const Status s =
              logging::LogStore::DeserializeBatch(ll, bytes, opts, &out);
          if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::kCorruption);
            ++rejected;
            continue;
          }
          ++parsed;
          storage::Table table(0, "t", Schema({{"v", ValueType::kInt64, 0}}));
          for (const logging::LogRecord& rec : out.records) {
            for (const logging::WriteImage& w : rec.writes) {
              rec.DecodeImage(w, &want);
              if (!storage::Table::InstallRowLastWriterWins(
                      table.GetOrCreateSlot(w.key), rec.ImageRow(w), w.size,
                      rec.commit_ts, w.deleted, kInvalidTimestamp)) {
                continue;
              }
              const Status r = table.Read(w.key, kMaxTimestamp, &got);
              if (w.deleted) {
                EXPECT_EQ(r.code(), StatusCode::kNotFound);
              } else {
                ASSERT_TRUE(r.ok());
                EXPECT_EQ(HashRow(got), HashRow(want));
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
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
