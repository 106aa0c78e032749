// Tests for the hash index, tuple version chains, packed version rows,
// Table MVCC semantics and Catalog.
#include "storage/table.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/serializer.h"
#include "logging/log_store.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"

namespace pacman::storage {
namespace {

Schema OneIntSchema() { return Schema({{"v", ValueType::kInt64, 0}}); }
Row IntRow(int64_t v) { return {Value(v)}; }
// The same row in the compact encoding log images carry.
std::vector<uint8_t> CompactIntRow(int64_t v) {
  std::vector<uint8_t> bytes(CompactRowBytes(IntRow(v)));
  EncodeCompactRow(IntRow(v), bytes.data());
  return bytes;
}

// The first column of a version's row, decoded.
int64_t FirstInt(const Version* v) {
  Row row;
  v->ReadRow(&row);
  return row[0].AsInt64();
}

void* Ptr(uint64_t v) { return reinterpret_cast<void*>(v); }

TEST(HashIndexTest, InsertLookup) {
  HashIndex idx;
  int a = 0, b = 0;
  EXPECT_EQ(idx.Lookup(1), nullptr);
  EXPECT_EQ(idx.Insert(1, &a), &a);
  EXPECT_EQ(idx.Insert(1, &b), &a);  // Present: the first value, kept.
  EXPECT_EQ(idx.Lookup(1), &a);
  EXPECT_EQ(idx.Lookup(2), nullptr);
}

// A null value marks an empty entry, so no key value is reserved: 0 and
// ~0 are keys like any other, and a null value is refused.
TEST(HashIndexTest, EdgeKeysAreStorableAndNullValuesAreRefused) {
  HashIndex idx;
  constexpr Key kMax = ~Key{0};
  EXPECT_EQ(idx.Lookup(0), nullptr);
  EXPECT_EQ(idx.Lookup(kMax), nullptr);
  EXPECT_EQ(idx.Insert(0, Ptr(1)), Ptr(1));
  EXPECT_EQ(idx.Insert(kMax, Ptr(2)), Ptr(2));
  EXPECT_EQ(idx.Insert(0, Ptr(3)), Ptr(1));
  EXPECT_EQ(idx.Lookup(0), Ptr(1));
  EXPECT_EQ(idx.Lookup(kMax), Ptr(2));
  EXPECT_EQ(idx.Lookup(1), nullptr);
  EXPECT_DEATH(idx.Insert(7, nullptr), "non-null");
}

// The index places a key by its product with 0x9e3779b97f4a7c15: the top
// bits pick the latch shard, the bits below them the first entry probed.
// Keys whose products differ only in their low bits therefore share both,
// at every table size, and pile into one probe run that each doubling
// rehashes. Every key of the run stays reachable, and a miss that shares
// the run's start walks to its end.
TEST(HashIndexTest, KeysSharingShardAndProbeStartStayReachable) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t inverse = kMul;  // Newton's iteration for kMul^-1 mod 2^64.
  for (int i = 0; i < 5; ++i) inverse *= 2 - kMul * inverse;
  ASSERT_EQ(kMul * inverse, 1u);
  constexpr int kRun = 300;
  // Products (0xdeadbeef << 32) + j, j < 2 * kRun: equal above bit 10.
  const auto key = [inverse](uint64_t j) {
    return ((uint64_t{0xdeadbeef} << 32) + j) * inverse;
  };
  for (uint32_t shards : {1u, 64u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    HashIndex idx(shards);
    ASSERT_EQ(idx.Insert(0, Ptr(1)), Ptr(1));  // A neighbour outside the run.
    for (uint64_t j = 0; j < kRun; ++j) {
      ASSERT_EQ(idx.Insert(key(j), Ptr(j + 2)), Ptr(j + 2));
      ASSERT_EQ(idx.Lookup(key(j / 2)), Ptr(j / 2 + 2));
    }
    for (uint64_t j = 0; j < kRun; ++j) {
      ASSERT_EQ(idx.Insert(key(j), Ptr(7)), Ptr(j + 2));
      ASSERT_EQ(idx.Lookup(key(j)), Ptr(j + 2));
      ASSERT_EQ(idx.Lookup(key(kRun + j)), nullptr);
    }
    EXPECT_EQ(idx.Lookup(0), Ptr(1));
  }
}

// A duplicate insert takes the shard's exclusive latch like any insert
// but stores nothing: it must keep the first value and release the latch,
// or the inserts after it would spin forever.
TEST(HashIndexTest, DuplicateInsertsKeepFirstValueAndReleaseLatch) {
  HashIndex idx;
  const uint64_t n = 10000;
  // 7919 is prime to n, so this visits every key once, scattered.
  for (uint64_t i = 0; i < n; ++i) {
    const Key k = i * 7919 % n;
    ASSERT_EQ(idx.Insert(k, Ptr(k + 1)), Ptr(k + 1));
  }
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_EQ(idx.Insert(k, Ptr(k + 7)), Ptr(k + 1));
  }
  for (uint64_t k = 0; k < n; ++k) ASSERT_EQ(idx.Lookup(k), Ptr(k + 1));
  for (uint64_t k = n; k < 2 * n; ++k) {
    ASSERT_EQ(idx.Insert(k, Ptr(k + 1)), Ptr(k + 1));
  }
  for (uint64_t k = 0; k < 2 * n; ++k) ASSERT_EQ(idx.Lookup(k), Ptr(k + 1));
}

// Inserts 10000 keys in the order `key_of(0)`, `key_of(1)`, ... into a
// one-shard and a 64-shard index. Whenever the count reaches a power of
// two (for one shard, each time just after a doubling), every key
// inserted so far is still found with its value, and the next is not.
template <typename KeyOf>
void CheckGrowthPreservesKeysInOrder(KeyOf key_of) {
  constexpr uint64_t n = 10000;
  for (uint32_t shards : {1u, 64u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    HashIndex idx(shards);
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(idx.Insert(key_of(i), Ptr(i + 1)), Ptr(i + 1));
      if (!std::has_single_bit(i + 1)) continue;
      for (uint64_t j = 0; j <= i; ++j) {
        ASSERT_EQ(idx.Lookup(key_of(j)), Ptr(j + 1)) << "after " << i + 1;
      }
      ASSERT_EQ(idx.Lookup(key_of(i + 1)), nullptr) << "after " << i + 1;
    }
    for (uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(idx.Lookup(key_of(j)), Ptr(j + 1));
    }
  }
}

// A dense id range from 0, as the workloads load it.
TEST(HashIndexTest, GrowthPreservesAllKeysAscending) {
  CheckGrowthPreservesKeysInOrder([](uint64_t i) { return Key{i}; });
}

// Keys from ~0 down: the top of the key range, whose products with the
// multiplier wrap.
TEST(HashIndexTest, GrowthPreservesAllKeysDescending) {
  CheckGrowthPreservesKeysInOrder([](uint64_t i) { return ~Key{0} - i; });
}

// Random interleavings of inserts and lookups against a std::unordered_map
// model. Half the keys are dense (many duplicates), half random 64-bit
// values (nearly all misses); four latch shards each double about ten
// times.
class HashIndexModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashIndexModelTest, MatchesModel) {
  Rng rng(GetParam());
  HashIndex idx(4);
  std::unordered_map<Key, void*> model;
  for (uint64_t i = 0; i < 40000; ++i) {
    const Key k = rng.Bernoulli(0.5) ? rng.Uniform(0, 8000) : rng.Next();
    if (rng.Bernoulli(0.5)) {
      ASSERT_EQ(idx.Insert(k, Ptr(i + 1)),
                model.emplace(k, Ptr(i + 1)).first->second)
          << "key " << k;
    } else {
      auto it = model.find(k);
      ASSERT_EQ(idx.Lookup(k), it == model.end() ? nullptr : it->second)
          << "key " << k;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(idx.Lookup(k), v) << "key " << k;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashIndexModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 99, 123,
                                           31337));

// Readers look keys up while two writers insert disjoint keys that double
// the two shards many times: a present key is always found with its value,
// and a key being inserted reads as absent or as its value, never as
// another's.
TEST(HashIndexTest, ReadersDuringGrowingInserts) {
  HashIndex idx(2);
  constexpr uint64_t kKeys = 40000;
  for (uint64_t k = 0; k < kKeys; k += 4) {
    ASSERT_EQ(idx.Insert(k, Ptr(k + 1)), Ptr(k + 1));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(r + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key present = rng.Uniform(0, kKeys - 1) & ~Key{3};
        ASSERT_EQ(idx.Lookup(present), Ptr(present + 1));
        const Key racing = rng.Uniform(0, kKeys - 1) | 1;
        void* v = idx.Lookup(racing);
        ASSERT_TRUE(v == nullptr || v == Ptr(racing + 1)) << "key " << racing;
      }
    });
  }
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w]() {
      // Writer 0 inserts keys = 1 mod 4, writer 1 keys = 3 mod 4.
      for (uint64_t k = 1 + 2 * w; k < kKeys; k += 4) {
        ASSERT_EQ(idx.Insert(k, Ptr(k + 1)), Ptr(k + 1));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(idx.Lookup(k), k % 2 == 0 && k % 4 != 0 ? nullptr : Ptr(k + 1))
        << "key " << k;
  }
}

// Four threads insert disjoint key ranges at once, so every latch shard
// doubles about eight times under inserts from several threads: each
// insert succeeds and every key keeps its own value.
TEST(HashIndexTest, ParallelDisjointInserts) {
  HashIndex idx;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const Key k = static_cast<Key>(t) * kPerThread + i;
        ASSERT_EQ(idx.Insert(k, Ptr(k + 1)), Ptr(k + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(idx.Lookup(k), Ptr(k + 1)) << "key " << k;
  }
  EXPECT_EQ(idx.Lookup(kThreads * kPerThread), nullptr);
}

// Threads race to insert the same keys under the shard latches: every key
// has exactly one winner, the index keeps the winner's value, and every
// loser is handed it.
TEST(HashIndexTest, RacingInsertsOfOneKeyHaveOneWinner) {
  HashIndex idx;
  constexpr int kThreads = 4;
  constexpr Key kKeys = 20000;
  int token[kThreads] = {};
  std::vector<std::vector<uint8_t>> won(kThreads,
                                        std::vector<uint8_t>(kKeys, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (Key i = 0; i < kKeys; ++i) {
        const Key k = t % 2 == 0 ? i : kKeys - 1 - i;
        void* mapped = idx.Insert(k, &token[t]);
        if (mapped == &token[t]) won[t][k] = 1;
        ASSERT_EQ(idx.Lookup(k), mapped) << "key " << k;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (Key k = 0; k < kKeys; ++k) {
    int winners = 0;
    int winner = 0;
    for (int t = 0; t < kThreads; ++t) {
      if (won[t][k] != 0) {
        winners++;
        winner = t;
      }
    }
    ASSERT_EQ(winners, 1) << "key " << k;
    ASSERT_EQ(idx.Lookup(k), &token[winner]) << "key " << k;
  }
  EXPECT_EQ(idx.Lookup(kKeys), nullptr);
}

TEST(TupleSlotTest, VisibilityWalksChain) {
  Table t(0, "t", OneIntSchema());
  t.LoadRow(1, IntRow(10), 5);
  TupleSlot* slot = t.GetSlot(1);
  ASSERT_NE(slot, nullptr);
  Table::InstallVersionUnlatched(slot, IntRow(20), 8, false,
                                 kInvalidTimestamp);
  Table::InstallVersionUnlatched(slot, IntRow(30), 12, false,
                                 kInvalidTimestamp);

  EXPECT_EQ(slot->VisibleAt(4), nullptr);  // Before load.
  EXPECT_EQ(FirstInt(slot->VisibleAt(5)), 10);
  EXPECT_EQ(FirstInt(slot->VisibleAt(7)), 10);
  EXPECT_EQ(FirstInt(slot->VisibleAt(8)), 20);
  EXPECT_EQ(FirstInt(slot->VisibleAt(11)), 20);
  EXPECT_EQ(FirstInt(slot->VisibleAt(kMaxTimestamp)), 30);
}

// Value bits as the fixed-width encoding stores them.
uint64_t Bits(const Value& v) {
  uint64_t bits = 0;
  if (v.type() == ValueType::kInt64) {
    const int64_t i = v.AsInt64();
    std::memcpy(&bits, &i, sizeof(bits));
  } else if (v.type() == ValueType::kDouble) {
    const double d = v.AsDouble();
    std::memcpy(&bits, &d, sizeof(bits));
  }
  return bits;
}

// A version stores its row packed, tags included, so nothing the engine
// can hold is lost: whatever a writer puts in (schemas are not enforced
// on writes) reads back with the same type and the same bits, whether it
// was installed from a Row or copied from a log image's compact row.
TEST(PackedRowTest, EveryValueTypeRoundTripsExactly) {
  double nan_with_payload;
  const uint64_t nan_bits = 0x7ff4000000abcdefull;  // Signalling, payload.
  std::memcpy(&nan_with_payload, &nan_bits, sizeof(nan_bits));
  const std::string long_string(5000, 'x');
  // A string borrowed from a buffer that is overwritten before the read,
  // the way a command's string parameters view their log batch.
  std::string replay_buffer = "borrowed from a replayed row";
  const Row row = {Value::Null(),
                   Value(std::numeric_limits<int64_t>::min()),
                   Value(std::numeric_limits<int64_t>::max()),
                   Value(-0.0),
                   Value(nan_with_payload),
                   Value(std::string()),
                   Value(long_string),
                   Value(int64_t{42}),  // An int64 in a "double" column.
                   Value::BorrowedString(replay_buffer),
                   Value(-9007199254740992.0),  // Compact: an integral double.
                   Value(3.0)};
  const std::string replayed = replay_buffer;
  const uint64_t want_hash = HashRow(row);
  std::vector<uint8_t> compact(CompactRowBytes(row));
  EncodeCompactRow(row, compact.data());
  size_t compact_size = 0;
  ASSERT_TRUE(
      CheckCompactRow(compact.data(), compact.size(), &compact_size).ok());
  EXPECT_EQ(compact_size, compact.size());

  Table t(0, "t", OneIntSchema());
  t.LoadRow(1, row, 1);
  Table::InstallVersionUnlatched(t.GetOrCreateSlot(2), row, 3, false,
                                 kInvalidTimestamp);
  Table::InstallRowUnlatched(t.GetOrCreateSlot(3), compact.data(),
                             compact.size(), 3, false, kInvalidTimestamp);
  replay_buffer.assign(replay_buffer.size(), '?');  // The buffer moves on.

  for (Key key : {Key{1}, Key{2}, Key{3}}) {
    Row out = {Value(std::string(64, 'y'))};  // Stale capacity to reuse.
    ASSERT_TRUE(t.Read(key, kMaxTimestamp, &out).ok());
    ASSERT_EQ(out.size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      SCOPED_TRACE("value " + std::to_string(i));
      ASSERT_EQ(out[i].type(), row[i].type());
      EXPECT_FALSE(out[i].is_borrowed());
      EXPECT_EQ(Bits(out[i]), Bits(row[i]));
    }
    EXPECT_EQ(out[5].AsStringView(), "");
    EXPECT_EQ(out[6].AsStringView(), long_string);
    EXPECT_EQ(out[8].AsStringView(), replayed);
    EXPECT_EQ(HashRow(out), want_hash);
  }
  // Every version holds exactly the bytes EncodeCompactRow writes.
  for (Key key : {Key{1}, Key{2}, Key{3}}) {
    const Version* v = t.GetSlot(key)->VisibleAt(kMaxTimestamp);
    ASSERT_EQ(v->row_size(), compact.size());
    EXPECT_EQ(std::memcmp(v->row(), compact.data(), compact.size()), 0);
  }
  // And the compact row decodes to the same values.
  Row decoded = {Value(std::string(64, 'y'))};
  DecodeCompactRow(compact.data(), &decoded);
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i].type(), row[i].type()) << i;
    EXPECT_EQ(Bits(decoded[i]), Bits(row[i])) << i;
  }
  EXPECT_EQ(decoded[6].AsStringView(), long_string);
  EXPECT_EQ(decoded[8].AsStringView(), replayed);
}

// Checkpoint restore and log replay copy rows they have only checked, so
// the check must refuse every cut and every bad tag.
TEST(PackedRowTest, CheckCompactRowRejectsBadTagsAndCutRows) {
  const Row row = {Value(int64_t{7}), Value(std::string("abc")), Value(1.5),
                   Value(2.0)};
  std::vector<uint8_t> bytes(CompactRowBytes(row));
  EncodeCompactRow(row, bytes.data());
  size_t size = 0;
  ASSERT_TRUE(CheckCompactRow(bytes.data(), bytes.size(), &size).ok());
  EXPECT_EQ(size, bytes.size());
  EXPECT_EQ(CompactRowSize(bytes.data()), bytes.size());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(CheckCompactRow(bytes.data(), cut, &size).code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
  }
  // The tags: count, int64 tag + 1-byte varint, string tag + length +
  // "abc", double tag + 8 bytes, integral-double tag + 1-byte varint.
  for (size_t at : {size_t{1}, size_t{3}, size_t{8}, size_t{17}}) {
    for (uint8_t bad : {uint8_t{5}, uint8_t{9}, uint8_t{0x7f}, uint8_t{0xff}}) {
      std::vector<uint8_t> damaged = bytes;
      damaged[at] = bad;
      EXPECT_EQ(CheckCompactRow(damaged.data(), damaged.size(), &size).code(),
                StatusCode::kCorruption)
          << "tag " << int{bad} << " at " << at;
    }
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PACMAN_SANITIZED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PACMAN_SANITIZED_MALLOC 1
#endif
#endif

// Heap bytes per row of a table of one-double rows: slot, version and
// index entry. Before versions were packed and slots lost their
// cache-line latch this read about 400; with fixed-width version rows,
// whose 30-byte versions take 48-byte chunks, about 117.5; with an
// unordered_map index (a 32-byte node and a bucket pointer per key)
// about 101.5. A compact balance row fits the version struct's tail
// padding, a 32-byte chunk, and a flat index entry is 16 bytes at 7/16
// to 7/8 load.
TEST(PackedRowTest, HeapBytesPerRowStaySmall) {
#ifdef PACMAN_SANITIZED_MALLOC
  GTEST_SKIP() << "sanitizer allocators replace malloc";
#else
  constexpr int kRows = 100000;
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap_bytes();
  {
    Table t(0, "t", Schema({{"balance", ValueType::kDouble, 0}}));
    for (int k = 0; k < kRows; ++k) {
      t.LoadRow(static_cast<Key>(k), {Value(1000.0 + k)}, 1);
    }
    const double per_row = (heap_bytes() - before) / kRows;
    std::printf("heap bytes per row: %.1f\n", per_row);
    EXPECT_LE(per_row, 90.0);
  }
#endif
}

// Heap bytes a zero-copy parse adds per write image of a logical batch of
// 10-column rows, 16 images to a record, beyond the file buffer it keeps:
// the record's share and the image itself, since rows stay in the file.
// When each image decoded its row into 56-byte Values this read about 620.
TEST(PackedRowTest, HeapBytesPerParsedImageStaySmall) {
#ifdef PACMAN_SANITIZED_MALLOC
  GTEST_SKIP() << "sanitizer allocators replace malloc";
#else
  constexpr int kRecords = 2000;
  constexpr int kImages = 16;
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  std::shared_ptr<const std::vector<uint8_t>> file;
  {
    logging::LogBatch batch;
    for (int r = 0; r < kRecords; ++r) {
      logging::LogRecord rec;
      rec.commit_ts = 100 + r;
      rec.epoch = 1;
      for (int i = 0; i < kImages; ++i) {
        const int64_t k = r * kImages + i;
        rec.AddImage(1, static_cast<Key>(k),
                     {Value(k), Value(int64_t{7}), Value(int64_t{-3}),
                      Value(int64_t{1000}), Value(0.25), Value(12.5),
                      Value(3.0), Value(std::string("abcdefghij")),
                      Value(std::string("0123456789abcdef")), Value::Null()},
                     false);
      }
      batch.records.push_back(std::move(rec));
    }
    file = std::make_shared<const std::vector<uint8_t>>(
        logging::LogStore::SerializeBatch(logging::LogScheme::kLogical,
                                          batch));
  }
  const double before = heap_bytes();
  logging::LogBatch parsed;
  logging::BatchParseOptions opts;
  opts.borrow = true;
  ASSERT_TRUE(logging::LogStore::DeserializeBatch(logging::LogScheme::kLogical,
                                                  file, opts, &parsed)
                  .ok());
  ASSERT_EQ(parsed.records.size(), static_cast<size_t>(kRecords));
  const double per_image =
      (heap_bytes() - before) / (kRecords * kImages);
  std::printf("heap bytes per parsed image: %.1f\n", per_image);
  EXPECT_LE(per_image, 40.0);
#endif
}

TEST(TableTest, ReadRespectsTimestampsAndTombstones) {
  Table t(0, "t", OneIntSchema());
  t.LoadRow(7, IntRow(1), 2);
  TupleSlot* slot = t.GetSlot(7);
  Table::InstallVersionUnlatched(slot, {}, 6, /*deleted=*/true,
                                 kInvalidTimestamp);

  Row out;
  EXPECT_TRUE(t.Read(7, 3, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 1);
  EXPECT_EQ(t.Read(7, 6, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.Read(8, 100, &out).code(), StatusCode::kNotFound);
}

TEST(TableTest, LastWriterWinsDropsStaleWrites) {
  Table t(0, "t", OneIntSchema());
  TupleSlot* slot = t.GetOrCreateSlot(1);
  const auto install = [slot](int64_t v, Timestamp ts) {
    const std::vector<uint8_t> row = CompactIntRow(v);
    return Table::InstallRowLastWriterWins(slot, row.data(), row.size(), ts,
                                           false, kInvalidTimestamp);
  };
  EXPECT_TRUE(install(30, 12));
  EXPECT_FALSE(install(20, 8));  // Stale: dropped.
  EXPECT_EQ(FirstInt(slot->VisibleAt(kMaxTimestamp)), 30);
  EXPECT_TRUE(install(40, 15));
  EXPECT_EQ(FirstInt(slot->VisibleAt(kMaxTimestamp)), 40);
}

// Every install frees the versions below the newest one at or below its
// horizon: kInvalidTimestamp keeps them all, a horizon below every version
// frees none, and a horizon at the install's own timestamp (tuple replay)
// leaves the new version alone. A dropped last-writer-wins install frees
// nothing.
TEST(TableTest, InstallsFreeVersionsBelowTheHorizon) {
  Table t(0, "t", OneIntSchema());
  t.LoadRow(1, IntRow(10), 2);
  TupleSlot* slot = t.GetSlot(1);
  Table::InstallVersionUnlatched(slot, IntRow(20), 5, false, kInvalidTimestamp);
  Table::InstallVersionUnlatched(slot, IntRow(30), 8, false, /*horizon=*/1);
  EXPECT_EQ(t.NumVersions(), 3u);  // Nothing at or below 1: none freed.

  // Keeps 5 (the newest at or below 6), frees 2.
  Table::InstallVersionUnlatched(slot, IntRow(40), 12, false, /*horizon=*/6);
  EXPECT_EQ(t.NumVersions(), 3u);
  EXPECT_EQ(FirstInt(slot->VisibleAt(6)), 20);
  EXPECT_EQ(FirstInt(slot->VisibleAt(11)), 30);
  EXPECT_EQ(FirstInt(slot->VisibleAt(kMaxTimestamp)), 40);
  EXPECT_EQ(slot->VisibleAt(6)->older, nullptr);

  // A horizon at the newest version's own timestamp keeps it alone.
  const std::vector<uint8_t> row = CompactIntRow(50);
  Table::InstallRowUnlatched(slot, row.data(), row.size(), 15, false,
                             /*horizon=*/15);
  EXPECT_EQ(t.NumVersions(), 1u);
  EXPECT_EQ(slot->newest.load()->older, nullptr);
  EXPECT_EQ(OccStampLock::TsOf(slot->wlock.Load()), 15u);

  // Last-writer-wins: a dropped write frees nothing, a winner reclaims.
  Table::InstallVersionUnlatched(slot, IntRow(60), 18, false,
                                 kInvalidTimestamp);
  EXPECT_FALSE(Table::InstallRowLastWriterWins(slot, row.data(), row.size(),
                                               16, false, /*horizon=*/16));
  EXPECT_EQ(t.NumVersions(), 2u);
  EXPECT_TRUE(Table::InstallRowLastWriterWins(slot, row.data(), row.size(),
                                              20, false, /*horizon=*/20));
  EXPECT_EQ(t.NumVersions(), 1u);
  EXPECT_FALSE(OccStampLock::IsLocked(slot->wlock.Load()));
  EXPECT_EQ(OccStampLock::TsOf(slot->wlock.Load()), 20u);
}

// Four threads create slots for overlapping key ranges at once, racing on
// every key of the overlap: each key gets exactly one slot, which every
// creator is handed, and no lane keeps a slot for a lost race.
TEST(TableTest, RacingSlotCreationMakesOneSlotPerKey) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Table t(0, "t", OneIntSchema(), shards);
    constexpr int kThreads = 4;
    constexpr Key kPerThread = 20000;
    constexpr Key kStride = kPerThread / 2;  // Neighbours share half.
    std::vector<std::vector<TupleSlot*>> got(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&t, &got, i] {
        const Key first = static_cast<Key>(i) * kStride;
        for (Key k = 0; k < kPerThread; ++k) {
          // Alternate directions so racers meet across the whole overlap.
          const Key key = first + (i % 2 == 0 ? k : kPerThread - 1 - k);
          got[i].push_back(t.GetOrCreateSlot(key));
        }
      });
    }
    for (auto& th : threads) th.join();
    const Key distinct = (kThreads - 1) * kStride + kPerThread;
    EXPECT_EQ(t.NumKeys(), distinct);
    for (int i = 0; i < kThreads; ++i) {
      const Key first = static_cast<Key>(i) * kStride;
      for (Key k = 0; k < kPerThread; ++k) {
        const Key key = first + (i % 2 == 0 ? k : kPerThread - 1 - k);
        ASSERT_EQ(got[i][k], t.GetSlot(key)) << "key " << key;
        ASSERT_EQ(got[i][k]->key, key);
      }
    }
    uint64_t slots = 0;
    t.ForEachSlot([&](TupleSlot* slot) {
      EXPECT_EQ(t.GetSlot(slot->key), slot) << "key " << slot->key;
      ++slots;
    });
    EXPECT_EQ(slots, distinct);
  }
}

// Four threads load keys while a fifth repeats the checkpoint's walk
// (ForEachSlot): every slot a walk visits is initialized and visited once,
// and the walk after the loaders finish sees every key exactly once.
TEST(TableTest, WalkRacingSlotCreationSeesInitializedSlotsOnce) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Table t(0, "t", OneIntSchema(), shards);
    constexpr int kThreads = 4;
    constexpr Key kPerThread = 20000;
    constexpr Key kKeys = kThreads * kPerThread;
    // Keys start at 1: a slot's key reads 0 until it is initialized.
    std::vector<uint8_t> seen(kKeys + 1);
    uint64_t uninitialized = 0;
    uint64_t repeats = 0;
    auto walk = [&] {
      std::fill(seen.begin(), seen.end(), 0);
      t.ForEachSlot([&](TupleSlot* slot) {
        if (slot->key < 1 || slot->key > kKeys) {
          ++uninitialized;
          return;
        }
        if (seen[slot->key]++ != 0) ++repeats;
        const Version* v = slot->VisibleAt(5);
        if (v != nullptr && v->begin_ts != 1) ++uninitialized;
      });
    };
    std::atomic<int> loading{kThreads};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&t, &loading, i] {
        for (Key k = 1; k <= kPerThread; ++k) {
          t.LoadRow(static_cast<Key>(i) * kPerThread + k,
                    IntRow(static_cast<int64_t>(k)), 1);
        }
        loading.fetch_sub(1);
      });
    }
    uint64_t walks = 0;
    std::thread walker([&] {
      do {
        walk();
        ++walks;
      } while (loading.load() > 0);
    });
    for (auto& th : threads) th.join();
    walker.join();
    EXPECT_GT(walks, 0u);
    walk();
    EXPECT_EQ(uninitialized, 0u);
    EXPECT_EQ(repeats, 0u);
    for (Key k = 1; k <= kKeys; ++k) ASSERT_EQ(seen[k], 1) << "key " << k;
    EXPECT_EQ(t.NumKeys(), kKeys);
    EXPECT_EQ(t.VisibleCount(5), kKeys);
  }
}

TEST(TableTest, ContentHashDetectsDifferencesAndIgnoresOrder) {
  Table a(0, "a", OneIntSchema());
  Table b(1, "b", OneIntSchema());
  a.LoadRow(1, IntRow(10), 1);
  a.LoadRow(2, IntRow(20), 1);
  b.LoadRow(2, IntRow(20), 1);  // Different load order.
  b.LoadRow(1, IntRow(10), 1);
  EXPECT_EQ(a.ContentHash(5), b.ContentHash(5));

  Table c(2, "c", OneIntSchema());
  c.LoadRow(1, IntRow(10), 1);
  c.LoadRow(2, IntRow(21), 1);
  EXPECT_NE(a.ContentHash(5), c.ContentHash(5));
}

TEST(TableTest, ContentHashIsTimestampSensitive) {
  Table t(0, "t", OneIntSchema());
  t.LoadRow(1, IntRow(10), 1);
  uint64_t h1 = t.ContentHash(1);
  Table::InstallVersionUnlatched(t.GetSlot(1), IntRow(11), 5, false,
                                 kInvalidTimestamp);
  EXPECT_EQ(t.ContentHash(1), h1);  // Old snapshot unchanged.
  EXPECT_NE(t.ContentHash(5), h1);
}

TEST(TableTest, ResetDropsEverything) {
  Table t(0, "t", OneIntSchema());
  t.LoadRow(1, IntRow(10), 1);
  t.Reset();
  EXPECT_EQ(t.NumKeys(), 0u);
  EXPECT_EQ(t.GetSlot(1), nullptr);
  // Usable after reset.
  t.LoadRow(1, IntRow(11), 1);
  Row out;
  ASSERT_TRUE(t.Read(1, 2, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 11);
}

TEST(CatalogTest, CreateAndResolveTables) {
  Catalog c;
  Table* t1 = c.CreateTable("alpha", OneIntSchema());
  Table* t2 = c.CreateTable("beta", OneIntSchema());
  EXPECT_EQ(c.tables().size(), 2u);
  EXPECT_EQ(c.GetTable("alpha"), t1);
  EXPECT_EQ(c.GetTable(t2->id()), t2);
  EXPECT_EQ(c.GetTable("gamma"), nullptr);
  EXPECT_EQ(c.GetTableId("beta"), t2->id());
  EXPECT_EQ(c.GetTableId("nope"), kInvalidTableId);
}

TEST(CatalogTest, ContentHashCoversAllTables) {
  Catalog c;
  c.CreateTable("a", OneIntSchema());
  c.CreateTable("b", OneIntSchema());
  uint64_t empty = c.ContentHash(1);
  c.GetTable("b")->LoadRow(1, IntRow(5), 1);
  EXPECT_NE(c.ContentHash(1), empty);
  c.ResetAllTables();
  EXPECT_EQ(c.ContentHash(1), empty);
}

}  // namespace
}  // namespace pacman::storage
