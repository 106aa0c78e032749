// Tests for tuple version chains, Table MVCC semantics and Catalog.
#include "storage/table.h"

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/hash_index.h"

namespace pacman::storage {
namespace {

Schema OneIntSchema() { return Schema({{"v", ValueType::kInt64, 0}}); }
Row IntRow(int64_t v) { return {Value(v)}; }

TEST(HashIndexTest, InsertLookupUpsert) {
  HashIndex idx;
  int a = 0, b = 0;
  EXPECT_TRUE(idx.Insert(1, &a));
  EXPECT_FALSE(idx.Insert(1, &b));
  EXPECT_EQ(idx.Lookup(1), &a);
  EXPECT_EQ(idx.Upsert(1, &b), &a);
  EXPECT_EQ(idx.Lookup(1), &b);
  EXPECT_EQ(idx.Lookup(2), nullptr);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(TupleSlotTest, VisibilityWalksChain) {
  Table t(0, "t", OneIntSchema(), IndexType::kHash);
  t.LoadRow(1, IntRow(10), 5);
  TupleSlot* slot = t.GetSlot(1);
  ASSERT_NE(slot, nullptr);
  Table::InstallVersionLatched(slot, IntRow(20), 8);
  Table::InstallVersionLatched(slot, IntRow(30), 12);

  EXPECT_EQ(slot->VisibleAt(4), nullptr);  // Before load.
  EXPECT_EQ(slot->VisibleAt(5)->data[0].AsInt64(), 10);
  EXPECT_EQ(slot->VisibleAt(7)->data[0].AsInt64(), 10);
  EXPECT_EQ(slot->VisibleAt(8)->data[0].AsInt64(), 20);
  EXPECT_EQ(slot->VisibleAt(11)->data[0].AsInt64(), 20);
  EXPECT_EQ(slot->VisibleAt(kMaxTimestamp)->data[0].AsInt64(), 30);
  // end_ts chain is maintained.
  EXPECT_EQ(slot->VisibleAt(5)->end_ts, 8u);
}

TEST(TableTest, ReadRespectsTimestampsAndTombstones) {
  Table t(0, "t", OneIntSchema(), IndexType::kBPlusTree);
  t.LoadRow(7, IntRow(1), 2);
  TupleSlot* slot = t.GetSlot(7);
  Table::InstallVersionLatched(slot, {}, 6, /*deleted=*/true);

  Row out;
  EXPECT_TRUE(t.Read(7, 3, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 1);
  EXPECT_EQ(t.Read(7, 6, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.Read(8, 100, &out).code(), StatusCode::kNotFound);
}

TEST(TableTest, LastWriterWinsDropsStaleWrites) {
  Table t(0, "t", OneIntSchema(), IndexType::kHash);
  TupleSlot* slot = t.GetOrCreateSlot(1);
  Table::InstallLastWriterWins(slot, IntRow(30), 12);
  Table::InstallLastWriterWins(slot, IntRow(20), 8);  // Stale: dropped.
  EXPECT_EQ(slot->VisibleAt(kMaxTimestamp)->data[0].AsInt64(), 30);
  Table::InstallLastWriterWins(slot, IntRow(40), 15);
  EXPECT_EQ(slot->VisibleAt(kMaxTimestamp)->data[0].AsInt64(), 40);
}

TEST(TableTest, ScanFromVisibleOnly) {
  Table t(0, "t", OneIntSchema(), IndexType::kBPlusTree);
  for (Key k = 0; k < 10; ++k) t.LoadRow(k, IntRow(k * 10), 1);
  Table::InstallVersionLatched(t.GetSlot(4), {}, 2, /*deleted=*/true);

  std::vector<Key> keys;
  t.ScanFrom(2, 5, [&](Key k, const Row& row) {
    EXPECT_EQ(row[0].AsInt64(), static_cast<int64_t>(k * 10));
    keys.push_back(k);
    return true;
  });
  // Key 4 is deleted at ts 2, so it is invisible at ts 5.
  EXPECT_EQ(keys, (std::vector<Key>{2, 3, 5, 6, 7, 8, 9}));
}

TEST(TableTest, ContentHashDetectsDifferencesAndIgnoresOrder) {
  Table a(0, "a", OneIntSchema(), IndexType::kHash);
  Table b(1, "b", OneIntSchema(), IndexType::kHash);
  a.LoadRow(1, IntRow(10), 1);
  a.LoadRow(2, IntRow(20), 1);
  b.LoadRow(2, IntRow(20), 1);  // Different load order.
  b.LoadRow(1, IntRow(10), 1);
  EXPECT_EQ(a.ContentHash(5), b.ContentHash(5));

  Table c(2, "c", OneIntSchema(), IndexType::kHash);
  c.LoadRow(1, IntRow(10), 1);
  c.LoadRow(2, IntRow(21), 1);
  EXPECT_NE(a.ContentHash(5), c.ContentHash(5));
}

TEST(TableTest, ContentHashIsTimestampSensitive) {
  Table t(0, "t", OneIntSchema(), IndexType::kHash);
  t.LoadRow(1, IntRow(10), 1);
  uint64_t h1 = t.ContentHash(1);
  Table::InstallVersionLatched(t.GetSlot(1), IntRow(11), 5);
  EXPECT_EQ(t.ContentHash(1), h1);  // Old snapshot unchanged.
  EXPECT_NE(t.ContentHash(5), h1);
}

TEST(TableTest, ResetDropsEverything) {
  Table t(0, "t", OneIntSchema(), IndexType::kBPlusTree);
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
  Table* t2 = c.CreateTable("beta", OneIntSchema(), IndexType::kHash);
  EXPECT_EQ(c.tables().size(), 2u);
  EXPECT_EQ(c.GetTable("alpha"), t1);
  EXPECT_EQ(c.GetTable(t2->id()), t2);
  EXPECT_EQ(c.GetTable("gamma"), nullptr);
  EXPECT_EQ(c.GetTableId("beta"), t2->id());
  EXPECT_EQ(c.GetTableId("nope"), kInvalidTableId);
}

TEST(CatalogTest, ContentHashCoversAllTables) {
  Catalog c;
  c.CreateTable("a", OneIntSchema(), IndexType::kHash);
  c.CreateTable("b", OneIntSchema(), IndexType::kHash);
  uint64_t empty = c.ContentHash(1);
  c.GetTable("b")->LoadRow(1, IntRow(5), 1);
  EXPECT_NE(c.ContentHash(1), empty);
  c.ResetAllTables();
  EXPECT_EQ(c.ContentHash(1), empty);
}

}  // namespace
}  // namespace pacman::storage
