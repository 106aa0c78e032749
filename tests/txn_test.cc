// Tests for the epoch manager and optimistic transaction manager.
#include "txn/transaction_manager.h"

#include <gtest/gtest.h>

#include <thread>

#include "storage/catalog.h"
#include "txn/epoch_manager.h"

namespace pacman::txn {
namespace {

storage::Table* MakeTable(storage::Catalog* c, const std::string& name) {
  return c->CreateTable(name, Schema({{"v", ValueType::kInt64, 0}}));
}
Row IntRow(int64_t v) { return {Value(v)}; }

TEST(EpochManagerTest, AdvanceAndPepoch) {
  EpochManager em(2);
  EXPECT_EQ(em.current(), 1u);
  em.Advance();
  EXPECT_EQ(em.current(), 2u);
  EXPECT_EQ(em.PersistentEpoch(), 0u);  // Nothing persisted yet.
  em.SetLoggerPersisted(0, 2);
  EXPECT_EQ(em.PersistentEpoch(), 0u);  // Min over loggers.
  em.SetLoggerPersisted(1, 1);
  EXPECT_EQ(em.PersistentEpoch(), 1u);
}

TEST(TxnTest, ReadYourOwnWrites) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  EpochManager em(0);
  TransactionManager tm(&em);

  Transaction txn = tm.Begin();
  Row out;
  ASSERT_TRUE(txn.Read(t, 1, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 5);
  txn.Write(t, 1, IntRow(6));
  ASSERT_TRUE(txn.Read(t, 1, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 6);  // Own write visible.
  txn.Delete(t, 1);
  EXPECT_EQ(txn.Read(t, 1, &out).code(), StatusCode::kNotFound);
}

TEST(TxnTest, CommitInstallsAtCommitTs) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  EpochManager em(0);
  TransactionManager tm(&em);

  Transaction txn = tm.Begin();
  txn.Write(t, 1, IntRow(7));
  CommitInfo info;
  ASSERT_TRUE(tm.Commit(&txn, &info).ok());
  EXPECT_GT(info.commit_ts, 1u);
  Row out;
  ASSERT_TRUE(t->Read(1, info.commit_ts, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 7);
  ASSERT_TRUE(t->Read(1, info.commit_ts - 1, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 5);  // Old snapshot intact (MVCC).
  EXPECT_EQ(tm.LastCommitted(), info.commit_ts);
}

TEST(TxnTest, WriteWriteConflictAborts) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  EpochManager em(0);
  TransactionManager tm(&em);

  Transaction t1 = tm.Begin();
  Transaction t2 = tm.Begin();
  Row out;
  ASSERT_TRUE(t1.Read(t, 1, &out).ok());
  ASSERT_TRUE(t2.Read(t, 1, &out).ok());
  t1.Write(t, 1, IntRow(10));
  t2.Write(t, 1, IntRow(20));
  CommitInfo info;
  ASSERT_TRUE(tm.Commit(&t1, &info).ok());
  EXPECT_EQ(tm.Commit(&t2, &info).code(), StatusCode::kAborted);
  EXPECT_EQ(tm.num_aborts(), 1u);
  ASSERT_TRUE(t->Read(1, kMaxTimestamp, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 10);  // Loser installed nothing.
}

TEST(TxnTest, ReadValidationCatchesStaleReads) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  t->LoadRow(2, IntRow(6), 1);
  EpochManager em(0);
  TransactionManager tm(&em);

  // t2 reads key 1, then t1 updates key 1 and commits; t2 writes key 2.
  Transaction t2 = tm.Begin();
  Row out;
  ASSERT_TRUE(t2.Read(t, 1, &out).ok());
  Transaction t1 = tm.Begin();
  t1.Write(t, 1, IntRow(50));
  CommitInfo info;
  ASSERT_TRUE(tm.Commit(&t1, &info).ok());
  t2.Write(t, 2, IntRow(out[0].AsInt64() + 1));
  EXPECT_EQ(tm.Commit(&t2, &info).code(), StatusCode::kAborted);
}

TEST(TxnTest, InsertFailsWhenKeyExists) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  EpochManager em(0);
  TransactionManager tm(&em);

  Transaction txn = tm.Begin();
  txn.Insert(t, 1, IntRow(9));
  CommitInfo info;
  EXPECT_EQ(tm.Commit(&txn, &info).code(), StatusCode::kAborted);

  Transaction txn2 = tm.Begin();
  txn2.Insert(t, 2, IntRow(9));
  EXPECT_TRUE(tm.Commit(&txn2, &info).ok());
}

TEST(TxnTest, DeleteThenReinsert) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(5), 1);
  EpochManager em(0);
  TransactionManager tm(&em);
  CommitInfo info;

  Transaction d = tm.Begin();
  d.Delete(t, 1);
  ASSERT_TRUE(tm.Commit(&d, &info).ok());
  Row out;
  EXPECT_EQ(t->Read(1, kMaxTimestamp, &out).code(), StatusCode::kNotFound);

  Transaction i = tm.Begin();
  i.Insert(t, 1, IntRow(77));
  ASSERT_TRUE(tm.Commit(&i, &info).ok());
  ASSERT_TRUE(t->Read(1, kMaxTimestamp, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 77);
}

TEST(TxnTest, CoalesceKeepsLastWritePerKey) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  EpochManager em(0);
  TransactionManager tm(&em);

  Transaction txn = tm.Begin();
  txn.Write(t, 1, IntRow(1));
  txn.Write(t, 2, IntRow(2));
  txn.Write(t, 1, IntRow(3));
  txn.CoalesceWrites();
  ASSERT_EQ(txn.write_set().size(), 2u);
  CommitInfo info;
  ASSERT_TRUE(tm.Commit(&txn, &info).ok());
  Row out;
  ASSERT_TRUE(t->Read(1, kMaxTimestamp, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 3);
}

TEST(TxnTest, CommitHookSeesWriteSetAndOrder) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(0), 1);
  EpochManager em(0);
  TransactionManager tm(&em);
  std::vector<Timestamp> hook_order;
  tm.set_commit_hook([&](const Transaction& txn, const CommitInfo& info) {
    EXPECT_FALSE(txn.write_set().empty());
    hook_order.push_back(info.commit_ts);
  });
  for (int i = 0; i < 5; ++i) {
    Transaction txn = tm.Begin();
    txn.Write(t, 1, IntRow(i));
    CommitInfo info;
    ASSERT_TRUE(tm.Commit(&txn, &info).ok());
  }
  ASSERT_EQ(hook_order.size(), 5u);
  EXPECT_TRUE(std::is_sorted(hook_order.begin(), hook_order.end()));
}

TEST(TxnTest, ConcurrentIncrementsSumCorrectly) {
  storage::Catalog c;
  storage::Table* t = MakeTable(&c, "t");
  t->LoadRow(1, IntRow(0), 1);
  EpochManager em(0);
  TransactionManager tm(&em);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      for (int n = 0; n < kIncrements; ++n) {
        while (true) {
          Transaction txn = tm.Begin();
          Row out;
          ASSERT_TRUE(txn.Read(t, 1, &out).ok());
          txn.Write(t, 1, IntRow(out[0].AsInt64() + 1));
          CommitInfo info;
          if (tm.Commit(&txn, &info).ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  Row out;
  ASSERT_TRUE(t->Read(1, kMaxTimestamp, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), kThreads * kIncrements);
}

}  // namespace
}  // namespace pacman::txn
