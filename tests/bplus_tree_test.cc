// Tests for the latch-crabbing B+tree, including property-style sweeps and
// a multi-threaded smoke test.
#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/random.h"

namespace pacman::storage {
namespace {

void* Ptr(uint64_t v) { return reinterpret_cast<void*>(v); }

TEST(BPlusTreeTest, EmptyLookup) {
  BPlusTree tree;
  EXPECT_EQ(tree.Lookup(1), nullptr);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Insert(5, Ptr(50)));
  EXPECT_TRUE(tree.Insert(3, Ptr(30)));
  EXPECT_FALSE(tree.Insert(5, Ptr(99)));  // Duplicate rejected.
  EXPECT_EQ(tree.Lookup(5), Ptr(50));     // Original value kept.
  EXPECT_EQ(tree.Lookup(3), Ptr(30));
  EXPECT_EQ(tree.Lookup(4), nullptr);
  EXPECT_EQ(tree.size(), 2u);
}

// A duplicate insert descends with exclusive latches like any insert but
// returns before touching the leaf: it must change nothing and release
// every latch it took, or the inserts after it would spin forever.
TEST(BPlusTreeTest, DuplicateInsertsChangeNothingAndReleaseLatches) {
  BPlusTree tree;
  const uint64_t n = 10000;
  // 7919 is prime to n, so this visits every key once in a scattered
  // order that leaves some leaves full and some half full.
  for (uint64_t i = 0; i < n; ++i) {
    const Key k = i * 7919 % n;
    ASSERT_TRUE(tree.Insert(k, Ptr(k + 1)));
  }
  const int height = tree.Height();
  for (uint64_t k = 0; k < n; ++k) ASSERT_FALSE(tree.Insert(k, Ptr(k + 7)));
  EXPECT_EQ(tree.size(), n);
  EXPECT_EQ(tree.Height(), height);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < n; ++k) ASSERT_EQ(tree.Lookup(k), Ptr(k + 1));
  for (uint64_t k = n; k < 2 * n; ++k) ASSERT_TRUE(tree.Insert(k, Ptr(k + 1)));
  EXPECT_EQ(tree.size(), 2 * n);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, SplitsPreserveAllKeysAscending) {
  BPlusTree tree;
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; ++k) ASSERT_TRUE(tree.Insert(k, Ptr(k + 1)));
  EXPECT_EQ(tree.size(), n);
  EXPECT_GT(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < n; ++k) ASSERT_EQ(tree.Lookup(k), Ptr(k + 1));
}

TEST(BPlusTreeTest, SplitsPreserveAllKeysDescending) {
  BPlusTree tree;
  const uint64_t n = 10000;
  for (uint64_t k = n; k > 0; --k) ASSERT_TRUE(tree.Insert(k, Ptr(k)));
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 1; k <= n; ++k) ASSERT_EQ(tree.Lookup(k), Ptr(k));
}

// Property sweep: random interleavings of insert/lookup vs a std::map
// model, across several seeds.
class BPlusTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreePropertyTest, MatchesModel) {
  Rng rng(GetParam());
  BPlusTree tree;
  std::map<Key, void*> model;
  for (int i = 0; i < 20000; ++i) {
    Key k = rng.Uniform(0, 4000);  // Dense: many duplicates.
    if (rng.Bernoulli(0.5)) {
      bool inserted = tree.Insert(k, Ptr(i + 1));
      EXPECT_EQ(inserted, model.emplace(k, Ptr(i + 1)).second);
    } else {
      auto it = model.find(k);
      EXPECT_EQ(tree.Lookup(k), it == model.end() ? nullptr : it->second);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  EXPECT_TRUE(tree.CheckInvariants());
  for (const auto& [k, v] : model) EXPECT_EQ(tree.Lookup(k), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 123, 31337));

TEST(BPlusTreeConcurrencyTest, ParallelDisjointInserts) {
  BPlusTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Key k = static_cast<Key>(t) * kPerThread + i;
        ASSERT_TRUE(tree.Insert(k, Ptr(k + 1)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.size(), kThreads * kPerThread);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(tree.Lookup(k), Ptr(k + 1));
  }
}

// Threads race to insert the same keys, half of them walking the key
// range backwards so they also meet mid-range: every key has exactly one
// winner, and the tree keeps the winner's value.
TEST(BPlusTreeConcurrencyTest, RacingInsertsOfOneKeyHaveOneWinner) {
  BPlusTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 20000;
  std::vector<std::vector<uint8_t>> won(kThreads,
                                        std::vector<uint8_t>(kKeys, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (uint64_t i = 0; i < kKeys; ++i) {
        const Key k = t % 2 == 0 ? i : kKeys - 1 - i;
        if (tree.Insert(k, Ptr(k * kThreads + t + 1))) won[t][k] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t k = 0; k < kKeys; ++k) {
    int winners = 0;
    int winner = 0;
    for (int t = 0; t < kThreads; ++t) {
      if (won[t][k] != 0) {
        winners++;
        winner = t;
      }
    }
    ASSERT_EQ(winners, 1) << "key " << k;
    ASSERT_EQ(tree.Lookup(k), Ptr(k * kThreads + winner + 1)) << "key " << k;
  }
  EXPECT_EQ(tree.size(), kKeys);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeConcurrencyTest, ReadersDuringWrites) {
  BPlusTree tree;
  for (uint64_t k = 0; k < 10000; k += 2) tree.Insert(k, Ptr(k + 1));
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    Rng rng(1);
    while (!stop.load()) {
      Key k = rng.Uniform(0, 9999) & ~1ull;
      void* v = tree.Lookup(k);
      ASSERT_EQ(v, Ptr(k + 1));
    }
  });
  for (uint64_t k = 1; k < 10000; k += 2) tree.Insert(k, Ptr(k + 1));
  stop.store(true);
  reader.join();
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 10000u);
}

}  // namespace
}  // namespace pacman::storage
