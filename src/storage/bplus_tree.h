// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Concurrent B+tree over 64-bit keys mapping to opaque pointers, used as
// the point index of tables whose keys are dense, sequentially loaded
// ranges (Peloton uses a B-tree-style index; Section 6): such keys fill
// leaves in order, so it packs them tighter and inserts them faster than
// the hash index. Concurrency control is classic latch crabbing: readers
// take shared latches and release the parent as soon as the child is
// latched; writers take exclusive latches top-down and release all safe
// ancestors once the current node cannot split.
//
// Structural deletion is not supported: the engine models SQL DELETE as an
// MVCC tombstone version, so index entries are only ever inserted. This is
// the standard main-memory MVCC arrangement (garbage collection would prune
// later; this reproduction does not GC).
#ifndef PACMAN_STORAGE_BPLUS_TREE_H_
#define PACMAN_STORAGE_BPLUS_TREE_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/types.h"

namespace pacman::storage {

// Maps Key -> void* (never null for present keys). Thread-safe.
class BPlusTree {
 public:
  static constexpr int kFanout = 64;  // Max children of an inner node.
  static constexpr int kLeafCapacity = 64;

  BPlusTree();
  ~BPlusTree();
  PACMAN_DISALLOW_COPY_AND_MOVE(BPlusTree);

  // Inserts key -> value. Returns false (and leaves the tree unchanged) if
  // the key already exists.
  bool Insert(Key key, void* value);

  // Returns the value for `key`, or nullptr if absent.
  void* Lookup(Key key) const;

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  // Height of the tree (1 = a single leaf). For tests/diagnostics.
  int Height() const;

  // Verifies structural invariants (sorted keys, child separators, uniform
  // leaf depth, entry count). For tests; not thread-safe.
  bool CheckInvariants() const;

 private:
  struct Node;
  struct InnerNode;
  struct LeafNode;

  // Latches the leaf that may contain `key` in shared mode; caller must
  // unlock. Crabs from the root.
  LeafNode* FindLeafShared(Key key) const;

  void FreeRecursive(Node* node);

  // Root pointer changes (splits of the root) are guarded by root_latch_
  // treated as the latch "above" the root in the crabbing protocol.
  mutable RwSpinLatch root_latch_;
  Node* root_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_BPLUS_TREE_H_
