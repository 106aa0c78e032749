#include "storage/bplus_tree.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace pacman::storage {

struct BPlusTree::Node {
  mutable RwSpinLatch latch;
  bool is_leaf = false;
  int count = 0;  // Number of keys stored.
};

struct BPlusTree::InnerNode : BPlusTree::Node {
  // keys[0..count-1]; children[0..count]. Keys are separators: child i holds
  // keys in [keys[i-1], keys[i]).
  Key keys[kFanout - 1];
  Node* children[kFanout];

  InnerNode() { is_leaf = false; }

  int ChildIndex(Key key) const {
    // First i such that key < keys[i]; equal keys go right.
    return static_cast<int>(
        std::upper_bound(keys, keys + count, key) - keys);
  }

  bool SafeForInsert() const { return count < kFanout - 2; }
};

struct BPlusTree::LeafNode : BPlusTree::Node {
  Key keys[kLeafCapacity];
  void* values[kLeafCapacity];

  LeafNode() { is_leaf = true; }

  // Index of first entry >= key.
  int LowerBound(Key key) const {
    return static_cast<int>(
        std::lower_bound(keys, keys + count, key) - keys);
  }

  bool SafeForInsert() const { return count < kLeafCapacity - 1; }
};

BPlusTree::BPlusTree() { root_ = new LeafNode(); }

BPlusTree::~BPlusTree() { FreeRecursive(root_); }

void BPlusTree::FreeRecursive(Node* node) {
  if (!node->is_leaf) {
    auto* inner = static_cast<InnerNode*>(node);
    for (int i = 0; i <= inner->count; ++i) FreeRecursive(inner->children[i]);
  }
  if (node->is_leaf) {
    delete static_cast<LeafNode*>(node);
  } else {
    delete static_cast<InnerNode*>(node);
  }
}

BPlusTree::LeafNode* BPlusTree::FindLeafShared(Key key) const {
  root_latch_.LockShared();
  Node* node = root_;
  node->latch.LockShared();
  root_latch_.UnlockShared();
  while (!node->is_leaf) {
    auto* inner = static_cast<InnerNode*>(node);
    Node* child = inner->children[inner->ChildIndex(key)];
    child->latch.LockShared();
    node->latch.UnlockShared();
    node = child;
  }
  return static_cast<LeafNode*>(node);
}

void* BPlusTree::Lookup(Key key) const {
  LeafNode* leaf = FindLeafShared(key);
  int i = leaf->LowerBound(key);
  void* result =
      (i < leaf->count && leaf->keys[i] == key) ? leaf->values[i] : nullptr;
  leaf->latch.UnlockShared();
  return result;
}

bool BPlusTree::Insert(Key key, void* value) {
  // Descend with exclusive latches, releasing safe ancestors.
  root_latch_.LockExclusive();
  bool root_latch_held = true;
  std::vector<Node*> latched;      // Exclusive-latched ancestors (top-down).
  std::vector<int> child_indices;  // Slot taken at each latched inner node.

  Node* node = root_;
  node->latch.LockExclusive();

  auto release_ancestors = [&]() {
    for (Node* n : latched) n->latch.UnlockExclusive();
    latched.clear();
    child_indices.clear();
    if (root_latch_held) {
      root_latch_.UnlockExclusive();
      root_latch_held = false;
    }
  };
  auto node_safe = [](Node* n) {
    return n->is_leaf ? static_cast<LeafNode*>(n)->SafeForInsert()
                      : static_cast<InnerNode*>(n)->SafeForInsert();
  };

  while (true) {
    if (node_safe(node)) release_ancestors();
    if (node->is_leaf) break;
    auto* inner = static_cast<InnerNode*>(node);
    int ci = inner->ChildIndex(key);
    Node* child = inner->children[ci];
    child->latch.LockExclusive();
    latched.push_back(node);
    child_indices.push_back(ci);
    node = child;
  }

  auto* leaf = static_cast<LeafNode*>(node);
  int pos = leaf->LowerBound(key);
  if (pos < leaf->count && leaf->keys[pos] == key) {
    leaf->latch.UnlockExclusive();
    release_ancestors();
    return false;
  }

  // Insert into the leaf (splitting if full).
  if (leaf->count < kLeafCapacity) {
    std::copy_backward(leaf->keys + pos, leaf->keys + leaf->count,
                       leaf->keys + leaf->count + 1);
    std::copy_backward(leaf->values + pos, leaf->values + leaf->count,
                       leaf->values + leaf->count + 1);
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    leaf->count++;
    leaf->latch.UnlockExclusive();
    release_ancestors();
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Split the leaf. All unsafe ancestors are still exclusively latched.
  auto* right = new LeafNode();
  int mid = leaf->count / 2;
  right->count = leaf->count - mid;
  std::copy(leaf->keys + mid, leaf->keys + leaf->count, right->keys);
  std::copy(leaf->values + mid, leaf->values + leaf->count, right->values);
  leaf->count = mid;
  Key separator = right->keys[0];

  // Insert the new entry into the correct half.
  LeafNode* target = key < separator ? leaf : right;
  int tpos = target->LowerBound(key);
  std::copy_backward(target->keys + tpos, target->keys + target->count,
                     target->keys + target->count + 1);
  std::copy_backward(target->values + tpos, target->values + target->count,
                     target->values + target->count + 1);
  target->keys[tpos] = key;
  target->values[tpos] = value;
  target->count++;
  leaf->latch.UnlockExclusive();

  // Propagate the split up the latched path.
  Node* right_child = right;
  Key push_key = separator;
  Node* left_child = leaf;
  while (true) {
    if (latched.empty()) {
      // Splitting the root: root_latch_ must still be held.
      PACMAN_CHECK(root_latch_held);
      auto* new_root = new InnerNode();
      new_root->count = 1;
      new_root->keys[0] = push_key;
      new_root->children[0] = left_child;
      new_root->children[1] = right_child;
      root_ = new_root;
      root_latch_.UnlockExclusive();
      root_latch_held = false;
      break;
    }
    auto* parent = static_cast<InnerNode*>(latched.back());
    int ci = child_indices.back();
    latched.pop_back();
    child_indices.pop_back();

    if (parent->count < kFanout - 1) {
      std::copy_backward(parent->keys + ci, parent->keys + parent->count,
                         parent->keys + parent->count + 1);
      std::copy_backward(parent->children + ci + 1,
                         parent->children + parent->count + 1,
                         parent->children + parent->count + 2);
      parent->keys[ci] = push_key;
      parent->children[ci + 1] = right_child;
      parent->count++;
      parent->latch.UnlockExclusive();
      break;
    }

    // Parent is full: split it. Insert logically first into a scratch
    // array, then divide around the middle key.
    Key tmp_keys[kFanout];
    Node* tmp_children[kFanout + 1];
    std::copy(parent->keys, parent->keys + parent->count, tmp_keys);
    std::copy(parent->children, parent->children + parent->count + 1,
              tmp_children);
    std::copy_backward(tmp_keys + ci, tmp_keys + parent->count,
                       tmp_keys + parent->count + 1);
    std::copy_backward(tmp_children + ci + 1,
                       tmp_children + parent->count + 1,
                       tmp_children + parent->count + 2);
    tmp_keys[ci] = push_key;
    tmp_children[ci + 1] = right_child;
    int total_keys = parent->count + 1;

    int midk = total_keys / 2;
    Key up_key = tmp_keys[midk];
    auto* new_right = new InnerNode();
    new_right->count = total_keys - midk - 1;
    std::copy(tmp_keys + midk + 1, tmp_keys + total_keys, new_right->keys);
    std::copy(tmp_children + midk + 1, tmp_children + total_keys + 1,
              new_right->children);
    parent->count = midk;
    std::copy(tmp_keys, tmp_keys + midk, parent->keys);
    std::copy(tmp_children, tmp_children + midk + 1, parent->children);

    parent->latch.UnlockExclusive();
    left_child = parent;
    right_child = new_right;
    push_key = up_key;
  }

  // Any remaining latched ancestors were above the topmost split and safe.
  for (Node* n : latched) n->latch.UnlockExclusive();
  if (root_latch_held) root_latch_.UnlockExclusive();
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

int BPlusTree::Height() const {
  int h = 1;
  root_latch_.LockShared();
  Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<InnerNode*>(node)->children[0];
    ++h;
  }
  root_latch_.UnlockShared();
  return h;
}

namespace {

// Recursive structural check: keys within (lo, hi], sorted, uniform depth.
struct CheckState {
  uint64_t num_entries = 0;
  int leaf_depth = -1;
  bool ok = true;
};

}  // namespace

bool BPlusTree::CheckInvariants() const {
  CheckState st;
  // Local recursive lambda over nodes.
  std::function<void(const Node*, int, bool, Key, bool, Key)> check =
      [&](const Node* node, int depth, bool has_lo, Key lo, bool has_hi,
          Key hi) {
        if (!st.ok) return;
        if (node->is_leaf) {
          const auto* leaf = static_cast<const LeafNode*>(node);
          if (st.leaf_depth == -1) st.leaf_depth = depth;
          if (st.leaf_depth != depth) {
            st.ok = false;
            return;
          }
          for (int i = 0; i < leaf->count; ++i) {
            if (i > 0 && leaf->keys[i - 1] >= leaf->keys[i]) st.ok = false;
            if (has_lo && leaf->keys[i] < lo) st.ok = false;
            if (has_hi && leaf->keys[i] >= hi) st.ok = false;
          }
          st.num_entries += leaf->count;
          return;
        }
        const auto* inner = static_cast<const InnerNode*>(node);
        if (inner->count < 1) {
          st.ok = false;
          return;
        }
        for (int i = 0; i < inner->count; ++i) {
          if (i > 0 && inner->keys[i - 1] >= inner->keys[i]) st.ok = false;
        }
        for (int i = 0; i <= inner->count; ++i) {
          bool clo = i > 0;
          Key klo = clo ? inner->keys[i - 1] : 0;
          bool chi = i < inner->count;
          Key khi = chi ? inner->keys[i] : 0;
          check(inner->children[i], depth + 1, clo || has_lo,
                clo ? klo : lo, chi || has_hi, chi ? khi : hi);
        }
      };
  check(root_, 0, false, 0, false, 0);
  if (st.num_entries != size()) st.ok = false;
  return st.ok;
}

}  // namespace pacman::storage
