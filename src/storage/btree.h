#ifndef GRETA_STORAGE_BTREE_H_
#define GRETA_STORAGE_BTREE_H_

#include <cstddef>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "predicate/range.h"

namespace greta {

/// In-memory B+-tree keyed by double, supporting insertion and ordered range
/// scans (no deletion — the GRETA runtime deletes at pane granularity, so
/// whole trees are dropped instead of individual entries; invalidated
/// entries are tombstoned inside the value type).
///
/// This is the "Vertex Tree" of Section 7: vertices of one event type within
/// one Time Pane, sorted by the attribute of the most selective edge
/// predicate so predecessor lookups become range queries.
///
/// Duplicate keys are allowed; equal-key entries scan in insertion order.
template <typename V>
class BPlusTree {
 public:
  BPlusTree() = default;
  ~BPlusTree() { Clear(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& other) noexcept { *this = std::move(other); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      Clear();
      root_ = other.root_;
      first_leaf_ = other.first_leaf_;
      size_ = other.size_;
      nodes_ = other.nodes_;
      other.root_ = nullptr;
      other.first_leaf_ = nullptr;
      other.size_ = 0;
      other.nodes_ = 0;
    }
    return *this;
  }

  void Insert(double key, V value) {
    if (root_ == nullptr) {
      Leaf* leaf = NewLeaf();
      root_ = leaf;
      first_leaf_ = leaf;
    }
    if (root_->count == kMaxKeys) GrowRoot();
    InsertNonFull(root_, key, std::move(value));
    ++size_;
  }

  /// Invokes `fn(value)` for every entry whose key is within `bounds`, in
  /// ascending key order. Keys ascend across the scan, so the lower bound
  /// is only tested until it first passes (the leading entries of the
  /// starting leaf); the steady-state loop tests the upper bound alone.
  template <typename Fn>
  void Scan(const KeyBounds& bounds, Fn&& fn) const {
    if (root_ == nullptr) return;
    // Skip phase: advance past keys below the lower bound. Keys equal to a
    // strict bound can fill whole leaves (duplicates), so the skip spans
    // leaves; once one key passes, every later key passes too.
    const Leaf* leaf = FindLeaf(bounds.lo);
    int i = 0;
    while (leaf != nullptr) {
      i = simd::LeafSkip(leaf->keys, leaf->count, bounds.lo, bounds.lo_strict);
      if (i < leaf->count) break;
      leaf = leaf->next;
    }
    // Emit phase: only the upper bound remains to test. The stop index is
    // found by a bulk bound check over the leaf's key array; everything
    // before it emits unconditionally.
    while (leaf != nullptr) {
      const int stop = simd::LeafStop(leaf->keys, i, leaf->count, bounds.hi,
                                      bounds.hi_strict);
      for (; i < stop; ++i) fn(leaf->values[i]);
      if (stop < leaf->count) return;
      leaf = leaf->next;
      i = 0;
    }
  }

  /// Scan variant invoking `fn(key, value)` — the batch kernels collect
  /// (key, cell) pairs once per run and re-filter per event, so they need
  /// the key back out of the tree.
  template <typename Fn>
  void ScanWithKey(const KeyBounds& bounds, Fn&& fn) const {
    if (root_ == nullptr) return;
    const Leaf* leaf = FindLeaf(bounds.lo);
    int i = 0;
    while (leaf != nullptr) {
      i = simd::LeafSkip(leaf->keys, leaf->count, bounds.lo, bounds.lo_strict);
      if (i < leaf->count) break;
      leaf = leaf->next;
    }
    while (leaf != nullptr) {
      const int stop = simd::LeafStop(leaf->keys, i, leaf->count, bounds.hi,
                                      bounds.hi_strict);
      for (; i < stop; ++i) fn(leaf->keys[i], leaf->values[i]);
      if (stop < leaf->count) return;
      leaf = leaf->next;
      i = 0;
    }
  }

  /// Invokes `fn(value)` for every entry in ascending key order.
  template <typename Fn>
  void ScanAll(Fn&& fn) const {
    for (const Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      for (int i = 0; i < leaf->count; ++i) fn(leaf->values[i]);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bytes of node storage (for the benchmark memory metric).
  size_t ApproxBytes() const { return nodes_ * sizeof(Leaf); }

  void Clear() {
    if (root_ != nullptr) {
      FreeRec(root_);
      root_ = nullptr;
      first_leaf_ = nullptr;
      size_ = 0;
      nodes_ = 0;
    }
  }

 private:
  static constexpr int kMaxKeys = 32;

  struct Node {
    bool leaf = true;
    int count = 0;
    double keys[kMaxKeys];
  };
  struct Leaf : Node {
    V values[kMaxKeys];
    Leaf* next = nullptr;
  };
  struct Inner : Node {
    Node* children[kMaxKeys + 1];
  };

  Leaf* NewLeaf() {
    ++nodes_;
    Leaf* leaf = new Leaf();
    leaf->leaf = true;
    return leaf;
  }
  Inner* NewInner() {
    ++nodes_;
    Inner* inner = new Inner();
    inner->leaf = false;
    return inner;
  }

  void FreeRec(Node* node) {
    if (!node->leaf) {
      Inner* inner = static_cast<Inner*>(node);
      for (int i = 0; i <= inner->count; ++i) FreeRec(inner->children[i]);
      delete inner;
    } else {
      delete static_cast<Leaf*>(node);
    }
  }

  void GrowRoot() {
    Inner* new_root = NewInner();
    new_root->count = 0;
    new_root->children[0] = root_;
    SplitChild(new_root, 0);
    root_ = new_root;
  }

  // Splits the full child `idx` of `parent` (which has spare capacity).
  void SplitChild(Inner* parent, int idx) {
    Node* child = parent->children[idx];
    GRETA_CHECK(child->count == kMaxKeys);
    double up_key;
    Node* right;
    if (child->leaf) {
      Leaf* left = static_cast<Leaf*>(child);
      Leaf* new_leaf = NewLeaf();
      int mid = kMaxKeys / 2;
      new_leaf->count = kMaxKeys - mid;
      for (int i = 0; i < new_leaf->count; ++i) {
        new_leaf->keys[i] = left->keys[mid + i];
        new_leaf->values[i] = std::move(left->values[mid + i]);
      }
      left->count = mid;
      new_leaf->next = left->next;
      left->next = new_leaf;
      up_key = new_leaf->keys[0];
      right = new_leaf;
    } else {
      Inner* left = static_cast<Inner*>(child);
      Inner* new_inner = NewInner();
      int mid = kMaxKeys / 2;
      up_key = left->keys[mid];
      new_inner->count = kMaxKeys - mid - 1;
      for (int i = 0; i < new_inner->count; ++i) {
        new_inner->keys[i] = left->keys[mid + 1 + i];
      }
      for (int i = 0; i <= new_inner->count; ++i) {
        new_inner->children[i] = left->children[mid + 1 + i];
      }
      left->count = mid;
      right = new_inner;
    }
    // Shift parent entries right of idx.
    for (int i = parent->count; i > idx; --i) {
      parent->keys[i] = parent->keys[i - 1];
      parent->children[i + 1] = parent->children[i];
    }
    parent->keys[idx] = up_key;
    parent->children[idx + 1] = right;
    ++parent->count;
  }

  void InsertNonFull(Node* node, double key, V value) {
    while (!node->leaf) {
      Inner* inner = static_cast<Inner*>(node);
      // Find the child to descend into: first separator > key goes left;
      // equal keys descend right to preserve insertion order of duplicates.
      int i = inner->count;
      while (i > 0 && key < inner->keys[i - 1]) --i;
      Node* child = inner->children[i];
      if (child->count == kMaxKeys) {
        SplitChild(inner, i);
        if (key >= inner->keys[i]) ++i;
        child = inner->children[i];
      }
      node = child;
    }
    Leaf* leaf = static_cast<Leaf*>(node);
    GRETA_DCHECK(leaf->count < kMaxKeys);
    // Insert after the last equal key (stable duplicate order).
    int pos = leaf->count;
    while (pos > 0 && key < leaf->keys[pos - 1]) --pos;
    for (int i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = std::move(leaf->values[i - 1]);
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = std::move(value);
    ++leaf->count;
  }

  // Returns the first leaf that may contain keys >= lo. Descends LEFT past
  // separators equal to lo: a mid-duplicate leaf split leaves keys equal to
  // the pushed-up separator in the left leaf, so a right-equal descent
  // (insertion order) would strand them outside a non-strict scan. Landing
  // early is safe — Scan skips leading keys below its bound — and every
  // leaf after the landing leaf holds keys >= lo only.
  const Leaf* FindLeaf(double lo) const {
    const Node* node = root_;
    while (!node->leaf) {
      const Inner* inner = static_cast<const Inner*>(node);
      int i = inner->count;
      while (i > 0 && lo <= inner->keys[i - 1]) --i;
      node = inner->children[i];
    }
    return static_cast<const Leaf*>(node);
  }

  Node* root_ = nullptr;
  Leaf* first_leaf_ = nullptr;
  size_t size_ = 0;
  size_t nodes_ = 0;
};

}  // namespace greta

#endif  // GRETA_STORAGE_BTREE_H_
