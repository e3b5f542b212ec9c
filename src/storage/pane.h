#ifndef GRETA_STORAGE_PANE_H_
#define GRETA_STORAGE_PANE_H_

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/memory.h"
#include "common/types.h"
#include "storage/btree.h"

namespace greta {

/// Time-pane store (Section 7, Figure 11): the stream is divided into
/// non-overlapping consecutive time intervals; each pane holds, per bucket
/// (one bucket per template state), the vertices that fall into it plus a
/// Vertex Tree sorted by that bucket's key attribute. Expired panes are
/// deleted wholesale ("instead of removing single expired events ... a whole
/// pane with its associated data structures is deleted").
///
/// Each pane additionally owns a chunked Arena from which callers draw
/// vertex side storage (aggregate cells, stored-event attribute payloads):
/// obtain it with ArenaFor(time) immediately before Insert()ing the vertex
/// into the same pane. Pane expiry then frees those allocations wholesale
/// with the pane.
///
/// Memory accounting is incremental and O(1) per insert: every pane tracks
/// the bytes charged for it (vertex slots, tree-node growth, arena chunk
/// growth, fixed overhead), `ApproxBytes()` returns the running total, and
/// an optional MemoryTracker is credited/debited at the same sites — no
/// per-cell walks on the hot path. `RecomputeApproxBytes()` re-derives the
/// same total from scratch for invariant tests.
///
/// V is the vertex type; values handed to Insert are stored in a deque so
/// the returned pointers stay stable for the lifetime of the pane. The deque
/// is destroyed before the pane's arena, so V's destructor may still touch
/// arena-backed storage. Objects the arena holds are never destroyed by it:
/// an owner placing non-trivial ones there destroys them first, through
/// PurgeBefore's `on_free` and ForEachVertex (GretaGraph does so for its
/// aggregate cells).
template <typename V>
class PaneStore {
 public:
  PaneStore(Ts pane_size, size_t num_buckets, MemoryTracker* memory = nullptr)
      : pane_size_(pane_size), num_buckets_(num_buckets), memory_(memory) {
    GRETA_CHECK(pane_size_ > 0);
    GRETA_CHECK(num_buckets_ > 0);
  }

  ~PaneStore() {
    if (memory_ != nullptr) memory_->Release(bytes_);
  }

  PaneStore(const PaneStore&) = delete;
  PaneStore& operator=(const PaneStore&) = delete;

  /// The arena of the pane covering `time`, creating the pane if needed.
  /// Allocations made here are accounted by the next Insert() into the same
  /// pane — call Insert(time, ...) before touching any other pane.
  Arena* ArenaFor(Ts time) { return &PaneFor(time).arena; }

  /// Inserts a vertex with the given tree key into the pane covering `time`.
  /// Returns a stable pointer.
  V* Insert(Ts time, size_t bucket, double key, V value) {
    GRETA_DCHECK(bucket < num_buckets_);
    Pane& pane = PaneFor(time);
    Bucket& b = pane.buckets[bucket];
    size_t tree_before = b.index.ApproxBytes();
    b.vertices.push_back(std::move(value));
    V* stored = &b.vertices.back();
    b.index.Insert(key, stored);
    ++size_;
    size_t grew = sizeof(V) + (b.index.ApproxBytes() - tree_before) +
                  (pane.arena.footprint_bytes() - pane.arena_accounted);
    pane.arena_accounted = pane.arena.footprint_bytes();
    ChargePane(&pane, grew);
    return stored;
  }

  /// Scans bucket `bucket` over all panes intersecting [lo_time, hi_time]
  /// (inclusive), visiting entries within `bounds` in key order per pane.
  /// `fn(V*)` is invoked for each.
  template <typename Fn>
  void ScanBucket(Ts lo_time, Ts hi_time, size_t bucket,
                  const KeyBounds& bounds, Fn&& fn) const {
    GRETA_DCHECK(bucket < num_buckets_);
    if (panes_.empty() || lo_time > hi_time) return;
    int64_t lo_idx = FloorDivTs(lo_time);
    for (auto it = panes_.lower_bound(lo_idx); it != panes_.end(); ++it) {
      if (it->second.start > hi_time) break;
      it->second.buckets[bucket].index.Scan(bounds, fn);
    }
  }

  /// ScanBucket variant invoking `fn(key, V*)` so callers get the tree key
  /// alongside the vertex (the batch kernels collect (key, cell) pairs once
  /// per equal-timestamp run).
  template <typename Fn>
  void ScanBucketWithKey(Ts lo_time, Ts hi_time, size_t bucket,
                         const KeyBounds& bounds, Fn&& fn) const {
    GRETA_DCHECK(bucket < num_buckets_);
    if (panes_.empty() || lo_time > hi_time) return;
    int64_t lo_idx = FloorDivTs(lo_time);
    for (auto it = panes_.lower_bound(lo_idx); it != panes_.end(); ++it) {
      if (it->second.start > hi_time) break;
      it->second.buckets[bucket].index.ScanWithKey(bounds, fn);
    }
  }

  /// Visits every vertex of `bucket` across all panes (pane order, then key
  /// order), e.g. for window-close scans.
  template <typename Fn>
  void ScanBucketAll(size_t bucket, Fn&& fn) const {
    for (const auto& [idx, pane] : panes_) {
      (void)idx;
      pane.buckets[bucket].index.ScanAll(fn);
    }
  }

  /// Visits every stored vertex (pane order, then bucket insertion order).
  template <typename Fn>
  void ForEachVertex(Fn&& fn) const {
    for (const auto& [idx, pane] : panes_) {
      (void)idx;
      for (const Bucket& b : pane.buckets) {
        for (const V& v : b.vertices) fn(v);
      }
    }
  }

  /// Drops every pane that ends at or before `cutoff` (batch deletion),
  /// releasing its charged bytes wholesale. Returns the number of vertices
  /// freed.
  size_t PurgeBefore(Ts cutoff) {
    return PurgeBefore(cutoff, [](const V&) {});
  }

  /// PurgeBefore variant invoking `on_free(vertex)` for each dropped vertex.
  template <typename Fn>
  size_t PurgeBefore(Ts cutoff, Fn&& on_free) {
    size_t freed = 0;
    while (!panes_.empty()) {
      auto it = panes_.begin();
      if (it->second.start + pane_size_ > cutoff) break;
      for (const Bucket& b : it->second.buckets) {
        for (const V& v : b.vertices) on_free(v);
        freed += b.vertices.size();
      }
      bytes_ -= it->second.bytes;
      if (memory_ != nullptr) memory_->Release(it->second.bytes);
      if (last_pane_ == &it->second) last_pane_ = nullptr;
      panes_.erase(it);
    }
    size_ -= freed;
    return freed;
  }

  size_t size() const { return size_; }
  size_t num_panes() const { return panes_.size(); }
  Ts pane_size() const { return pane_size_; }

  /// Bytes held by vertices, tree nodes and pane arenas. O(1): maintained
  /// incrementally at the allocation sites.
  size_t ApproxBytes() const { return bytes_; }

  /// Walks every pane and re-derives ApproxBytes() from scratch. For the
  /// accounting invariant tests; the hot path never calls this.
  size_t RecomputeApproxBytes() const {
    size_t bytes = 0;
    for (const auto& [idx, pane] : panes_) {
      (void)idx;
      bytes += PaneOverheadBytes(pane);
      bytes += pane.arena.footprint_bytes();
      for (const Bucket& b : pane.buckets) {
        bytes += b.vertices.size() * sizeof(V) + b.index.ApproxBytes();
      }
    }
    return bytes;
  }

 private:
  struct Bucket {
    std::deque<V> vertices;
    BPlusTree<V*> index;
  };
  struct Pane {
    Ts start = 0;
    size_t bytes = 0;            // everything charged for this pane
    size_t arena_accounted = 0;  // arena footprint already in `bytes`
    // The arena must outlive the vertex deques: ~V may destroy arena-backed
    // cells, so `buckets` (destroyed first, reverse declaration order) comes
    // after `arena`.
    Arena arena;
    std::vector<Bucket> buckets;
  };

  static size_t PaneOverheadBytes(const Pane& pane) {
    return sizeof(Pane) + pane.buckets.capacity() * sizeof(Bucket);
  }

  void ChargePane(Pane* pane, size_t bytes) {
    pane->bytes += bytes;
    bytes_ += bytes;
    if (memory_ != nullptr) memory_->Add(bytes);
  }

  int64_t FloorDivTs(Ts t) const {
    int64_t q = t / pane_size_;
    if ((t % pane_size_ != 0) && (t < 0)) --q;
    return q;
  }

  // Streams arrive in time order, so consecutive inserts overwhelmingly hit
  // one pane; a one-entry cache keyed by the pane's time range answers hits
  // with two comparisons — no division, no map lookup (ArenaFor + Insert
  // would otherwise pay both twice per vertex).
  Pane& PaneFor(Ts time) {
    if (last_pane_ != nullptr && time >= last_pane_->start &&
        time - last_pane_->start < pane_size_) {
      return *last_pane_;
    }
    return GetOrCreatePane(FloorDivTs(time));
  }

  Pane& GetOrCreatePane(int64_t idx) {
    auto it = panes_.find(idx);
    if (it == panes_.end()) {
      it = panes_.try_emplace(idx).first;
      Pane& pane = it->second;
      pane.start = idx * pane_size_;
      pane.buckets.resize(num_buckets_);
      ChargePane(&pane, PaneOverheadBytes(pane));
    }
    last_pane_ = &it->second;
    return it->second;
  }

  Ts pane_size_;
  size_t num_buckets_;
  MemoryTracker* memory_;
  std::map<int64_t, Pane> panes_;  // ordered by pane index
  Pane* last_pane_ = nullptr;      // one-entry PaneFor cache
  size_t size_ = 0;
  size_t bytes_ = 0;
};

}  // namespace greta

#endif  // GRETA_STORAGE_PANE_H_
