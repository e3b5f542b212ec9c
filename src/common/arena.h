#ifndef GRETA_COMMON_ARENA_H_
#define GRETA_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/check.h"

namespace greta {

/// A chunked bump allocator for pane-local runtime state (GraphVertex
/// aggregate cells and stored-event attribute payloads). Allocations are a
/// pointer bump; nothing is freed individually — the owning pane drops the
/// whole arena when it expires, which is exactly the wholesale batch
/// deletion Section 7 prescribes ("a whole pane with its associated data
/// structures is deleted").
///
/// The arena never runs destructors. Callers placing non-trivially-
/// destructible objects here (an exact-mode Counter or an AggCell may own a
/// promoted BigUInt) must run the destructors themselves before the arena
/// dies; GretaGraph does so for its cells whenever its panes drop vertices.
///
/// Chunks grow geometrically from `first_chunk_bytes` up to `kMaxChunkBytes`;
/// a request larger than the next chunk gets a chunk of its own size. The
/// first chunk is small (128 B) because many panes are: a partition seeing
/// one event per pane stores one vertex, whose COUNT(*) cells take a few
/// dozen bytes, and a 1 KiB first chunk was then mostly slack (on the
/// `fanout_groups` e2e workload the smaller first chunk alone cut peak
/// state from 0.58 to 0.38 MB). The price is paid by panes that outgrow
/// 1 KiB: they can hold up to 896 more bytes in small first chunks. Hot
/// panes still double their way to one malloc per ~64 KiB.
/// `footprint_bytes()` is the O(1) source of truth for memory accounting:
/// PaneStore polls its delta after each insert instead of walking cells.
class Arena {
 public:
  explicit Arena(size_t first_chunk_bytes = kDefaultFirstChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes) {
    GRETA_CHECK(first_chunk_bytes >= 64);
  }

  ~Arena() { FreeChunks(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      FreeChunks();
      head_ = other.head_;
      cursor_ = other.cursor_;
      limit_ = other.limit_;
      footprint_ = other.footprint_;
      next_chunk_bytes_ = other.next_chunk_bytes_;
      other.head_ = nullptr;
      other.cursor_ = other.limit_ = nullptr;
      other.footprint_ = 0;
    }
    return *this;
  }

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power of
  /// two, at most alignof(std::max_align_t)).
  void* Allocate(size_t bytes, size_t align) {
    GRETA_DCHECK(align > 0 && (align & (align - 1)) == 0);
    GRETA_DCHECK(align <= alignof(std::max_align_t));
    uintptr_t p = reinterpret_cast<uintptr_t>(cursor_);
    uintptr_t aligned = (p + align - 1) & ~uintptr_t(align - 1);
    if (aligned + bytes > reinterpret_cast<uintptr_t>(limit_)) {
      Grow(bytes + align);
      p = reinterpret_cast<uintptr_t>(cursor_);
      aligned = (p + align - 1) & ~uintptr_t(align - 1);
    }
    cursor_ = reinterpret_cast<char*>(aligned + bytes);
    return reinterpret_cast<void*>(aligned);
  }

  /// Uninitialized storage for `n` objects of type T; the caller
  /// placement-constructs (and, if needed, later destroys) them.
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Ensures at least `bytes` of contiguous bump space so a following run of
  /// allocations (a batch of vertices landing in one pane) pays at most one
  /// Grow. Chunk growth is visible in footprint_bytes() immediately, so
  /// callers relying on delta-polled accounting must Reserve between polls
  /// of the same pane.
  void Reserve(size_t bytes) {
    size_t avail = static_cast<size_t>(limit_ - cursor_);
    if (avail < bytes) Grow(bytes + alignof(std::max_align_t));
  }

  /// Total bytes of chunk storage reserved (including headers and bump
  /// slack). O(1); the unit of incremental memory accounting.
  size_t footprint_bytes() const { return footprint_; }

  static constexpr size_t kDefaultFirstChunkBytes = 128;
  static constexpr size_t kMaxChunkBytes = 64 * 1024;

 private:
  struct ChunkHeader {
    ChunkHeader* next;
    size_t bytes;  // total malloc'd size including this header
  };

  void Grow(size_t min_payload) {
    size_t want = sizeof(ChunkHeader) + min_payload;
    size_t bytes = next_chunk_bytes_ < want ? want : next_chunk_bytes_;
    if (next_chunk_bytes_ < kMaxChunkBytes) next_chunk_bytes_ *= 2;
    char* raw = static_cast<char*>(std::malloc(bytes));
    GRETA_CHECK(raw != nullptr);
    ChunkHeader* chunk = reinterpret_cast<ChunkHeader*>(raw);
    chunk->next = head_;
    chunk->bytes = bytes;
    head_ = chunk;
    cursor_ = raw + sizeof(ChunkHeader);
    limit_ = raw + bytes;
    footprint_ += bytes;
  }

  void FreeChunks() {
    ChunkHeader* chunk = head_;
    while (chunk != nullptr) {
      ChunkHeader* next = chunk->next;
      std::free(chunk);
      chunk = next;
    }
    head_ = nullptr;
    cursor_ = limit_ = nullptr;
    footprint_ = 0;
  }

  ChunkHeader* head_ = nullptr;
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t footprint_ = 0;
  size_t next_chunk_bytes_;
};

}  // namespace greta

#endif  // GRETA_COMMON_ARENA_H_
