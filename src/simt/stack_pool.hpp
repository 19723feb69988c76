// Pooled, lazily-committed fiber stacks (DESIGN.md §12).
//
// The naive fiber engine allocated (and zero-filled) a full stack per
// location up front: at 100k locations × 256 KiB that is ~25 GB of touched
// pages before the first event is simulated.  The pool replaces that with
// slabs carved out of large anonymous MAP_NORESERVE mappings:
//
//  * Lazily committed — a slab costs address space until the fiber's
//    frames actually touch its pages; an idle location costs bytes, not
//    pages.
//  * Chunked — slabs are carved 64 at a time from one mmap, so the VMA
//    count grows by ~2 per *chunk*, not per slab (vm.max_map_count is
//    ~65530 by default; per-slab mappings or guard pages would exhaust it
//    long before 100k locations).
//  * Recycled — a slab released on location exit goes to a free list after
//    MADV_DONTNEED returns its committed pages to the kernel, so peak
//    residency tracks *live* locations, not spawned ones.
//  * Guarded — the page below each chunk's first slab is PROT_NONE, so the
//    deepest slab of every chunk faults loudly on overflow (heap-allocated
//    stacks had no guard at all; per-slab guards are a VMA each).
//
// Non-mmap platforms fall back to plain heap slabs — correct, just without
// lazy commit.
#pragma once

#include <cstddef>
#include <vector>

namespace ats::simt::detail {

class StackPool {
 public:
  /// All slabs have the same size; `slab_bytes` is rounded up to a whole
  /// number of pages.
  explicit StackPool(std::size_t slab_bytes);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns a slab of slab_bytes(); recycles a released slab when one is
  /// free, otherwise carves the next slab from the current chunk (mapping
  /// a fresh chunk when exhausted).  Recycled slabs are *not* zeroed —
  /// fiber initial frames overwrite everything they read.
  char* acquire();

  /// Returns `base` (a pointer obtained from acquire) to the free list and
  /// releases its committed pages back to the kernel.
  void release(char* base);

  std::size_t slab_bytes() const { return slab_bytes_; }
  /// Slabs currently acquired and not released.
  std::size_t live_slabs() const { return live_; }
  /// High-water mark of live_slabs().
  std::size_t peak_live_slabs() const { return peak_live_; }
  /// Bytes of address space reserved across all chunks (not residency).
  std::size_t reserved_bytes() const;

 private:
  struct Chunk {
    char* base = nullptr;   ///< mapping base (guard page lives here)
    std::size_t bytes = 0;  ///< full mapping length
    std::size_t used = 0;   ///< slabs carved so far
  };

  static constexpr std::size_t kSlabsPerChunk = 64;

  std::size_t slab_bytes_;
  std::size_t page_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<char*> free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace ats::simt::detail
