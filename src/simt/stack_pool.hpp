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
//  * Recycled warm — a slab released on location exit goes on a LIFO warm
//    list with no syscall and stays there for the pool's whole life, so
//    the next location reuses pages that are already faulted in.  acquire
//    takes a warm slab before it carves a new one, so a pool never touches
//    more slabs than its peak *live* locations: residency is bounded by
//    the peak live slabs, not by spawned ones.  Released slabs keep their
//    pages until the pool ends; they are resident at the peak anyway.
//  * Kept per thread — the destructor hands up to kCachedChunks chunks,
//    with their warm slabs, to a thread_local cache, and the next
//    pool built on that thread with the same slab size adopts them: the
//    back-to-back engines of one sweep worker skip mmap, first touch and
//    munmap.  Other chunks are unmapped; the cache unmaps what it holds
//    when its thread exits.  A pool that finds the cache empty or holding
//    another slab size maps chunks as usual.
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
  /// number of pages.  Adopts the thread's cached chunks when they have
  /// that slab size.
  explicit StackPool(std::size_t slab_bytes);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns a slab of slab_bytes(): the last released slab when one is
  /// free, else the next slab of the current chunk (mapping a fresh chunk
  /// when exhausted).  Recycled slabs are *not* zeroed — fiber initial
  /// frames overwrite everything they read.
  char* acquire();

  /// Returns `base` (a pointer obtained from acquire) to the warm list.
  void release(char* base);

  std::size_t slab_bytes() const { return slab_bytes_; }

 private:
  static constexpr std::size_t kSlabsPerChunk = 64;
  /// Chunks a pool hands to its thread's cache on destruction.  More chunks
  /// cover more engines without a fresh mmap but raise peak RSS; DESIGN.md
  /// §12 has the measurements behind 2.
  static constexpr std::size_t kCachedChunks = 2;

  struct Chunk {
    char* base = nullptr;   ///< mapping base (guard page lives here)
    std::size_t bytes = 0;  ///< full mapping length
    std::size_t used = 0;   ///< slabs carved so far
  };
  /// Everything a pool owns besides its slab size; what the thread's cache
  /// keeps between pools.
  struct Slabs {
    std::vector<Chunk> chunks;
    std::vector<char*> warm;  ///< released, pages still committed (LIFO)
  };
  struct Cache;
  /// The calling thread's cache.  It is destroyed at thread exit, so no
  /// StackPool may have static or thread storage duration.
  static Cache& thread_cache();
  static void unmap(const Chunk& c);

  std::size_t slab_bytes_;
  std::size_t page_bytes_;
  Slabs slabs_;
};

}  // namespace ats::simt::detail
