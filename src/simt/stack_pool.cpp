#include "simt/stack_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ATS_SIMT_HAS_MMAP_STACKS 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define ATS_SIMT_HAS_MMAP_STACKS 0
#endif

namespace ats::simt::detail {

namespace {
std::size_t page_size() {
#if ATS_SIMT_HAS_MMAP_STACKS
  const long p = ::sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : 4096;
#else
  return 4096;
#endif
}
}  // namespace

/// Chunks a finished pool left behind on this thread, keyed by slab size.
struct StackPool::Cache {
  std::size_t slab_bytes = 0;
  Slabs slabs;

  ~Cache() { clear(); }
  void clear() {
    for (const Chunk& c : slabs.chunks) unmap(c);
    slabs = Slabs{};
  }
};

StackPool::Cache& StackPool::thread_cache() {
  thread_local Cache cache;
  return cache;
}

void StackPool::unmap(const Chunk& c) {
#if ATS_SIMT_HAS_MMAP_STACKS
  ::munmap(c.base, c.bytes);
#else
  std::free(c.base);
#endif
}

StackPool::StackPool(std::size_t slab_bytes) : page_bytes_(page_size()) {
  // Round the slab up to whole pages so every slab base is page-aligned.
  slab_bytes_ = ((slab_bytes + page_bytes_ - 1) / page_bytes_) * page_bytes_;
  if (slab_bytes_ == 0) slab_bytes_ = page_bytes_;
  Cache& cache = thread_cache();
  if (cache.slab_bytes == slab_bytes_) {
    slabs_ = std::exchange(cache.slabs, Slabs{});
    cache.slab_bytes = 0;
  }
}

StackPool::~StackPool() {
  // Keep the first kCachedChunks chunks and the released slabs inside them;
  // a slab still borrowed (none, when the owning engine has shut down) is
  // not on the warm list, so it is never handed out twice.
  const std::size_t kept = std::min(slabs_.chunks.size(), kCachedChunks);
  for (std::size_t i = kept; i < slabs_.chunks.size(); ++i) {
    unmap(slabs_.chunks[i]);
  }
  slabs_.chunks.resize(kept);
  std::erase_if(slabs_.warm, [this](char* slab) {
    for (const Chunk& c : slabs_.chunks) {
      if (slab >= c.base && slab < c.base + c.bytes) return false;
    }
    return true;
  });
  Cache& cache = thread_cache();
  cache.clear();
  cache.slab_bytes = slab_bytes_;
  cache.slabs = std::move(slabs_);
}

char* StackPool::acquire() {
  if (!slabs_.warm.empty()) {
    char* slab = slabs_.warm.back();
    slabs_.warm.pop_back();
    return slab;
  }
  std::vector<Chunk>& chunks = slabs_.chunks;
  if (chunks.empty() || chunks.back().used == kSlabsPerChunk) {
    Chunk c;
#if ATS_SIMT_HAS_MMAP_STACKS
    c.bytes = page_bytes_ + kSlabsPerChunk * slab_bytes_;
    void* addr = ::mmap(nullptr, c.bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (addr == MAP_FAILED) throw std::bad_alloc();
    c.base = static_cast<char*>(addr);
    // Guard page below the chunk's first slab (see the header comment);
    // refuse the chunk rather than run without it.
    if (::mprotect(c.base, page_bytes_, PROT_NONE) != 0) {
      ::munmap(c.base, c.bytes);
      throw std::bad_alloc();
    }
#else
    c.bytes = kSlabsPerChunk * slab_bytes_;
    c.base = static_cast<char*>(std::malloc(c.bytes));
    if (c.base == nullptr) throw std::bad_alloc();
#endif
    chunks.push_back(c);
  }
  Chunk& c = chunks.back();
#if ATS_SIMT_HAS_MMAP_STACKS
  char* slab = c.base + page_bytes_ + c.used * slab_bytes_;
#else
  char* slab = c.base + c.used * slab_bytes_;
#endif
  ++c.used;
  return slab;
}

void StackPool::release(char* base) {
  if (base != nullptr) slabs_.warm.push_back(base);
}

}  // namespace ats::simt::detail
