#include "core/buffer.hpp"

#include <sys/mman.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>

#include <sanitizer/asan_interface.h>  // no-ops outside ASan builds

namespace ats::core {

namespace {

/// Released large blocks, one LIFO list per power-of-two size class.
struct BlockCache {
  std::mutex mu;
  std::map<std::size_t, std::vector<void*>> free;  ///< by block size
  std::size_t bytes = 0;                           ///< of all listed blocks
  std::size_t live = 0;                            ///< of blocks in use
};
/// Never destroyed, so a buffer released at exit still finds it.
BlockCache& cache = *new BlockCache;

}  // namespace

ZeroedBytes::ZeroedBytes(std::size_t bytes) : data_(nullptr, {bytes}) {
  void* p = nullptr;
  if (bytes > 0 && bytes < kLargeBytes) {
    // Not calloc: glibc's calloc bypasses the thread cache malloc uses.
    if ((p = std::malloc(bytes)) != nullptr) std::memset(p, 0, bytes);
  } else if (bytes >= kLargeBytes) {
    const std::size_t block = std::bit_ceil(bytes);
    std::unique_lock<std::mutex> lock(cache.mu);
    std::vector<void*>& list = cache.free[block];
    cache.live += block;
    if (!list.empty()) {  // written by an earlier buffer
      p = list.back();
      list.pop_back();
      cache.bytes -= block;
      lock.unlock();
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      std::memset(p, 0, bytes);
    } else {  // fresh, so zero; first unmap idle blocks while over the cap
      for (auto& [size, other] : cache.free) {
        for (; !other.empty() && cache.live + cache.bytes > kCacheCapBytes;
             other.pop_back(), cache.bytes -= size) {
          ASAN_UNPOISON_MEMORY_REGION(other.back(), size);
          ::munmap(other.back(), size);
        }
      }
      lock.unlock();
      p = ::mmap(nullptr, block, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, block - bytes);
    }
  }
  if (bytes > 0 && p == nullptr) throw std::bad_alloc();
  data_.reset(static_cast<std::byte*>(p));
}

void ZeroedBytes::Release::operator()(std::byte* p) const {
  if (bytes < kLargeBytes) return std::free(p);
  const std::size_t block = std::bit_ceil(bytes);
  ASAN_POISON_MEMORY_REGION(p, block);
  std::unique_lock<std::mutex> lock(cache.mu);
  cache.live -= block;
  if (cache.live + cache.bytes + block <= kCacheCapBytes) {
    cache.free[block].push_back(p);
    cache.bytes += block;
    return;
  }
  lock.unlock();
  ASAN_UNPOISON_MEMORY_REGION(p, block);
  ::munmap(p, block);
}

std::size_t ZeroedBytes::cached_bytes() {
  const std::lock_guard<std::mutex> lock(cache.mu);
  return cache.bytes;
}

MpiBuf::MpiBuf(mpi::Datatype type, int count)
    : type_(type),
      count_(count),
      storage_(static_cast<std::size_t>(count < 0 ? 0 : count) *
               mpi::datatype_size(type)) {
  require(count >= 0, "MpiBuf: negative element count");
}

void MpiBuf::fill_int(std::int64_t value) {
  const auto fill = [&]<typename T>(T) {
    for (T& x : as<T>()) x = static_cast<T>(value);
  };
  switch (type_) {
    case mpi::Datatype::kByte:
    case mpi::Datatype::kChar: return fill(char{});
    case mpi::Datatype::kInt32: return fill(std::int32_t{});
    case mpi::Datatype::kInt64: return fill(std::int64_t{});
    case mpi::Datatype::kFloat: return fill(float{});
    case mpi::Datatype::kDouble: return fill(double{});
  }
  throw UsageError("MpiBuf::fill_int: unknown datatype");
}

MpiVBuf::MpiVBuf(mpi::Datatype type, const Distribution& d, double scale,
                 int comm_size, int my_rank)
    : type_(type), rank_(my_rank) {
  require(comm_size >= 1, "MpiVBuf: group size must be >= 1");
  require(my_rank >= 0 && my_rank < comm_size, "MpiVBuf: rank out of range");
  for (int r = 0; r < comm_size; ++r) {
    const double v = d(r, comm_size, scale);
    counts_.push_back(v > 0 ? static_cast<int>(std::llround(v)) : 0);
    displs_.push_back(total_);
    total_ += counts_.back();
  }
  const std::size_t esz = mpi::datatype_size(type);
  root_storage_ = ZeroedBytes(static_cast<std::size_t>(total_) * esz);
  my_storage_ = ZeroedBytes(static_cast<std::size_t>(my_count()) * esz);
}

}  // namespace ats::core
