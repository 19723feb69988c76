// Unit tests for simt::detail::StackPool: a borrowed slab is never handed
// out twice, released slabs come back LIFO and are reused before any new
// slab is carved, a finished pool hands at most its first two chunks to the
// next pool of the same slab size on its thread, and every slab handed out
// is writable from its lowest to its highest byte.
//
// Each test uses its own slab size, so a pool never adopts chunks another
// test left in the thread's cache.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "simt/stack_pool.hpp"

namespace ats::simt::detail {
namespace {

const std::size_t kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
/// Slabs per chunk and chunks a finished pool caches (stack_pool.hpp).
constexpr std::size_t kSlabsPerChunk = 64;
constexpr std::size_t kCachedChunks = 2;
/// More releases than the cached chunks hold.
constexpr std::size_t kMany = kCachedChunks * kSlabsPerChunk + 72;

/// Writes the lowest and the highest byte of `slab`.
void touch(const StackPool& pool, char* slab) {
  slab[0] = 1;
  slab[pool.slab_bytes() - 1] = 2;
}

std::vector<char*> acquire_n(StackPool& pool, std::size_t n) {
  std::vector<char*> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(pool.acquire());
    touch(pool, out.back());
  }
  return out;
}

TEST(StackPool, SlabSizeRoundsUpToWholePages) {
  StackPool pool(3 * kPage + 1);
  EXPECT_EQ(pool.slab_bytes() % kPage, 0u);
  EXPECT_GE(pool.slab_bytes(), 3 * kPage + 1);
}

TEST(StackPool, BorrowedSlabIsNeverHandedOutTwice) {
  StackPool pool(5 * kPage);
  std::set<char*> borrowed;
  std::vector<char*> order;  // borrowed slabs, in acquire order
  std::uint32_t state = 12345;
  for (int step = 0; step < 2000; ++step) {
    state = state * 1664525u + 1013904223u;
    if (order.empty() || (state >> 16) % 3 != 0) {
      char* slab = pool.acquire();
      touch(pool, slab);
      ASSERT_TRUE(borrowed.insert(slab).second)
          << "slab handed out twice at step " << step;
      order.push_back(slab);
    } else {
      const std::size_t i = (state >> 8) % order.size();
      borrowed.erase(order[i]);
      pool.release(order[i]);
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (char* slab : order) pool.release(slab);
}

TEST(StackPool, ReuseIsLastReleasedFirst) {
  StackPool pool(6 * kPage);
  const std::vector<char*> s = acquire_n(pool, 3);
  pool.release(s[0]);
  pool.release(s[2]);
  EXPECT_EQ(pool.acquire(), s[2]);
  EXPECT_EQ(pool.acquire(), s[0]);
  pool.release(s[1]);
  EXPECT_EQ(pool.acquire(), s[1]);
  for (char* slab : s) pool.release(slab);
}

TEST(StackPool, ManyReleasesAreAllReusedBeforeCarving) {
  StackPool pool(7 * kPage);
  const std::vector<char*> first = acquire_n(pool, kMany);
  const std::set<char*> carved(first.begin(), first.end());
  ASSERT_EQ(carved.size(), kMany);
  for (char* slab : first) pool.release(slab);
  const std::vector<char*> again = acquire_n(pool, kMany);
  EXPECT_EQ(std::set<char*>(again.begin(), again.end()), carved);
  // Reuse runs in reverse release order.
  for (std::size_t i = 0; i < kMany; ++i) {
    ASSERT_EQ(again[i], first[kMany - 1 - i]) << "acquire " << i;
  }
  // Only now does the pool carve a slab it has not handed out before.
  char* fresh = pool.acquire();
  touch(pool, fresh);
  EXPECT_EQ(carved.count(fresh), 0u);
  pool.release(fresh);
  for (char* slab : again) pool.release(slab);
}

TEST(StackPool, NextPoolAdoptsAtMostTwoChunks) {
  const std::size_t kSlab = 9 * kPage;
  std::vector<char*> first;
  {
    StackPool a(kSlab);
    first = acquire_n(a, kMany);
    for (char* slab : first) a.release(slab);
  }
  // Slabs are carved in address order within a chunk and chunk by chunk,
  // so the first kCachedChunks * kSlabsPerChunk acquires cover exactly the
  // chunks a finished pool keeps.
  const std::set<char*> kept(first.begin(),
                             first.begin() + kCachedChunks * kSlabsPerChunk);
  std::vector<char*> adopted;
  {
    StackPool b(kSlab);
    adopted = acquire_n(b, kept.size());
    EXPECT_EQ(std::set<char*>(adopted.begin(), adopted.end()), kept);
    // The next slabs are new ones from a chunk of b's own.  A slab of a's
    // unmapped chunks left on the list would fault in touch().
    const std::vector<char*> more = acquire_n(b, kSlabsPerChunk + 8);
    std::set<char*> seen(kept);
    for (char* slab : more) EXPECT_TRUE(seen.insert(slab).second);
    for (char* slab : adopted) b.release(slab);
    for (char* slab : more) b.release(slab);
  }
  // b's chunks are now cached.  A pool of another slab size leaves them
  // there and maps its own chunk, which cannot overlap them.
  StackPool other(11 * kPage);
  for (char* slab : acquire_n(other, 3)) {
    for (char* k : kept) {
      EXPECT_FALSE(slab < k + kSlab && k < slab + other.slab_bytes());
    }
    other.release(slab);
  }
}

TEST(StackPool, PoolWithFewerChunksHandsOverAllOfThem) {
  const std::size_t kSlab = 10 * kPage;
  std::vector<char*> first;
  {
    StackPool a(kSlab);
    first = acquire_n(a, 10);
    for (char* slab : first) a.release(slab);
  }
  StackPool b(kSlab);
  const std::vector<char*> adopted = acquire_n(b, 10);
  EXPECT_EQ(std::set<char*>(adopted.begin(), adopted.end()),
            std::set<char*>(first.begin(), first.end()));
  // The rest of a's chunk is carved next, in address order.
  char* next = b.acquire();
  touch(b, next);
  EXPECT_EQ(next, first.front() + 10 * kSlab);
  b.release(next);
  for (char* slab : adopted) b.release(slab);
}

}  // namespace
}  // namespace ats::simt::detail
