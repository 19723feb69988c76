// Unit tests for core::ZeroedBytes, the storage of MpiBuf and MpiVBuf:
// every buffer reads zero over its whole length, also when its block was
// written by an earlier buffer, at each side of the large-block line; a
// block never backs two live buffers; the block cache never holds more
// than its cap, and idle cached blocks make room for live blocks of
// another size; concurrent allocate/free cycles see the same zeroed
// contents as a serial run; and both MpiVBuf buffers start zeroed.
//
// The block cache is process-wide and shared by every test here, so a test
// that checks reuse first asks whether the cache has room for its block.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/buffer.hpp"

namespace ats::core {
namespace {

constexpr std::size_t kLarge = ZeroedBytes::kLargeBytes;
constexpr std::size_t kCap = ZeroedBytes::kCacheCapBytes;

/// Number of bytes of `b` that are not zero.
std::size_t nonzero(const ZeroedBytes& b) {
  return static_cast<std::size_t>(
      std::count_if(b.data(), b.data() + b.size(),
                    [](std::byte x) { return x != std::byte{0}; }));
}

TEST(ZeroedBytes, EmptyHasNoStorage) {
  const ZeroedBytes b(0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.size(), 0u);
}

TEST(ZeroedBytes, ReusedBlockReadsZeroAtEachClassBoundary) {
  for (const std::size_t bytes : {kLarge - 1, kLarge, kLarge + 1}) {
    const void* first = nullptr;
    bool room = false;
    {
      ZeroedBytes b(bytes);
      ASSERT_EQ(b.size(), bytes);
      EXPECT_EQ(nonzero(b), 0u) << bytes << " bytes, first use";
      std::memset(b.data(), 0xa5, bytes);
      first = b.data();
      room = ZeroedBytes::cached_bytes() + std::bit_ceil(bytes) <= kCap;
    }
    const ZeroedBytes again(bytes);
    EXPECT_EQ(nonzero(again), 0u) << bytes << " bytes, reused";
    if (bytes >= kLarge && room) {
      EXPECT_EQ(again.data(), first) << bytes << " bytes: block not reused";
    }
  }
}

TEST(ZeroedBytes, ShorterRequestInADirtiedClassReadsZero) {
  // Dirty a whole 128 KiB block, then take it back at just over 64 KiB.
  {
    ZeroedBytes whole(2 * kLarge);
    std::memset(whole.data(), 0xff, whole.size());
  }
  const ZeroedBytes part(kLarge + 1);
  EXPECT_EQ(nonzero(part), 0u);
}

TEST(ZeroedBytes, NoBlockBacksTwoLiveBuffers) {
  const std::size_t sizes[] = {kLarge - 1, kLarge, kLarge + 1, 3 * kLarge,
                               1 << 20};
  std::vector<std::unique_ptr<ZeroedBytes>> live;
  std::uint32_t state = 4242;
  for (int step = 0; step < 2000; ++step) {
    state = state * 1664525u + 1013904223u;
    // At most 24 live buffers, so the test never holds more than 24 MiB.
    if (live.empty() || (live.size() < 24 && (state >> 16) % 3 != 0)) {
      live.push_back(std::make_unique<ZeroedBytes>(sizes[(state >> 8) % 5]));
      // Dirty it, so its block goes back to the cache written.
      std::memset(live.back()->data(), 0xee, live.back()->size());
    } else {
      live.erase(live.begin() +
                 static_cast<std::ptrdiff_t>((state >> 8) % live.size()));
    }
    std::map<const std::byte*, const std::byte*> ranges;
    for (const auto& b : live) {
      ranges.emplace(b->data(), b->data() + b->size());
    }
    ASSERT_EQ(ranges.size(), live.size())
        << "same block twice at step " << step;
    const std::byte* end = nullptr;
    for (const auto& [lo, hi] : ranges) {
      ASSERT_TRUE(end == nullptr || end <= lo) << "overlap at step " << step;
      end = hi;
    }
  }
}

TEST(ZeroedBytes, CachedBytesNeverExceedTheCap) {
  // More than the cap in untouched 1 MiB blocks: mapped, never resident.
  const std::size_t n = kCap / (1 << 20) + 8;
  std::vector<std::unique_ptr<ZeroedBytes>> held;
  for (std::size_t i = 0; i < n; ++i) {
    held.push_back(std::make_unique<ZeroedBytes>(std::size_t{1} << 20));
  }
  while (!held.empty()) {
    held.pop_back();
    ASSERT_LE(ZeroedBytes::cached_bytes(), kCap);
  }
  // The releases filled the cache to within one block of the cap.
  EXPECT_GT(ZeroedBytes::cached_bytes() + (std::size_t{1} << 20), kCap);
}

TEST(ZeroedBytes, IdleBlocksMakeRoomForLiveOnesOfAnotherSize) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  {
    std::vector<std::unique_ptr<ZeroedBytes>> fill;
    for (std::size_t i = 0; i < kCap / kMiB; ++i) {
      fill.push_back(std::make_unique<ZeroedBytes>(kMiB));
    }
  }
  ASSERT_GT(ZeroedBytes::cached_bytes() + kMiB, kCap);
  // 2 MiB blocks find no cached block of their size.  Each fresh one
  // unmaps idle 1 MiB blocks, so cached and live bytes stay within the cap.
  std::vector<std::unique_ptr<ZeroedBytes>> live;
  for (std::size_t i = 1; i <= kCap / (4 * kMiB); ++i) {
    live.push_back(std::make_unique<ZeroedBytes>(2 * kMiB));
    EXPECT_LE(ZeroedBytes::cached_bytes() + i * 2 * kMiB, kCap) << i;
  }
}

/// One worker's allocate/free cycles: for each cycle, the size and the
/// number of nonzero bytes the fresh buffer held.  Every buffer is then
/// dirtied, so a later buffer on its block must be zeroed again.
std::vector<std::size_t> cycles(std::uint32_t seed) {
  const std::size_t sizes[] = {1000, kLarge - 1, kLarge, kLarge + 1,
                               5 * kLarge + 3};
  std::vector<std::size_t> out;
  std::uint32_t state = seed;
  for (int i = 0; i < 200; ++i) {
    state = state * 1664525u + 1013904223u;
    const ZeroedBytes b(sizes[(state >> 8) % 5]);
    out.push_back(b.size());
    out.push_back(nonzero(b));
    std::memset(b.data(), 0x3c, b.size());
  }
  return out;
}

TEST(ZeroedBytes, ConcurrentCyclesMatchASerialRun) {
  constexpr int kThreads = 4;
  std::vector<std::vector<std::size_t>> serial(kThreads), parallel(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    serial[static_cast<std::size_t>(t)] =
        cycles(101u + static_cast<std::uint32_t>(t));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&parallel, t] {
      parallel[static_cast<std::size_t>(t)] =
          cycles(101u + static_cast<std::uint32_t>(t));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(parallel, serial);
  for (const auto& run : serial) {
    for (std::size_t i = 1; i < run.size(); i += 2) {
      ASSERT_EQ(run[i], 0u) << "cycle " << i / 2 << " saw dirty bytes";
    }
  }
}

TEST(ZeroedBytes, MpiVBufRootAndOwnStorageAreZero) {
  // 64 ranks of 100..300 doubles: a ~100 KiB root buffer, a small own one.
  const Distribution d = Distribution::linear(100, 300);
  for (int round = 0; round < 2; ++round) {
    MpiVBuf v(mpi::Datatype::kDouble, d, 1.0, 64, 63);
    const auto root_bytes =
        static_cast<std::size_t>(v.total()) * sizeof(double);
    ASSERT_GE(root_bytes, kLarge);
    const auto* root = static_cast<const std::byte*>(v.root_data());
    const auto* own = static_cast<const std::byte*>(v.my_data());
    EXPECT_TRUE(std::all_of(root, root + root_bytes,
                            [](std::byte x) { return x == std::byte{0}; }))
        << "round " << round;
    EXPECT_TRUE(std::all_of(own, own + v.my_bytes(),
                            [](std::byte x) { return x == std::byte{0}; }))
        << "round " << round;
    // Dirty both, so the second round gets them back from the cache.
    std::memset(v.root_data(), 0x77, root_bytes);
    std::memset(v.my_data(), 0x77, static_cast<std::size_t>(v.my_bytes()));
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ZeroedBytesDeathTest, ReadOfAReleasedLargeBufferIsReported) {
  // The released block is poisoned in the cache, or unmapped past the cap.
  EXPECT_DEATH(
      {
        const std::byte* stale = nullptr;
        {
          const ZeroedBytes b(kLarge);
          stale = b.data();
        }
        const volatile std::byte x = stale[0];
        (void)x;
      },
      "ERROR: AddressSanitizer");
}
#endif

}  // namespace
}  // namespace ats::core
