#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const std::uint64_t pm : kTailLadderPermille) {
    const std::size_t rank = (pm * n + 999) / 1000;
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
    const std::size_t beyond = n - k;
    // Samples beyond shrink as p grows: stop at the first percentile
    // without enough of them (the median is always reported).
    if (beyond < kTailMinBeyond && pm != kTailLadderPermille[0]) break;
    t.percentile = static_cast<double>(pm) / 10.0;
    t.value = v[k - 1];
    t.beyond = beyond;
    t.enough = beyond >= kTailMinBeyond;
    if (!t.enough) break;
  }
  return t;
}

std::uint64_t SeedStream::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
