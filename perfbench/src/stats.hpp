// Order statistics for the benchmark's latency samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.  Sorts `v` in place.
double median(std::vector<double>& v);

/// Percentiles op_tail_ms may report, ascending, in tenths of a percent
/// (integers, so ranks are exact).
inline constexpr std::uint64_t kTailLadderPermille[] = {500, 900, 990, 999};

/// Samples needed strictly beyond a tail percentile before it is reported.
inline constexpr std::size_t kTailMinBeyond = 10;

struct Tail {
  double percentile = 0.0;  ///< chosen ladder percentile
  double value = 0.0;       ///< nearest-rank sample at that percentile
  std::size_t beyond = 0;   ///< samples strictly above the chosen rank
  std::size_t samples = 0;  ///< total samples
  /// False when even the median lacks kTailMinBeyond samples beyond it;
  /// the median is reported then.
  bool enough = false;
};

/// The highest percentile of the ladder that still has at least
/// kTailMinBeyond samples beyond its nearest rank (rank = ceil(p/100 * n)).
/// Sorts `v` in place.
Tail tail(std::vector<double>& v);

/// SplitMix64: the benchmark's own seed-derived stream, so inputs depend
/// only on --seed and this file, never on the standard library's
/// distribution algorithms.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n) for n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, SeedStream& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace perfbench
