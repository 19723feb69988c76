// Fan-out of embarrassingly parallel grids.
//
// The analysis pipeline multiplies into hundreds of independent
// deterministic simulations (experiment sweeps, the detection matrix).  Each
// cell is pure — it reads a shared immutable plan and writes one pre-sized
// output slot — so no work stealing, futures or task graphs are needed: a
// shared atomic index over [0, n) is both the cheapest and the most
// contention-free schedule for cells of comparable cost.  Results keep their
// slot order, which keeps parallel output bit-identical to sequential runs.
#pragma once

#include <cstddef>
#include <functional>

namespace ats::par {

/// Worker count used when a caller does not specify one: the ATS_JOBS
/// environment variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1).
int default_jobs();

/// The width of a grid fan-out.  The pool holds no threads: each
/// parallel_for starts min(size(), n) - 1 helper threads for its grid and
/// joins them before it returns.  A sequential pool (size() == 1) or a
/// one-cell grid runs every cell on the caller's thread, in index order —
/// the forced-sequential reference path used by determinism tests.
class ThreadPool {
 public:
  /// `jobs` <= 0 selects default_jobs().
  explicit ThreadPool(int jobs = 0);

  int size() const { return jobs_; }

  /// Runs body(i) for every i in [0, n), distributing indices dynamically
  /// over the helpers plus the calling thread.  Blocks until all indices
  /// are done.  The first exception thrown by any body is rethrown on the
  /// caller; indices not yet claimed when it was thrown are skipped.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) const;

 private:
  int jobs_;
};

}  // namespace ats::par
