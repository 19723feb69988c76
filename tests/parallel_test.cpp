// Tests for the thread pool (common/parallel) and the parallel experiment
// runner's bit-determinism guarantee: any worker count must produce output
// byte-identical to the forced-sequential path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "gen/experiment.hpp"
#include "test_util.hpp"

namespace ats {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SequentialPoolRunsInOrder) {
  par::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ReusableAcrossGrids) {
  par::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(round + 1, [&](std::size_t i) {
      sum.fetch_add(static_cast<std::int64_t>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::int64_t>(round) * (round + 1) / 2);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  par::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("cell 7");
                        }),
      std::runtime_error);
  // The pool survives a failed grid.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroAndOneCellGrids) {
  par::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, DefaultJobsIsPositive) {
  EXPECT_GE(par::default_jobs(), 1);
}

TEST(ThreadPool, DefaultJobsIgnoresMalformedAtsJobs) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  const char* prior = std::getenv("ATS_JOBS");
  const std::string saved = prior ? prior : "";
  ::setenv("ATS_JOBS", "7", 1);
  EXPECT_EQ(par::default_jobs(), 7);
  for (const char* bad : {"7x", "+7", "0", "-3", "99999999999"}) {
    ::setenv("ATS_JOBS", bad, 1);
    EXPECT_EQ(par::default_jobs(), fallback) << "ATS_JOBS=" << bad;
  }
  if (prior) {
    ::setenv("ATS_JOBS", saved.c_str(), 1);
  } else {
    ::unsetenv("ATS_JOBS");
  }
}

/// This process's thread count from /proc/self/status, or -1 where that
/// file is absent.
int process_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// process_threads() once it has settled back to `want`: a joined thread
/// can outlive its join in the kernel's count for a moment.
int settled_threads(int want) {
  int n = process_threads();
  for (int i = 0; i < 200 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = process_threads();
  }
  return n;
}

TEST(ThreadPool, HoldsNoThreadsOutsideAGrid) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  par::ThreadPool pool(8);
  EXPECT_EQ(process_threads(), before) << "after constructing ThreadPool(8)";
  pool.parallel_for(64, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(settled_threads(before), before) << "after the grid returned";
}

TEST(ThreadPool, GridRunsOnAtMostMinJobsCellsThreads) {
  par::ThreadPool wide(8);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  wide.parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller) << "a 1-cell grid runs on the caller's thread";

  for (const auto& [jobs, n] :
       {std::pair{8, std::size_t{3}}, std::pair{3, std::size_t{200}},
        std::pair{1, std::size_t{50}}}) {
    par::ThreadPool pool(jobs);
    std::mutex mu;
    std::set<std::thread::id> ids;
    pool.parallel_for(n, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), std::min(static_cast<std::size_t>(jobs), n))
        << "jobs=" << jobs << " n=" << n;
  }
}


gen::ExperimentPlan small_plan(int jobs) {
  gen::ExperimentPlan plan;
  plan.property = "late_sender";
  plan.base.set("basework", "0.005");
  plan.base.set("r", "2");
  plan.axis = {"extrawork", {"0.005", "0.01", "0.02", "0.04"}};
  plan.config.nprocs = 4;
  plan.jobs = jobs;
  return plan;
}

TEST(ParallelExperiment, CsvBitIdenticalToSequential) {
  // The acceptance bar of the parallel runner: the CSV rendered from a
  // multi-threaded sweep is byte-identical to the forced-sequential
  // (pool size 1) reference.
  const gen::ExperimentPlan seq = small_plan(1);
  const auto seq_rows = testutil::plain_sweep(seq);
  const std::string seq_csv = experiment_csv(seq, seq_rows);
  for (int jobs : {2, 4, 7}) {
    const gen::ExperimentPlan par_plan = small_plan(jobs);
    const auto par_rows = testutil::plain_sweep(par_plan);
    EXPECT_EQ(experiment_csv(par_plan, par_rows), seq_csv)
        << "jobs=" << jobs;
    ASSERT_EQ(par_rows.size(), seq_rows.size());
    for (std::size_t i = 0; i < par_rows.size(); ++i) {
      EXPECT_EQ(par_rows[i].severity, seq_rows[i].severity)
          << "jobs=" << jobs << " row " << i;
      EXPECT_EQ(par_rows[i].total_time, seq_rows[i].total_time)
          << "jobs=" << jobs << " row " << i;
      EXPECT_EQ(par_rows[i].detected, seq_rows[i].detected)
          << "jobs=" << jobs << " row " << i;
      EXPECT_EQ(par_rows[i].dominant, seq_rows[i].dominant)
          << "jobs=" << jobs << " row " << i;
    }
  }
}

TEST(ParallelExperiment, NpAxisBitIdenticalToSequential) {
  gen::ExperimentPlan plan;
  plan.property = "imbalance_at_mpi_barrier";
  plan.base.set("df", "linear:low=0.01,high=0.05");
  plan.base.set("r", "2");
  plan.axis = {"np", {"2", "4", "8"}};
  plan.jobs = 1;
  const auto seq_rows = testutil::plain_sweep(plan);
  plan.jobs = 3;
  const auto par_rows = testutil::plain_sweep(plan);
  EXPECT_EQ(experiment_csv(plan, par_rows), experiment_csv(plan, seq_rows));
}

TEST(ParallelExperiment, ExceptionInCellPropagates) {
  gen::ExperimentPlan plan = small_plan(2);
  plan.property = "no_such_property_function";
  EXPECT_THROW(testutil::plain_sweep(plan), ats::Error);
}

}  // namespace
}  // namespace ats
