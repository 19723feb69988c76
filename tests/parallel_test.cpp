// Tests for the thread pool (common/parallel) and the parallel experiment
// runner's bit-determinism guarantee: any worker count must produce output
// byte-identical to the forced-sequential path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
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
