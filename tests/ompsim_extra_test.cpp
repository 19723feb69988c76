// Additional simulated-OpenMP coverage: guided schedule shape, degenerate
// loop bounds, sections/threads mismatches, nowait single, nested teams
// sharing process-wide locks, hybrid MPI-from-master interactions.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "test_util.hpp"

namespace ats::omp {
namespace {

OmpRunOptions clean_options() {
  OmpRunOptions opt;
  opt.cost = testutil::clean_omp_cost();
  return opt;
}

VDur ms(std::int64_t v) { return VDur::millis(v); }

TEST(OmpExtra, GuidedSingleThreadIsContiguous) {
  // With one thread, guided scheduling must walk the iteration space in
  // order without gaps or repeats.
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 1, [&](OmpCtx& o) {
      std::int64_t prev = -1;
      o.for_guided(100, 1, [&](std::int64_t i) {
        EXPECT_EQ(i, prev + 1);
        prev = i;
      });
      EXPECT_EQ(prev, 99);
    });
  });
}

TEST(OmpExtra, GuidedMultiThreadCoversOnce) {
  std::vector<int> hits(128, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      o.for_guided(128, 4, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(OmpExtra, EmptyLoopsAndSections) {
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      o.for_static(0, 0, [&](std::int64_t) { FAIL(); });
      o.for_dynamic(0, 2, [&](std::int64_t) { FAIL(); });
      o.for_guided(0, 1, [&](std::int64_t) { FAIL(); });
      o.sections({});
    });
  });
}

TEST(OmpExtra, MoreSectionsThanThreads) {
  std::vector<int> runs(9, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      std::vector<std::function<void()>> secs;
      for (int s = 0; s < 9; ++s) {
        secs.emplace_back([&runs, s] { ++runs[static_cast<std::size_t>(s)]; });
      }
      o.sections(secs);
    });
  });
  for (int r : runs) EXPECT_EQ(r, 1);
}

TEST(OmpExtra, FewerIterationsThanThreads) {
  std::vector<int> hits(2, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 8, [&](OmpCtx& o) {
      o.for_static(2, 0, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1}));
}

TEST(OmpExtra, SingleNowaitDoesNotBarrier) {
  VTime fast_thread_after;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      o.single([&] { o.sim().advance(ms(10)); }, /*nowait=*/true);
      if (o.sim().now() == VTime::zero()) {
        fast_thread_after = o.sim().now();
      }
      o.barrier();
    });
  });
  EXPECT_EQ(fast_thread_after, VTime::zero());
}

TEST(OmpExtra, NestedTeamsShareProcessLocks) {
  // Inner teams of different outer threads contend on the same named
  // critical section: total span must serialise all four holders.
  VTime end;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& outer) {
      parallel(outer.sim(), outer.runtime(), 2, [&](OmpCtx& inner) {
        inner.critical("shared", [&] { inner.sim().advance(ms(5)); });
      }, "inner");
    });
    end = ctx.now();
  });
  EXPECT_GE(end - VTime::zero(), ms(20));
}

TEST(OmpExtra, DynamicChunkLargerThanLoop) {
  std::vector<int> hits(3, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.for_dynamic(3, 100, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(OmpExtra, BarrierCostAppliesOnce) {
  auto opt = clean_options();
  opt.cost.barrier_cost = VDur::micros(100);
  VTime end;
  run_omp(opt, [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      o.barrier();
    });
    end = ctx.now();
  });
  // Explicit barrier + implicit region barrier: 2 x 100us.
  EXPECT_EQ(end, VTime::zero() + VDur::micros(200));
}

TEST(OmpExtra, HybridMasterMpiFromTeam) {
  // Inside a parallel region, the master exchanges MPI messages while
  // workers compute; both sides must complete and the trace must contain
  // thread locations for every rank.
  mpi::MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = testutil::clean_mpi_cost();
  auto result = mpi::run_mpi(opt, [&](mpi::Proc& p) {
    Runtime rt(p.world().trace(), testutil::clean_omp_cost());
    parallel(p.sim(), rt, 3, [&](OmpCtx& o) {
      o.master([&] {
        int v = p.world_rank(), w = -1;
        const int other = 1 - p.world_rank();
        p.sendrecv(&v, 1, mpi::Datatype::kInt32, other, 0, &w, 1,
                   mpi::Datatype::kInt32, other, 0, p.comm_world());
        EXPECT_EQ(w, other);
      });
      o.barrier();
    });
  });
  // 2 ranks + 2x2 worker threads.
  EXPECT_EQ(result.trace.location_count(), 6u);
}

TEST(OmpExtra, TraceLockEventsBalanced) {
  auto result = run_omp(clean_options(),
                        [&](simt::Context& ctx, Runtime& rt) {
                          parallel(ctx, rt, 3, [&](OmpCtx& o) {
                            for (int i = 0; i < 4; ++i) {
                              o.critical("c", [&] {
                                o.sim().advance(VDur::micros(100));
                              });
                            }
                          });
                        });
  int acq = 0, rel = 0;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type == trace::EventType::kLockAcquire) ++acq;
    if (e->type == trace::EventType::kLockRelease) ++rel;
  }
  EXPECT_EQ(acq, 12);
  EXPECT_EQ(rel, 12);
}

TEST(OmpExtra, DeterministicNestedRun) {
  auto once = [] {
    auto result = run_omp(OmpRunOptions{},
                          [&](simt::Context& ctx, Runtime& rt) {
                            parallel(ctx, rt, 3, [&](OmpCtx& o) {
                              o.for_dynamic(30, 2, [&](std::int64_t i) {
                                o.sim().advance(
                                    VDur::micros(50 * (i % 4 + 1)));
                              });
                              o.critical("x", [&] {
                                o.sim().advance(VDur::micros(200));
                              });
                            });
                          });
    return std::make_pair(result.makespan, result.trace.event_count());
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace ats::omp
