// Tests for the simulated OpenMP runtime: fork/join, barriers, worksharing
// schedules, sections/single/master, critical sections and locks, nesting.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <numeric>
#include <set>
#include <vector>

#include "ompsim/omp.hpp"
#include "test_util.hpp"

namespace ats::omp {
namespace {

OmpCostModel clean_cost() {
  OmpCostModel cm;
  cm.fork_cost = VDur::zero();
  cm.barrier_cost = VDur::zero();
  cm.sched_chunk_cost = VDur::zero();
  cm.lock_cost = VDur::zero();
  return cm;
}

OmpRunOptions clean_options() {
  OmpRunOptions opt;
  opt.cost = clean_cost();
  return opt;
}

VDur ms(std::int64_t v) { return VDur::millis(v); }

// Text trace of NowaitConstructsKeepTheirOwnInstances.
const char* const kNowaitTrace =
    "ATS-TRACE 1\n"
    "region 0 omp_parallel omp parallel_region\n"
    "region 1 omp_work omp for(dynamic)\n"
    "region 2 omp_work omp single\n"
    "region 3 omp_sync omp barrier\n"
    "loc 0 -1 process 0 0 master\n"
    "loc 1 0 thread 0 1 master thread 1\n"
    "comm 0 team 2 0 1 master team(parallel_region)\n"
    "E 0 0 0\n"
    "E 0 0 1\n"
    "X 0 4000000 1\n"
    "E 0 4000000 1\n"
    "X 0 6000000 1\n"
    "E 0 6000000 2\n"
    "X 0 7000000 2\n"
    "E 0 7000000 3\n"
    "C 0 7000000 7000000 0 0 omp_barrier -1 0 0\n"
    "X 0 7000000 3\n"
    "C 0 7000000 7000000 0 1 omp_ibarrier -1 0 0\n"
    "X 0 7000000 0\n"
    "E 1 0 0\n"
    "E 1 5500000 1\n"
    "X 1 5500000 1\n"
    "E 1 5500000 1\n"
    "X 1 6500000 1\n"
    "E 1 6500000 2\n"
    "X 1 6500000 2\n"
    "E 1 6500000 3\n"
    "C 1 7000000 6500000 0 0 omp_barrier -1 0 0\n"
    "X 1 7000000 3\n"
    "C 1 7000000 7000000 0 1 omp_ibarrier -1 0 0\n"
    "X 1 7000000 0\n";

TEST(Omp, ParallelRunsAllThreads) {
  std::set<int> tids;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      tids.insert(o.thread_num());
      EXPECT_EQ(o.num_threads(), 4);
    });
  });
  EXPECT_EQ(tids, (std::set<int>{0, 1, 2, 3}));
}

TEST(Omp, SingleThreadTeamWorks) {
  int count = 0;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 1, [&](OmpCtx& o) {
      ++count;
      o.barrier();
      o.for_static(5, 0, [&](std::int64_t) { ++count; });
    });
  });
  EXPECT_EQ(count, 6);
}

TEST(Omp, ImplicitBarrierJoinsAtSlowest) {
  VTime end;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.sim().advance(ms(o.thread_num() * 5));  // thread 3 works 15ms
    });
    end = ctx.now();
  });
  EXPECT_EQ(end, VTime::zero() + ms(15));
}

TEST(Omp, ExplicitBarrierSynchronises) {
  std::vector<VTime> after(3);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      o.sim().advance(ms(o.thread_num() * 4));
      o.barrier();
      after[static_cast<std::size_t>(o.thread_num())] = o.sim().now();
    });
  });
  for (const auto& t : after) EXPECT_EQ(t, VTime::zero() + ms(8));
}

TEST(Omp, ForkCostIsPaid) {
  auto opt = clean_options();
  opt.cost.fork_cost = VDur::micros(100);
  VTime end;
  run_omp(opt, [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [](OmpCtx&) {});
    end = ctx.now();
  });
  EXPECT_EQ(end, VTime::zero() + VDur::micros(100));
}

TEST(Omp, StaticLoopCoversAllIterationsOnce) {
  std::vector<int> hits(100, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.for_static(100, 0, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Omp, StaticLoopBlockPartition) {
  // Default static schedule: contiguous blocks in thread order.
  std::map<int, std::vector<std::int64_t>> mine;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      o.for_static(10, 0, [&](std::int64_t i) {
        mine[o.thread_num()].push_back(i);
      });
    });
  });
  EXPECT_EQ(mine[0], (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(mine[1], (std::vector<std::int64_t>{4, 5, 6}));
  EXPECT_EQ(mine[2], (std::vector<std::int64_t>{7, 8, 9}));
}

TEST(Omp, StaticLoopChunkedRoundRobin) {
  std::map<int, std::vector<std::int64_t>> mine;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      o.for_static(8, 2, [&](std::int64_t i) {
        mine[o.thread_num()].push_back(i);
      });
    });
  });
  EXPECT_EQ(mine[0], (std::vector<std::int64_t>{0, 1, 4, 5}));
  EXPECT_EQ(mine[1], (std::vector<std::int64_t>{2, 3, 6, 7}));
}

TEST(Omp, DynamicLoopCoversAllIterationsOnce) {
  std::vector<int> hits(64, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.for_dynamic(64, 3, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Omp, DynamicLoopBalancesUnevenWork) {
  // Iteration i costs i ms; dynamic scheduling should keep the spread of
  // thread finish times far below the static worst case.
  std::map<int, int> count;
  VTime end;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.for_dynamic(16, 1, [&](std::int64_t i) {
        count[o.thread_num()]++;
        o.sim().advance(ms(i));
      });
    });
    end = ctx.now();
  });
  int total = 0;
  for (auto& [tid, c] : count) total += c;
  EXPECT_EQ(total, 16);
  // Sum of all work is 120ms; perfect balance would be 30ms per thread.
  // Dynamic scheduling must stay well below the 54ms a block-static
  // schedule would give the last thread.
  EXPECT_LE(end - VTime::zero(), ms(45));
  EXPECT_GE(end - VTime::zero(), ms(30));
}

TEST(Omp, GuidedLoopCoversAllIterationsOnce) {
  std::vector<int> hits(200, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.for_guided(200, 2, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
      });
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Omp, NowaitSkipsTheBarrier) {
  // With nowait, a fast thread proceeds past the loop while others work.
  VTime t0_after;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      o.for_static(2, 0, [&](std::int64_t i) {
        if (i == 1) o.sim().advance(ms(10));  // thread 1's iteration is slow
      }, /*nowait=*/true);
      if (o.thread_num() == 0) t0_after = o.sim().now();
      o.barrier();
    });
  });
  EXPECT_EQ(t0_after, VTime::zero());
}

TEST(Omp, SectionsDistributeExactlyOnce) {
  std::vector<int> runs(5, 0);
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      std::vector<std::function<void()>> secs;
      for (int s = 0; s < 5; ++s) {
        secs.emplace_back([&runs, s] { ++runs[static_cast<std::size_t>(s)]; });
      }
      o.sections(secs);
    });
  });
  for (int r : runs) EXPECT_EQ(r, 1);
}

TEST(Omp, SingleExecutesOnce) {
  int runs = 0;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.single([&] { ++runs; });
      o.single([&] { ++runs; });
    });
  });
  EXPECT_EQ(runs, 2);  // each single construct ran exactly once
}

TEST(Omp, SingleGoesToFirstArriver) {
  int who = -1;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 3, [&](OmpCtx& o) {
      // Thread 2 arrives first (others delayed).
      if (o.thread_num() != 2) o.sim().advance(ms(5));
      o.single([&] { who = o.thread_num(); });
    });
  });
  EXPECT_EQ(who, 2);
}

TEST(Omp, NowaitConstructsKeepTheirOwnInstances) {
  // Thread 0 runs ahead through two nowait dynamic loops and a nowait
  // single; thread 1 starts 5.5 ms late.  Each construct's chunks and its
  // single must come from that construct's own instance: thread 1 finds
  // loop A drained, takes the one chunk of loop B still open, and finds the
  // single taken.  Thread 0 leaves every construct before thread 1 enters
  // it, so an instance must survive until the last thread has left.
  struct Grab {
    int construct;
    std::int64_t i;
    int tid;
    VTime at;
    bool operator==(const Grab&) const = default;
  };
  std::vector<Grab> grabs;
  std::vector<VTime> ends(2);
  const OmpRunResult result =
      run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
        parallel(ctx, rt, 2, [&](OmpCtx& o) {
          const int tid = o.thread_num();
          if (tid == 1) o.sim().advance(VDur::micros(5500));
          auto loop = [&](int construct) {
            return [&, construct, tid](std::int64_t i) {
              grabs.push_back({construct, i, tid, o.sim().now()});
              o.sim().advance(ms(1));
            };
          };
          o.for_dynamic(4, 1, loop(0), /*nowait=*/true);
          o.for_dynamic(3, 1, loop(1), /*nowait=*/true);
          o.single(
              [&] {
                grabs.push_back({2, 0, tid, o.sim().now()});
                o.sim().advance(ms(1));
              },
              /*nowait=*/true);
          o.barrier();
          ends[static_cast<std::size_t>(tid)] = o.sim().now();
        });
      });
  const VTime z = VTime::zero();
  const std::vector<Grab> want = {
      {0, 0, 0, z},           {0, 1, 0, z + ms(1)},
      {0, 2, 0, z + ms(2)},   {0, 3, 0, z + ms(3)},
      {1, 0, 0, z + ms(4)},   {1, 1, 0, z + ms(5)},
      {1, 2, 1, z + VDur::micros(5500)},
      {2, 0, 0, z + ms(6)},
  };
  EXPECT_EQ(grabs, want);
  EXPECT_EQ(ends, (std::vector<VTime>{z + ms(7), z + ms(7)}));
  EXPECT_EQ(result.makespan, z + ms(7));
  std::ostringstream os;
  result.trace.save(os);
  EXPECT_EQ(os.str(), kNowaitTrace) << os.str();
}

TEST(Omp, MasterRunsOnThreadZeroOnly) {
  std::set<int> ran;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.master([&] { ran.insert(o.thread_num()); });
    });
  });
  EXPECT_EQ(ran, (std::set<int>{0}));
}

TEST(Omp, CriticalIsMutuallyExclusiveInVirtualTime) {
  // Each thread holds the critical section for 5ms; total span must be at
  // least 4*5ms because the section serialises.
  VTime end;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.critical("c", [&] { o.sim().advance(ms(5)); });
    });
    end = ctx.now();
  });
  EXPECT_GE(end - VTime::zero(), ms(20));
}

TEST(Omp, CriticalFifoOrder) {
  std::vector<int> order;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      // Stagger arrivals so the queue order is deterministic.
      o.sim().advance(ms(o.thread_num()));
      o.critical("c", [&] {
        order.push_back(o.thread_num());
        o.sim().advance(ms(10));
      });
    });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Omp, DistinctCriticalNamesDoNotContend) {
  VTime end;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 4, [&](OmpCtx& o) {
      o.critical("c" + std::to_string(o.thread_num()),
                 [&] { o.sim().advance(ms(5)); });
    });
    end = ctx.now();
  });
  EXPECT_EQ(end, VTime::zero() + ms(5));
}

TEST(Omp, ExplicitLockBlocksSecondAcquirer) {
  VTime t1_acquired;
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& o) {
      if (o.thread_num() == 0) {
        o.set_lock("L");
        o.sim().advance(ms(8));
        o.unset_lock("L");
      } else {
        o.sim().advance(ms(1));  // let thread 0 take the lock first
        o.set_lock("L");
        t1_acquired = o.sim().now();
        o.unset_lock("L");
      }
    });
  });
  EXPECT_EQ(t1_acquired, VTime::zero() + ms(8));
}

TEST(Omp, UnsetWithoutSetThrows) {
  EXPECT_THROW(run_omp(clean_options(),
                       [&](simt::Context& ctx, Runtime& rt) {
                         parallel(ctx, rt, 1,
                                  [&](OmpCtx& o) { o.unset_lock("nope"); });
                       }),
               UsageError);
}

TEST(Omp, NestedParallelism) {
  std::set<std::pair<int, int>> seen;  // (outer tid, inner tid)
  run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
    parallel(ctx, rt, 2, [&](OmpCtx& outer) {
      const int otid = outer.thread_num();
      parallel(outer.sim(), outer.runtime(), 2, [&, otid](OmpCtx& inner) {
        seen.insert({otid, inner.thread_num()});
      }, "inner");
    });
  });
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Omp, TeamAndThreadLocationsRecordedInTrace) {
  auto result = run_omp(clean_options(),
                        [&](simt::Context& ctx, Runtime& rt) {
                          parallel(ctx, rt, 3, [](OmpCtx&) {});
                        });
  EXPECT_EQ(result.trace.location_count(), 3u);  // master + 2 children
  EXPECT_EQ(result.trace.comm_count(), 1u);
  const auto& team = result.trace.comm(0);
  EXPECT_EQ(team.kind, trace::CommKind::kOmpTeam);
  EXPECT_EQ(team.members.size(), 3u);
  EXPECT_EQ(team.members[0], 0);  // master is thread 0
  EXPECT_EQ(result.trace.location(1).kind, trace::LocKind::kThread);
  EXPECT_EQ(result.trace.location(1).parent, 0);
}

TEST(Omp, IBarrierEventsTaggedPerConstruct) {
  auto result = run_omp(clean_options(),
                        [&](simt::Context& ctx, Runtime& rt) {
                          parallel(ctx, rt, 2, [](OmpCtx& o) {
                            o.for_static(4, 0, [](std::int64_t) {});
                            o.barrier();
                          });
                        });
  int ibarriers = 0, explicit_barriers = 0;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type != trace::EventType::kCollEnd) continue;
    if (e->op == trace::CollOp::kOmpIBarrier) ++ibarriers;
    if (e->op == trace::CollOp::kOmpBarrier) ++explicit_barriers;
  }
  // Implicit barriers: one after the loop + one at region end, per thread.
  EXPECT_EQ(ibarriers, 4);
  EXPECT_EQ(explicit_barriers, 2);
}

TEST(Omp, DeterministicAcrossRuns) {
  auto once = [] {
    std::vector<std::pair<int, std::int64_t>> grabs;
    run_omp(clean_options(), [&](simt::Context& ctx, Runtime& rt) {
      parallel(ctx, rt, 3, [&](OmpCtx& o) {
        o.for_dynamic(20, 2, [&](std::int64_t i) {
          grabs.emplace_back(o.thread_num(), i);
          o.sim().advance(VDur::micros(100 * (i % 3 + 1)));
        });
      });
    });
    return grabs;
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace ats::omp
