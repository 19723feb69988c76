// Unit tests for the analyzer on hand-crafted and small generated traces:
// call-path profile construction, message matching, collective grouping,
// severity attribution, ranking.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "report/cube_view.hpp"
#include "test_util.hpp"

namespace ats::analyze {
namespace {

using core::PropCtx;
using testutil::run_mpi_traced;
using testutil::run_prop;

trace::Trace handmade_two_region_trace() {
  trace::Trace t;
  trace::LocationInfo li;
  li.id = 0;
  li.kind = trace::LocKind::kProcess;
  li.rank = 0;
  li.name = "rank 0";
  t.add_location(std::move(li));
  const auto outer = t.regions().intern("outer", trace::RegionKind::kUser);
  const auto inner = t.regions().intern("inner", trace::RegionKind::kWork);
  t.enter(0, VTime(0), outer);
  t.enter(0, VTime(100), inner);
  t.exit(0, VTime(400), inner);
  t.enter(0, VTime(500), inner);
  t.exit(0, VTime(600), inner);
  t.exit(0, VTime(1000), outer);
  return t;
}

TEST(Profile, BuildsCallTreeWithTimes) {
  const auto result = analyze(handmade_two_region_trace());
  const auto& prof = result.profile;
  // root -> outer -> inner
  ASSERT_EQ(prof.node_count(), 3u);
  const NodeId outer = prof.node(kRootNode).children.at(0);
  const NodeId inner = prof.node(outer).children.at(0);
  EXPECT_EQ(prof.inclusive(outer, 0), VDur::nanos(1000));
  EXPECT_EQ(prof.inclusive(inner, 0), VDur::nanos(400));
  EXPECT_EQ(prof.exclusive(outer, 0), VDur::nanos(600));
  EXPECT_EQ(prof.visits(outer, 0), 1u);
  EXPECT_EQ(prof.visits(inner, 0), 2u);
}

TEST(Profile, PathStringsAreReadable) {
  const auto result = analyze(handmade_two_region_trace());
  const auto& prof = result.profile;
  const NodeId outer = prof.node(kRootNode).children.at(0);
  const NodeId inner = prof.node(outer).children.at(0);
  trace::Trace t = handmade_two_region_trace();
  EXPECT_EQ(prof.path_string(inner, t), "outer > inner");
  EXPECT_EQ(prof.name_of(kRootNode, t), "<root>");
}

TEST(Profile, UnbalancedExitThrows) {
  trace::Trace t;
  trace::LocationInfo li;
  li.id = 0;
  li.kind = trace::LocKind::kProcess;
  li.rank = 0;
  li.name = "x";
  t.add_location(std::move(li));
  const auto a = t.regions().intern("a", trace::RegionKind::kUser);
  const auto b = t.regions().intern("b", trace::RegionKind::kUser);
  t.enter(0, VTime(0), a);
  t.exit(0, VTime(10), b);
  EXPECT_THROW(analyze(t), TraceError);
}

TEST(Profile, UnclosedRegionsAreClosedAtTraceEnd) {
  trace::Trace t;
  trace::LocationInfo li;
  li.id = 0;
  li.kind = trace::LocKind::kProcess;
  li.rank = 0;
  li.name = "x";
  t.add_location(std::move(li));
  const auto a = t.regions().intern("a", trace::RegionKind::kUser);
  const auto w = t.regions().intern("w", trace::RegionKind::kWork);
  t.enter(0, VTime(0), a);
  t.enter(0, VTime(100), w);
  t.exit(0, VTime(300), w);
  // 'a' never exits; the last event is at 300.
  const auto result = analyze(t);
  const NodeId na = result.profile.node(kRootNode).children.at(0);
  EXPECT_EQ(result.profile.inclusive(na, 0), VDur::nanos(300));
}

TEST(Analyzer, TotalTimeSumsLocationSpans) {
  const auto result = analyze(handmade_two_region_trace());
  EXPECT_EQ(result.total_time, VDur::nanos(1000));
}

TEST(Analyzer, EmptyTraceIsHarmless) {
  trace::Trace t;
  const auto result = analyze(t);
  EXPECT_EQ(result.total_time, VDur::zero());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_FALSE(result.dominant().has_value());
}

TEST(Analyzer, LateSenderSeverityIsExact) {
  // Rank 0 works 50ms then sends; rank 1 receives immediately.
  // Late-sender wait at the receiver == 50ms (clean cost model).
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(50));
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::millis(50));
  // Attributed to rank 1 (the receiver), at the MPI_Recv call path.
  const auto nodes = result.cube.nodes_of(PropertyId::kLateSender);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(result.profile.name_of(nodes[0], tr), "MPI_Recv");
  const auto locs = result.cube.locations_of(PropertyId::kLateSender,
                                             nodes[0]);
  EXPECT_EQ(locs[0], VDur::zero());
  EXPECT_EQ(locs[1], VDur::millis(50));
}

TEST(Analyzer, PunctualSenderYieldsNoLateSender) {
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.sim().advance(VDur::millis(20));
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::zero());
}

TEST(Analyzer, LateReceiverSeverityIsExact) {
  // Rendezvous send blocked 30ms waiting for the receiver.
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.ssend(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.sim().advance(VDur::millis(30));
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kLateReceiver), VDur::millis(30));
  const auto nodes = result.cube.nodes_of(PropertyId::kLateReceiver);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(result.profile.name_of(nodes[0], tr), "MPI_Ssend");
  // Attributed to the *sender*, rank 0.
  const auto locs = result.cube.locations_of(PropertyId::kLateReceiver,
                                             nodes[0]);
  EXPECT_EQ(locs[0], VDur::millis(30));
  EXPECT_EQ(locs[1], VDur::zero());
}

TEST(Analyzer, WaitAtBarrierPerRankWaits) {
  const auto tr = run_mpi_traced(3, [](mpi::Proc& p) {
    p.sim().advance(VDur::millis(10 * p.world_rank()));
    p.barrier(p.comm_world());
  });
  const auto result = analyze(tr);
  // Waits: rank0 20ms, rank1 10ms, rank2 0.
  EXPECT_EQ(result.cube.total(PropertyId::kWaitAtBarrier), VDur::millis(30));
  const auto nodes = result.cube.nodes_of(PropertyId::kWaitAtBarrier);
  ASSERT_EQ(nodes.size(), 1u);
  const auto locs =
      result.cube.locations_of(PropertyId::kWaitAtBarrier, nodes[0]);
  EXPECT_EQ(locs[0], VDur::millis(20));
  EXPECT_EQ(locs[1], VDur::millis(10));
  EXPECT_EQ(locs[2], VDur::zero());
}

TEST(Analyzer, LateBroadcastAttributesOnlyNonRoots) {
  const auto tr = run_mpi_traced(4, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 1) p.sim().advance(VDur::millis(40));
    p.bcast(&v, 1, mpi::Datatype::kInt32, 1, p.comm_world());
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kLateBroadcast),
            VDur::millis(120));  // 3 non-roots x 40ms
  const auto nodes = result.cube.nodes_of(PropertyId::kLateBroadcast);
  ASSERT_EQ(nodes.size(), 1u);
  const auto locs =
      result.cube.locations_of(PropertyId::kLateBroadcast, nodes[0]);
  EXPECT_EQ(locs[1], VDur::zero());  // root does not wait
  EXPECT_EQ(locs[0], VDur::millis(40));
}

TEST(Analyzer, EarlyReduceAttributesOnlyRoot) {
  const auto tr = run_mpi_traced(4, [](mpi::Proc& p) {
    int v = 1, out = 0;
    if (p.world_rank() != 2) p.sim().advance(VDur::millis(25));
    p.reduce(&v, &out, 1, mpi::Datatype::kInt32, mpi::ReduceOp::kSum, 2,
             p.comm_world());
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kEarlyReduce), VDur::millis(25));
  const auto nodes = result.cube.nodes_of(PropertyId::kEarlyReduce);
  const auto locs =
      result.cube.locations_of(PropertyId::kEarlyReduce, nodes.at(0));
  EXPECT_EQ(locs[2], VDur::millis(25));
  EXPECT_EQ(locs[0], VDur::zero());
}

TEST(Analyzer, NxNWaitForAlltoall) {
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    std::vector<int> s(2, 0), r(2, 0);
    if (p.world_rank() == 0) p.sim().advance(VDur::millis(15));
    p.alltoall(s.data(), 1, r.data(), 1, mpi::Datatype::kInt32,
               p.comm_world());
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kWaitAtNxN), VDur::millis(15));
}

TEST(Analyzer, InitFinalizeWaitsClassifiedAsOverhead) {
  // One rank reaches MPI_Finalize 30ms late: the other's wait must land in
  // init/finalize overhead, not in "wait at barrier".
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    if (p.world_rank() == 0) p.sim().advance(VDur::millis(30));
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kWaitAtBarrier), VDur::zero());
  EXPECT_GE(result.cube.total(PropertyId::kInitFinalizeOverhead),
            VDur::millis(30));
}

TEST(Analyzer, MpiTimeClassesAreDisjointAndCover) {
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(5));
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
    p.sim().advance(VDur::millis(2 * p.world_rank()));
    p.barrier(p.comm_world());
  });
  const auto result = analyze(tr);
  const VDur mpi_total = result.cube.total(PropertyId::kMpi);
  const VDur parts = result.cube.total(PropertyId::kMpiP2P) +
                     result.cube.total(PropertyId::kMpiCollective) +
                     result.cube.total(PropertyId::kMpiMgmt);
  EXPECT_EQ(mpi_total, parts);
  EXPECT_GT(result.cube.total(PropertyId::kMpiP2P), VDur::zero());
  EXPECT_GT(result.cube.total(PropertyId::kMpiCollective), VDur::zero());
}

TEST(Analyzer, FindingsAreRankedBySeverity) {
  // Inject a big barrier wait and a small late sender.
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(5));
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
    if (p.world_rank() == 0) p.sim().advance(VDur::millis(100));
    p.barrier(p.comm_world());
  });
  const auto result = analyze(tr);
  const auto dom = result.dominant();
  ASSERT_TRUE(dom.has_value());
  EXPECT_EQ(dom->prop, PropertyId::kWaitAtBarrier);
  // Both findings present, barrier first.
  bool saw_ls = false;
  for (const auto& f : result.findings) {
    if (f.prop == PropertyId::kLateSender) saw_ls = true;
  }
  EXPECT_TRUE(saw_ls);
}

TEST(Analyzer, ThresholdSuppressesSmallFindings) {
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::micros(10));  // tiny imbalance
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
    p.sim().advance(VDur::seconds(1));  // long balanced phase
    p.barrier(p.comm_world());
  });
  AnalyzerOptions strict;
  strict.threshold = 0.01;
  const auto result = analyze(tr, strict);
  EXPECT_FALSE(result.dominant().has_value());
  AnalyzerOptions loose;
  loose.threshold = 1e-7;
  const auto result2 = analyze(tr, loose);
  EXPECT_TRUE(result2.dominant().has_value());
}

TEST(Analyzer, WrongOrderMessagesDetected) {
  // Sender emits tag 2 then tag 1; receiver wants tag 1 first and waits for
  // it while the tag-2 message is already available.
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 2, p.comm_world());
      p.sim().advance(VDur::millis(10));
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 1, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 1, p.comm_world());
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 2, p.comm_world());
    }
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kLateSenderWrongOrder),
            VDur::millis(10));
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::zero());
}

TEST(Analyzer, SeverityCubeBasics) {
  SeverityCube cube(2);
  cube.add(PropertyId::kLateSender, 3, 0, VDur::millis(5));
  cube.add(PropertyId::kLateSender, 3, 0, VDur::millis(2));
  cube.add(PropertyId::kLateSender, 4, 1, VDur::millis(1));
  EXPECT_EQ(cube.at(PropertyId::kLateSender, 3, 0), VDur::millis(7));
  EXPECT_EQ(cube.at(PropertyId::kLateSender, 3, 1), VDur::zero());
  EXPECT_EQ(cube.node_total(PropertyId::kLateSender, 3), VDur::millis(7));
  EXPECT_EQ(cube.total(PropertyId::kLateSender), VDur::millis(8));
  EXPECT_EQ(cube.nodes_of(PropertyId::kLateSender),
            (std::vector<NodeId>{3, 4}));
  // Zero and negative adds are ignored.
  cube.add(PropertyId::kLateSender, 9, 0, VDur::zero());
  EXPECT_EQ(cube.nodes_of(PropertyId::kLateSender).size(), 2u);
}

TEST(Analyzer, SeverityCubeAddRowMatchesPerLocationAdds) {
  SeverityCube cube(3);
  const std::vector<VDur> row = {VDur::nanos(-4), VDur::zero(),
                                 VDur::nanos(6)};
  cube.add(PropertyId::kMpi, 2, 2, VDur::nanos(1));
  cube.add_row(PropertyId::kMpi, 2, row);
  EXPECT_EQ(cube.at(PropertyId::kMpi, 2, 0), VDur::zero());
  EXPECT_EQ(cube.at(PropertyId::kMpi, 2, 2), VDur::nanos(7));
  // A row with no positive entry creates no cell.
  const std::vector<VDur> none = {VDur::nanos(-1), VDur::zero(),
                                  VDur::zero()};
  cube.add_row(PropertyId::kMpi, 5, none);
  EXPECT_EQ(cube.nodes_of(PropertyId::kMpi), (std::vector<NodeId>{2}));
}

TEST(PropertyTree, HierarchyIsWellFormed) {
  EXPECT_EQ(property_info(PropertyId::kLateSender).parent,
            PropertyId::kMpiP2P);
  EXPECT_EQ(property_info(PropertyId::kLateSenderWrongOrder).parent,
            PropertyId::kLateSender);
  EXPECT_EQ(property_depth(PropertyId::kTotal), 0);
  EXPECT_EQ(property_depth(PropertyId::kLateSenderWrongOrder), 4);
  // Pre-order covers every property exactly once.
  EXPECT_EQ(property_preorder().size(), kPropertyCount);
}

TEST(PropertyTree, NamesAreUnique) {
  std::set<std::string> names;
  for (PropertyId p : property_preorder()) {
    EXPECT_TRUE(names.insert(property_name(p)).second)
        << "duplicate name " << property_name(p);
  }
}

TEST(Analyzer, IdleThreadsSeverityIsSerialTimeTimesWorkers) {
  // 30ms of serial master work between two 10ms parallel regions on a
  // 4-thread team: idle threads = 30ms x 3 workers = 90ms.
  const auto tr = testutil::run_prop_omp([](core::PropCtx& ctx) {
    auto region = [&] {
      omp::parallel(*ctx.sim, ctx.omp_rt(), 4, [&](omp::OmpCtx& o) {
        core::do_work(o.sim(), *ctx.trace, ctx.work, 0.01);
      });
    };
    region();
    core::do_work(ctx, 0.03);
    region();
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kOmpIdleThreads),
            VDur::millis(90));
}

TEST(Analyzer, NoIdleThreadsWhenAllTimeIsParallel) {
  const auto tr = testutil::run_prop_omp([](core::PropCtx& ctx) {
    omp::parallel(*ctx.sim, ctx.omp_rt(), 4, [&](omp::OmpCtx& o) {
      core::do_work(o.sim(), *ctx.trace, ctx.work, 0.05);
    });
  });
  const auto result = analyze(tr);
  EXPECT_EQ(result.cube.total(PropertyId::kOmpIdleThreads), VDur::zero());
}

TEST(Analyzer, MpiTimeDoesNotCountAsIdleThreads) {
  // Master communicates 40ms between regions: that is MPI time, not idle
  // serial computation.
  const auto tr = testutil::run_prop_hybrid(2, [](core::PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    omp::parallel(*ctx.sim, ctx.omp_rt(), 4, [&](omp::OmpCtx& o) {
      core::do_work(o.sim(), *ctx.trace, ctx.work, 0.01);
    });
    int v = 0;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(40));
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  const auto result = analyze(tr);
  // Rank 0's 40ms is plain serial work (advance outside a region) but the
  // receiver's wait is MPI region time and must NOT appear as idle
  // threads; allow only rank 0's serial part.
  const auto locs = result.cube.locations_of(PropertyId::kOmpIdleThreads,
                                             kRootNode);
  ASSERT_EQ(locs.size(), tr.location_count());
  EXPECT_EQ(locs[1], VDur::zero());  // rank 1 waited inside MPI_Recv
}

TEST(AnalyzerEdge, LockEventOutsideSyncRegionIsIgnored) {
  trace::Trace t;
  trace::LocationInfo li;
  li.id = 0;
  li.kind = trace::LocKind::kProcess;
  li.rank = 0;
  li.name = "x";
  t.add_location(std::move(li));
  const auto work = t.regions().intern("w", trace::RegionKind::kWork);
  t.enter(0, VTime(0), work);
  t.lock_acquire(0, VTime(50), 1);
  t.lock_release(0, VTime(80), 1);
  t.exit(0, VTime(100), work);
  const auto result = analyze(t);
  EXPECT_EQ(result.cube.total(PropertyId::kOmpLockContention), VDur::zero());
}

TEST(AnalyzerEdge, TruncatedCollectiveGroupIsTolerated) {
  // Only one of two members' coll_end records made it into the trace
  // (e.g. the trace was cut off): no waits, no crash.
  trace::Trace t;
  for (int i = 0; i < 2; ++i) {
    trace::LocationInfo li;
    li.id = i;
    li.kind = trace::LocKind::kProcess;
    li.rank = i;
    li.name = "rank " + std::to_string(i);
    t.add_location(std::move(li));
  }
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto reg = t.regions().intern("MPI_Barrier",
                                      trace::RegionKind::kMpiColl);
  t.enter(0, VTime(0), reg);
  t.coll_end(0, VTime(10), VTime(0), comm, 0, trace::CollOp::kBarrier,
             trace::kNone, 0, 0);
  t.exit(0, VTime(10), reg);
  const auto result = analyze(t);
  EXPECT_EQ(result.cube.total(PropertyId::kWaitAtBarrier), VDur::zero());
}

TEST(AnalyzerEdge, RecvWithoutAnySendIsParkedNotFatal) {
  trace::Trace t;
  for (int i = 0; i < 2; ++i) {
    trace::LocationInfo li;
    li.id = i;
    li.kind = trace::LocKind::kProcess;
    li.rank = i;
    li.name = "rank " + std::to_string(i);
    t.add_location(std::move(li));
  }
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto reg = t.regions().intern("MPI_Recv",
                                      trace::RegionKind::kMpiP2P);
  t.enter(1, VTime(0), reg);
  t.recv(1, VTime(30), 0, 0, comm, 8);  // no matching send record at all
  t.exit(1, VTime(30), reg);
  EXPECT_NO_THROW(analyze(t));
}

trace::Trace ranks_trace(int n) {
  trace::Trace t;
  for (int i = 0; i < n; ++i) {
    trace::LocationInfo li;
    li.id = i;
    li.kind = trace::LocKind::kProcess;
    li.rank = i;
    li.name = "rank " + std::to_string(i);
    t.add_location(std::move(li));
  }
  return t;
}

TEST(AnalyzerMatching, RecvReplayedBeforeEqualTimeSendIsLateSender) {
  // At t=100 location 0's receive completion sorts before location 1's
  // send record, so the replay sees the receive first and must park it.
  trace::Trace t = ranks_trace(2);
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto recv = t.regions().intern("MPI_Recv", trace::RegionKind::kMpiP2P);
  const auto send = t.regions().intern("MPI_Send", trace::RegionKind::kMpiP2P);
  t.enter(0, VTime(0), recv);
  t.recv(0, VTime(100), 1, 3, comm, 8);
  t.exit(0, VTime(100), recv);
  t.enter(1, VTime(90), send);
  t.send(1, VTime(100), 0, 3, comm, 8);
  t.exit(1, VTime(110), send);
  const auto result = analyze(t);
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::nanos(100));
  EXPECT_EQ(result.cube.total(PropertyId::kLateReceiver), VDur::zero());
  EXPECT_EQ(result.quality.skewed_messages, 0u);
  EXPECT_EQ(result.quality.unmatched_sends, 0u);
  EXPECT_EQ(result.quality.unmatched_recvs, 0u);
  EXPECT_TRUE(result.quality.clean());
}

TEST(AnalyzerMatching, WrongOrderWithEqualTimePendingSends) {
  // Location 1 sends tags 1 and 2 at t=10 and tag 3 at t=50.  Location 0
  // receives tag 2 first: the other pending send (tag 1) is not older, so
  // that wait is a plain late sender.  It then receives tag 3 while tag 1
  // is still pending and older: wrong order.
  trace::Trace t = ranks_trace(2);
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto recv = t.regions().intern("MPI_Recv", trace::RegionKind::kMpiP2P);
  t.send(1, VTime(10), 0, 1, comm, 8);
  t.send(1, VTime(10), 0, 2, comm, 8);
  t.send(1, VTime(50), 0, 3, comm, 8);
  t.enter(0, VTime(0), recv);
  t.recv(0, VTime(20), 1, 2, comm, 8);
  t.exit(0, VTime(20), recv);
  t.enter(0, VTime(20), recv);
  t.recv(0, VTime(60), 1, 3, comm, 8);
  t.exit(0, VTime(60), recv);
  t.enter(0, VTime(60), recv);
  t.recv(0, VTime(70), 1, 1, comm, 8);
  t.exit(0, VTime(70), recv);
  const auto result = analyze(t);
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::nanos(10));
  EXPECT_EQ(result.cube.total(PropertyId::kLateSenderWrongOrder),
            VDur::nanos(30));
  EXPECT_EQ(result.quality.unmatched_sends, 0u);
  EXPECT_EQ(result.quality.unmatched_recvs, 0u);
  EXPECT_EQ(result.quality.skewed_messages, 0u);
}

TEST(AnalyzerMatching, UnmatchedSendsAndRecvsAreCounted) {
  trace::Trace t = ranks_trace(3);
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1, 2}, "w");
  const auto recv = t.regions().intern("MPI_Recv", trace::RegionKind::kMpiP2P);
  const auto work = t.regions().intern("w", trace::RegionKind::kWork);
  // Two sends nobody receives, one consumed send.
  t.send(1, VTime(5), 0, 7, comm, 8);
  t.send(1, VTime(6), 0, 7, comm, 8);
  t.send(2, VTime(5), 0, 1, comm, 8);
  t.enter(0, VTime(0), recv);
  t.recv(0, VTime(10), 2, 1, comm, 8);
  t.exit(0, VTime(10), recv);
  // Two receives inside MPI_Recv whose sends were never recorded.
  t.enter(0, VTime(20), recv);
  t.recv(0, VTime(30), 2, 9, comm, 8);
  t.recv(0, VTime(31), 1, 9, comm, 8);
  t.exit(0, VTime(31), recv);
  // A receive outside any P2P region without a send is not parked.
  t.enter(2, VTime(40), work);
  t.recv(2, VTime(45), 1, 4, comm, 8);
  t.exit(2, VTime(50), work);
  const auto result = analyze(t);
  EXPECT_EQ(result.quality.unmatched_sends, 2u);
  EXPECT_EQ(result.quality.unmatched_recvs, 2u);
  EXPECT_FALSE(result.quality.clean());
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::nanos(5));
}

TEST(AnalyzerEdge, LocationWithNoEventsContributesNothing) {
  trace::Trace t;
  for (int i = 0; i < 2; ++i) {
    trace::LocationInfo li;
    li.id = i;
    li.kind = trace::LocKind::kProcess;
    li.rank = i;
    li.name = "rank " + std::to_string(i);
    t.add_location(std::move(li));
  }
  const auto work = t.regions().intern("w", trace::RegionKind::kWork);
  t.enter(0, VTime(0), work);
  t.exit(0, VTime(100), work);
  // Location 1 is silent.
  const auto result = analyze(t);
  EXPECT_EQ(result.total_time, VDur::nanos(100));
}

// ---- replay order: each test pins one way a per-location walk could
// diverge from the global (time, location, recording order) replay.

std::string quality_counters(const DataQuality& q) {
  return std::to_string(q.events_seen) + " " +
         std::to_string(q.events_dropped) + " " +
         std::to_string(q.events_repaired) + " " +
         std::to_string(q.unbalanced_exits) + " " +
         std::to_string(q.unmatched_sends) + " " +
         std::to_string(q.unmatched_recvs) + " " +
         std::to_string(q.incomplete_collectives) + " " +
         std::to_string(q.negative_waits_clamped) + " " +
         std::to_string(q.skewed_messages);
}

TEST(AnalyzerReplayOrder, NodesAreNumberedAtFirstSightInMergeOrder) {
  // Location 0 walks main > A before main > B, but location 1 enters B at
  // t=5, before location 0 enters A at t=10: B is seen first.
  trace::Trace t = ranks_trace(2);
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto main_r = t.regions().intern("main", trace::RegionKind::kUser);
  const auto a = t.regions().intern("A", trace::RegionKind::kMpiP2P);
  const auto b = t.regions().intern("B", trace::RegionKind::kMpiP2P);
  t.enter(0, VTime(0), main_r);
  t.enter(0, VTime(10), a);
  t.recv(0, VTime(30), 1, 0, comm, 8);
  t.exit(0, VTime(30), a);
  t.enter(0, VTime(40), b);
  t.recv(0, VTime(60), 1, 1, comm, 8);
  t.exit(0, VTime(60), b);
  t.exit(0, VTime(100), main_r);
  t.enter(1, VTime(0), main_r);
  t.enter(1, VTime(5), b);
  t.exit(1, VTime(6), b);
  t.send(1, VTime(30), 0, 0, comm, 8);
  t.send(1, VTime(60), 0, 1, comm, 8);
  t.exit(1, VTime(100), main_r);
  const auto result = analyze(t);
  const auto& prof = result.profile;
  ASSERT_EQ(prof.node_count(), 4u);
  EXPECT_EQ(prof.node(kRootNode).children, std::vector<NodeId>({1}));
  EXPECT_EQ(prof.node(1).children, std::vector<NodeId>({2, 3}));
  EXPECT_EQ(prof.name_of(1, t), "main");
  EXPECT_EQ(prof.name_of(2, t), "B");
  EXPECT_EQ(prof.name_of(3, t), "A");
  // Both receives wait 20 ns: the tie goes to the lower node id, B.
  EXPECT_EQ(result.cube.node_total(PropertyId::kLateSender, 2),
            VDur::nanos(20));
  EXPECT_EQ(result.cube.node_total(PropertyId::kLateSender, 3),
            VDur::nanos(20));
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings.front().node, 2);
  const std::string text = report::render_analysis(result, t);
  const auto at_b = text.find("    main > B ");
  const auto at_a = text.find("    main > A ");
  ASSERT_NE(at_b, std::string::npos);
  ASSERT_NE(at_a, std::string::npos);
  EXPECT_LT(at_b, at_a);
  EXPECT_NE(text.find("locations of 'main > B':"), std::string::npos);
  const std::string profile = report::render_profile(result, t);
  EXPECT_LT(profile.find("  B "), profile.find("  A "));
}

TEST(AnalyzerReplayOrder, UnsortedLocationMatchesItsTimeSortedTwin) {
  // Location 1's events are recorded with its MPI_Send block first; a
  // stable sort by time restores its nesting.  Equal timestamps keep
  // their recording order (send before exit at t=40 on location 1).
  const auto build = [](bool shuffled) {
    trace::Trace t = ranks_trace(2);
    const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
    const auto main_r = t.regions().intern("main", trace::RegionKind::kUser);
    const auto work = t.regions().intern("w", trace::RegionKind::kWork);
    const auto send =
        t.regions().intern("MPI_Send", trace::RegionKind::kMpiP2P);
    const auto recv =
        t.regions().intern("MPI_Recv", trace::RegionKind::kMpiP2P);
    t.enter(0, VTime(0), main_r);
    t.enter(0, VTime(5), recv);
    t.recv(0, VTime(40), 1, 0, comm, 8);
    t.exit(0, VTime(40), recv);
    t.enter(0, VTime(50), send);
    t.send(0, VTime(50), 1, 1, comm, 8);
    t.exit(0, VTime(70), send);
    t.exit(0, VTime(100), main_r);
    const auto head = [&] {
      t.enter(1, VTime(0), main_r);
      t.enter(1, VTime(10), work);
      t.exit(1, VTime(20), work);
    };
    const auto tail = [&] {
      t.enter(1, VTime(30), send);
      t.send(1, VTime(40), 0, 0, comm, 8);
      t.exit(1, VTime(40), send);
      t.enter(1, VTime(60), recv);
      t.recv(1, VTime(70), 0, 1, comm, 8);
      t.exit(1, VTime(70), recv);
      t.exit(1, VTime(100), main_r);
    };
    if (shuffled) {
      tail();
      head();
    } else {
      head();
      tail();
    }
    return t;
  };
  const trace::Trace sorted = build(false);
  const trace::Trace shuffled = build(true);
  ASSERT_EQ(sorted.unsorted_location_count(), 0u);
  ASSERT_EQ(shuffled.unsorted_location_count(), 1u);
  const auto a = analyze(sorted);
  const auto b = analyze(shuffled);
  EXPECT_EQ(report::severity_csv(a, sorted),
            report::severity_csv(b, shuffled));
  EXPECT_EQ(report::render_profile(a, sorted),
            report::render_profile(b, shuffled));
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_GT(a.cube.total(PropertyId::kLateSender), VDur::zero());
  EXPECT_EQ(quality_counters(a.quality), quality_counters(b.quality));
  EXPECT_EQ(a.quality.unsorted_locations, 0u);
  EXPECT_EQ(b.quality.unsorted_locations, 1u);
}

TEST(AnalyzerReplayOrder, EarliestUnbalancedExitWinsAcrossLocations) {
  // Location 0's bad exit is at t=50, location 1's at t=20: the replay
  // meets location 1's first although location 0 has the lower id.
  trace::Trace t = ranks_trace(2);
  const auto a = t.regions().intern("a", trace::RegionKind::kUser);
  const auto b = t.regions().intern("b", trace::RegionKind::kUser);
  const auto c = t.regions().intern("c", trace::RegionKind::kUser);
  t.enter(0, VTime(0), a);
  t.enter(0, VTime(10), b);
  t.exit(0, VTime(50), a);  // b's exit was lost: repaired in lenient mode
  t.enter(1, VTime(0), a);
  t.exit(1, VTime(20), c);  // never entered: dropped in lenient mode
  t.exit(1, VTime(30), a);
  try {
    (void)analyze(t);
    ADD_FAILURE() << "strict analysis accepted unbalanced exits";
  } catch (const TraceError& e) {
    EXPECT_EQ(std::string(e.what()),
              "analyzer: unbalanced exit of region 'c' on location 1");
  }
  AnalyzerOptions opt;
  opt.lenient = true;
  const auto result = analyze(t, opt);
  EXPECT_EQ(quality_counters(result.quality), "6 1 1 2 0 0 0 0 0");
  EXPECT_EQ(result.total_time, VDur::nanos(80));
  const NodeId na = result.profile.node(kRootNode).children.at(0);
  const NodeId nb = result.profile.node(na).children.at(0);
  EXPECT_EQ(result.profile.inclusive(na, 0), VDur::nanos(50));
  EXPECT_EQ(result.profile.inclusive(nb, 0), VDur::nanos(40));
  EXPECT_EQ(result.profile.inclusive(na, 1), VDur::nanos(30));
}

TEST(AnalyzerReplayOrder, OrphanMatchedBlockingSendOpensNoSendInterval) {
  // Location 1 sends tags 1 and 2 at t=10 from two MPI_Send calls.  The
  // tag-1 receive on location 0 completes at t=10 too and is replayed
  // first, so tag 1 is orphan-matched and leaves no send interval.  The
  // tag-2 receive is posted late (t=20): its sender waited in MPI_Send
  // until t=30, a late receiver of 10 ns measured on the tag-2 interval
  // alone.
  trace::Trace t = ranks_trace(2);
  const auto comm = t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "w");
  const auto send = t.regions().intern("MPI_Send", trace::RegionKind::kMpiP2P);
  const auto recv = t.regions().intern("MPI_Recv", trace::RegionKind::kMpiP2P);
  t.enter(0, VTime(0), recv);
  t.recv(0, VTime(10), 1, 1, comm, 8);
  t.exit(0, VTime(10), recv);
  t.enter(0, VTime(20), recv);
  t.recv(0, VTime(30), 1, 2, comm, 8);
  t.exit(0, VTime(30), recv);
  t.enter(1, VTime(5), send);
  t.send(1, VTime(10), 0, 1, comm, 8);
  t.exit(1, VTime(10), send);
  t.enter(1, VTime(10), send);
  t.send(1, VTime(10), 0, 2, comm, 8);
  t.exit(1, VTime(30), send);
  const auto result = analyze(t);
  EXPECT_EQ(result.cube.total(PropertyId::kLateReceiver), VDur::nanos(10));
  EXPECT_EQ(result.cube.at(PropertyId::kLateReceiver,
                           result.profile.find_child(kRootNode, send), 1),
            VDur::nanos(10));
  EXPECT_EQ(result.cube.total(PropertyId::kLateSender), VDur::nanos(10));
  EXPECT_EQ(quality_counters(result.quality), "12 0 0 0 0 0 0 0 0");
}

TEST(Analyzer, AnalysisOfSavedAndReloadedTraceMatches) {
  const auto tr = run_mpi_traced(3, [](mpi::Proc& p) {
    p.sim().advance(VDur::millis(5 * p.world_rank()));
    p.barrier(p.comm_world());
  });
  std::stringstream ss;
  tr.save(ss);
  const trace::Trace reloaded = trace::Trace::load(ss);
  const auto a = analyze(tr);
  const auto b = analyze(reloaded);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.cube.total(PropertyId::kWaitAtBarrier),
            b.cube.total(PropertyId::kWaitAtBarrier));
  EXPECT_EQ(a.findings.size(), b.findings.size());
}

}  // namespace
}  // namespace ats::analyze
