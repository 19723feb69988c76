// Tests for simulated-MPI collectives: data semantics for every operation,
// the three timing shapes (all-to-all / root-source / root-sink), instance
// validation, communicator split/dup.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "mpisim/world.hpp"
#include "test_util.hpp"

namespace ats::mpi {
namespace {

CostModel clean_cost() {
  CostModel cm;
  cm.p2p_latency = VDur::zero();
  cm.bandwidth_bytes_per_sec = 1e15;
  cm.send_overhead = VDur::zero();
  cm.recv_overhead = VDur::zero();
  cm.coll_stage = VDur::zero();
  cm.init_cost = VDur::zero();
  cm.finalize_cost = VDur::zero();
  return cm;
}

MpiRunOptions clean_options(int nprocs) {
  MpiRunOptions opt;
  opt.nprocs = nprocs;
  opt.cost = clean_cost();
  return opt;
}

VDur ms(std::int64_t v) { return VDur::millis(v); }

TEST(Coll, BarrierSynchronisesToLatest) {
  std::vector<VTime> after(4);
  run_mpi(clean_options(4), [&](Proc& p) {
    p.sim().advance(ms(p.world_rank() * 10));
    p.barrier(p.comm_world());
    after[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
  });
  for (const auto& t : after) EXPECT_EQ(t, VTime::zero() + ms(30));
}

TEST(Coll, BarrierCostApplied) {
  auto cm = clean_cost();
  cm.coll_stage = VDur::micros(10);
  MpiRunOptions opt;
  opt.nprocs = 4;  // ceil(log2 4) = 2 stages
  opt.cost = cm;
  VTime after;
  run_mpi(opt, [&](Proc& p) {
    p.barrier(p.comm_world());
    if (p.world_rank() == 0) after = p.sim().now();
  });
  // init barrier + user barrier: each costs 20us.
  EXPECT_EQ(after, VTime::zero() + VDur::micros(40));
}

TEST(Coll, BcastDistributesRootData) {
  std::vector<std::vector<int>> got(4, std::vector<int>(3, 0));
  run_mpi(clean_options(4), [&](Proc& p) {
    std::vector<int> buf(3, 0);
    if (p.world_rank() == 2) buf = {7, 8, 9};
    p.bcast(buf.data(), 3, Datatype::kInt32, 2, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = buf;
  });
  for (const auto& g : got) EXPECT_EQ(g, (std::vector<int>{7, 8, 9}));
}

TEST(Coll, LateRootMakesNonRootsWait) {
  // Root enters the bcast 10ms late; early non-roots leave at root's time.
  std::vector<VTime> after(4);
  run_mpi(clean_options(4), [&](Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) p.sim().advance(ms(10));
    p.bcast(&v, 1, Datatype::kInt32, 0, p.comm_world());
    after[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
  });
  for (const auto& t : after) EXPECT_EQ(t, VTime::zero() + ms(10));
}

TEST(Coll, LateNonRootDoesNotWaitInBcast) {
  std::vector<VTime> after(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    int v = 0;
    if (p.world_rank() == 2) p.sim().advance(ms(5));
    p.bcast(&v, 1, Datatype::kInt32, 0, p.comm_world());
    after[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
  });
  EXPECT_EQ(after[0], VTime::zero());   // root leaves immediately
  EXPECT_EQ(after[1], VTime::zero());   // early non-root: root already there
  EXPECT_EQ(after[2], VTime::zero() + ms(5));  // late non-root: no extra wait
}

TEST(Coll, EarlyRootWaitsInReduce) {
  // Root enters first; the slowest contributor arrives at 12ms.
  std::vector<VTime> after(4);
  run_mpi(clean_options(4), [&](Proc& p) {
    int v = p.world_rank(), out = -1;
    p.sim().advance(ms(p.world_rank() * 4));  // ranks at 0,4,8,12 ms
    p.reduce(&v, &out, 1, Datatype::kInt32, ReduceOp::kSum, 0,
             p.comm_world());
    after[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
    if (p.world_rank() == 0) {
      EXPECT_EQ(out, 0 + 1 + 2 + 3);
    }
  });
  EXPECT_EQ(after[0], VTime::zero() + ms(12));  // root waited for rank 3
  EXPECT_EQ(after[1], VTime::zero() + ms(4));   // contributors fire & forget
  EXPECT_EQ(after[3], VTime::zero() + ms(12));
}

TEST(Coll, ReduceOperators) {
  struct Case {
    ReduceOp op;
    int expect;
  };
  for (const Case c : {Case{ReduceOp::kSum, 6}, Case{ReduceOp::kProd, 0},
                       Case{ReduceOp::kMin, 0}, Case{ReduceOp::kMax, 3},
                       Case{ReduceOp::kLand, 0}, Case{ReduceOp::kLor, 1}}) {
    int result = -1;
    run_mpi(clean_options(4), [&](Proc& p) {
      int v = p.world_rank();
      int out = -1;
      p.reduce(&v, &out, 1, Datatype::kInt32, c.op, 0, p.comm_world());
      if (p.world_rank() == 0) result = out;
    });
    EXPECT_EQ(result, c.expect) << "op=" << to_string(c.op);
  }
}

TEST(Coll, ReduceDoubleSum) {
  double result = 0;
  run_mpi(clean_options(4), [&](Proc& p) {
    double v = 0.5 * (p.world_rank() + 1);
    double out = 0;
    p.reduce(&v, &out, 1, Datatype::kDouble, ReduceOp::kSum, 0,
             p.comm_world());
    if (p.world_rank() == 0) result = out;
  });
  EXPECT_DOUBLE_EQ(result, 0.5 + 1.0 + 1.5 + 2.0);
}

TEST(Coll, AllreduceGivesAllRanksTheResult) {
  std::vector<int> got(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    int v = 1 << p.world_rank();
    int out = 0;
    p.allreduce(&v, &out, 1, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = out;
  });
  for (int g : got) EXPECT_EQ(g, 15);
}

TEST(Coll, AllreduceIsNxNShaped) {
  std::vector<VTime> after(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    int v = 0, out = 0;
    p.sim().advance(ms(p.world_rank() * 3));
    p.allreduce(&v, &out, 1, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
    after[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
  });
  for (const auto& t : after) EXPECT_EQ(t, VTime::zero() + ms(6));
}

TEST(Coll, ScatterSlices) {
  std::vector<int> got(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    std::vector<int> src;
    if (p.world_rank() == 0) {
      src.resize(8);
      std::iota(src.begin(), src.end(), 100);  // 100..107
    }
    std::vector<int> mine(2, -1);
    p.scatter(src.data(), 2, mine.data(), 2, Datatype::kInt32, 0,
              p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = mine[1];
  });
  EXPECT_EQ(got, (std::vector<int>{101, 103, 105, 107}));
}

TEST(Coll, ScattervUnevenSlices) {
  std::vector<std::vector<int>> got(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<int> counts{1, 2, 3};
    std::vector<int> displs{0, 1, 3};
    std::vector<int> src;
    if (me == 0) {
      src = {10, 20, 21, 30, 31, 32};
    }
    std::vector<int> mine(static_cast<std::size_t>(counts[
        static_cast<std::size_t>(me)]), -1);
    p.scatterv(src.data(), counts, displs, mine.data(),
               counts[static_cast<std::size_t>(me)], Datatype::kInt32, 0,
               p.comm_world());
    got[static_cast<std::size_t>(me)] = mine;
  });
  EXPECT_EQ(got[0], (std::vector<int>{10}));
  EXPECT_EQ(got[1], (std::vector<int>{20, 21}));
  EXPECT_EQ(got[2], (std::vector<int>{30, 31, 32}));
}

TEST(Coll, GatherAssembles) {
  std::vector<int> got;
  run_mpi(clean_options(4), [&](Proc& p) {
    const int v = 10 * (p.world_rank() + 1);
    std::vector<int> all(4, -1);
    p.gather(&v, 1, all.data(), 1, Datatype::kInt32, 2, p.comm_world());
    if (p.world_rank() == 2) got = all;
  });
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30, 40}));
}

TEST(Coll, GathervUneven) {
  std::vector<int> got;
  run_mpi(clean_options(3), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<int> mine(static_cast<std::size_t>(me + 1), me);
    std::vector<int> counts{1, 2, 3};
    std::vector<int> displs{0, 1, 3};
    std::vector<int> all(6, -1);
    p.gatherv(mine.data(), me + 1, all.data(), counts, displs,
              Datatype::kInt32, 0, p.comm_world());
    if (me == 0) got = all;
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 1, 2, 2, 2}));
}

TEST(Coll, GathervCountMismatchThrows) {
  EXPECT_THROW(
      run_mpi(clean_options(2),
              [&](Proc& p) {
                const int me = p.world_rank();
                std::vector<int> mine(3, me);
                std::vector<int> counts{1, 1};  // root expects 1 from each
                std::vector<int> displs{0, 1};
                std::vector<int> all(2, -1);
                // rank 1 sends 3 elements but the root expects 1.
                p.gatherv(mine.data(), me == 1 ? 3 : 1, all.data(), counts,
                          displs, Datatype::kInt32, 0, p.comm_world());
              }),
      MpiError);
}

// --- one cost per rooted instance -----------------------------------------
//
// 3 ranks with counts {1, 2, 300} ints: a rooted instance charges every rank
// the cost of its widest slice (scatterv) or largest contribution (gatherv),
// whatever order the ranks arrive in.

const std::vector<int> kUnevenCounts{1, 2, 300};
const std::vector<int> kUnevenDispls{0, 1, 3};

CostModel costed() {
  CostModel cm = clean_cost();
  cm.coll_stage = VDur::micros(10);
  cm.bandwidth_bytes_per_sec = 100e6;
  return cm;
}

/// Enters a 3-rank scatterv from root 0 (at 10ms) with rank 1, the
/// small-count rank, entering `rank1_shift` from the root; returns rank 1's
/// exit minus max(its enter, the root's enter).
VDur scatterv_rank1_cost(VDur rank1_shift) {
  MpiRunOptions opt = clean_options(3);
  opt.cost = costed();
  const VTime root_enter = VTime::zero() + ms(10);
  VDur paid;
  run_mpi(opt, [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<int> src(303, 7);
    std::vector<int> mine(300, -1);
    const VTime enter = me == 1 ? root_enter + rank1_shift : root_enter;
    p.sim().advance_to(enter);
    p.scatterv(src.data(), kUnevenCounts, kUnevenDispls, mine.data(),
               kUnevenCounts[static_cast<std::size_t>(me)], Datatype::kInt32,
               0, p.comm_world());
    if (me == 1) paid = p.sim().now() - later(enter, root_enter);
  });
  return paid;
}

TEST(Coll, ScattervChargesOneCostWhateverTheArrivalOrder) {
  const VDur cost = costed().collective_time(3, 300 * 4);
  EXPECT_EQ(scatterv_rank1_cost(VDur::nanos(-2)), cost);  // root releases
  EXPECT_EQ(scatterv_rank1_cost(VDur::nanos(2)), cost);   // root was first
}

/// Root 0 enters a 3-rank gatherv at 1ms and waits; the last contributor
/// enters at 10ms, the other one 2ns before.  `rank1_last` picks the
/// small-count rank 1 as the last one.  Returns the root's exit time.
VTime gatherv_root_exit(bool rank1_last) {
  MpiRunOptions opt = clean_options(3);
  opt.cost = costed();
  const VTime last = VTime::zero() + ms(10);
  const VTime second = last - VDur::nanos(2);
  VTime root_exit;
  run_mpi(opt, [&](Proc& p) {
    const int me = p.world_rank();
    const VTime enter = me == 0   ? VTime::zero() + ms(1)
                        : me == 1 ? (rank1_last ? last : second)
                                  : (rank1_last ? second : last);
    p.sim().advance_to(enter);
    std::vector<int> mine(
        static_cast<std::size_t>(kUnevenCounts[static_cast<std::size_t>(me)]),
        me);
    std::vector<int> all(303, -1);
    p.gatherv(mine.data(), static_cast<int>(mine.size()), all.data(),
              kUnevenCounts, kUnevenDispls, Datatype::kInt32, 0,
              p.comm_world());
    if (me == 0) root_exit = p.sim().now();
  });
  return root_exit;
}

TEST(Coll, GathervChargesOneCostWhateverTheArrivalOrder) {
  const VTime want =
      VTime::zero() + ms(10) + costed().collective_time(3, 300 * 4);
  EXPECT_EQ(gatherv_root_exit(false), want);  // rank 2 completes
  EXPECT_EQ(gatherv_root_exit(true), want);   // rank 1 completes
}

TEST(Coll, AlltoallTransposes) {
  std::vector<std::vector<int>> got(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<int> out(3), in(3, -1);
    for (int j = 0; j < 3; ++j) {
      out[static_cast<std::size_t>(j)] = 10 * me + j;
    }
    p.alltoall(out.data(), 1, in.data(), 1, Datatype::kInt32,
               p.comm_world());
    got[static_cast<std::size_t>(me)] = in;
  });
  EXPECT_EQ(got[0], (std::vector<int>{0, 10, 20}));
  EXPECT_EQ(got[1], (std::vector<int>{1, 11, 21}));
  EXPECT_EQ(got[2], (std::vector<int>{2, 12, 22}));
}

TEST(Coll, AllgatherConcatenates) {
  std::vector<std::vector<int>> got(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    const int v = p.world_rank() + 5;
    std::vector<int> all(3, -1);
    p.allgather(&v, 1, all.data(), 1, Datatype::kInt32, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = all;
  });
  for (const auto& g : got) EXPECT_EQ(g, (std::vector<int>{5, 6, 7}));
}

TEST(Coll, ScanPrefixSums) {
  std::vector<int> got(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    const int v = p.world_rank() + 1;
    int out = -1;
    p.scan(&v, &out, 1, Datatype::kInt32, ReduceOp::kSum, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = out;
  });
  EXPECT_EQ(got, (std::vector<int>{1, 3, 6, 10}));
}

// A reduce-op mismatch is not checked at run time (the replay checker
// reports it); the result uses communicator rank 0's op, whichever rank
// arrives last.  Inputs 2, 3, 4: a sum gives 9, a product 24.
TEST(Coll, MismatchedReduceOpAppliesRankZerosOpWhateverTheArrivalOrder) {
  for (const ReduceOp first : {ReduceOp::kSum, ReduceOp::kProd}) {
    const ReduceOp other =
        first == ReduceOp::kSum ? ReduceOp::kProd : ReduceOp::kSum;
    const int total = first == ReduceOp::kSum ? 9 : 24;
    const std::vector<int> prefix = first == ReduceOp::kSum
                                        ? std::vector<int>{2, 5, 9}
                                        : std::vector<int>{2, 6, 24};
    for (int last = 0; last < 3; ++last) {
      std::vector<int> all(3, -1), scanned(3, -1), scattered(3, -1);
      int reduced = -1;
      run_mpi(clean_options(3), [&](Proc& p) {
        const int r = p.world_rank();
        // Rank 0 and, in turn, one other rank use `first`.
        const ReduceOp op = r == 0 || r == (last + 1) % 3 ? first : other;
        const int v = r + 2;
        const std::vector<int> block(3, v);
        const auto in_turn = [&] {
          if (r == last) p.sim().advance(ms(5));
        };
        in_turn();
        p.allreduce(&v, &all[static_cast<std::size_t>(r)], 1,
                    Datatype::kInt32, op, p.comm_world());
        in_turn();
        int out = -1;
        p.reduce(&v, &out, 1, Datatype::kInt32, op, 1, p.comm_world());
        if (r == 1) reduced = out;
        in_turn();
        p.scan(&v, &scanned[static_cast<std::size_t>(r)], 1,
               Datatype::kInt32, op, p.comm_world());
        in_turn();
        p.reduce_scatter_block(block.data(),
                               &scattered[static_cast<std::size_t>(r)], 1,
                               Datatype::kInt32, op, p.comm_world());
      });
      const std::string ctx = std::string("rank 0 on ") + to_string(first) +
                              ", last arriver " + std::to_string(last);
      EXPECT_EQ(all, std::vector<int>(3, total)) << ctx;
      EXPECT_EQ(reduced, total) << ctx;
      EXPECT_EQ(scanned, prefix) << ctx;
      EXPECT_EQ(scattered, std::vector<int>(3, total)) << ctx;
    }
  }
}

TEST(Coll, MismatchedOperationThrows) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         int v = 0;
                         if (p.world_rank() == 0) {
                           p.barrier(p.comm_world());
                         } else {
                           p.bcast(&v, 1, Datatype::kInt32, 0,
                                   p.comm_world());
                         }
                       }),
               MpiError);
}

TEST(Coll, MismatchedRootThrows) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         int v = 0;
                         p.bcast(&v, 1, Datatype::kInt32, p.world_rank(),
                                 p.comm_world());
                       }),
               MpiError);
}

TEST(Coll, MismatchedCountThrows) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         std::vector<int> v(4, 0);
                         const int count = p.world_rank() == 0 ? 1 : 4;
                         p.bcast(v.data(), count, Datatype::kInt32, 0,
                                 p.comm_world());
                       }),
               MpiError);
}

TEST(Coll, SplitHalves) {
  std::vector<int> subrank(8, -1), subsize(8, -1);
  run_mpi(clean_options(8), [&](Proc& p) {
    const int me = p.world_rank();
    Comm* half = p.split(p.comm_world(), me < 4 ? 0 : 1, me);
    ASSERT_NE(half, nullptr);
    subrank[static_cast<std::size_t>(me)] = p.rank(*half);
    subsize[static_cast<std::size_t>(me)] = half->size();
  });
  for (int me = 0; me < 8; ++me) {
    EXPECT_EQ(subsize[static_cast<std::size_t>(me)], 4);
    EXPECT_EQ(subrank[static_cast<std::size_t>(me)], me % 4);
  }
}

TEST(Coll, SplitKeyReversesOrder) {
  std::vector<int> subrank(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    Comm* c = p.split(p.comm_world(), 0, -me);  // reversed keys
    subrank[static_cast<std::size_t>(me)] = p.rank(*c);
  });
  EXPECT_EQ(subrank, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Coll, SplitUndefinedGetsNull) {
  std::vector<bool> isnull(3, false);
  run_mpi(clean_options(3), [&](Proc& p) {
    const int me = p.world_rank();
    Comm* c = p.split(p.comm_world(), me == 1 ? kUndefined : 0, me);
    isnull[static_cast<std::size_t>(me)] = (c == nullptr);
  });
  EXPECT_EQ(isnull, (std::vector<bool>{false, true, false}));
}

TEST(Coll, SplitCommIsIndependentForCollectives) {
  // Each half does its own reduce with different roots; results must not
  // leak across halves.
  std::vector<int> sums(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    Comm* half = p.split(p.comm_world(), me / 2, me);
    int v = me + 1, out = -1;
    p.reduce(&v, &out, 1, Datatype::kInt32, ReduceOp::kSum, 0, *half);
    if (p.rank(*half) == 0) sums[static_cast<std::size_t>(me)] = out;
  });
  EXPECT_EQ(sums[0], 1 + 2);
  EXPECT_EQ(sums[2], 3 + 4);
}

TEST(Coll, SplitCommAllowsP2PWithinGroup) {
  int delivered = -1;
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    Comm* half = p.split(p.comm_world(), me / 2, me);
    const int sub = p.rank(*half);
    if (me >= 2) {  // upper half: local 0 sends to local 1
      if (sub == 0) {
        int v = 99;
        p.send(&v, 1, Datatype::kInt32, 1, 0, *half);
      } else {
        int v = 0;
        p.recv(&v, 1, Datatype::kInt32, 0, 0, *half);
        delivered = v;
      }
    }
  });
  EXPECT_EQ(delivered, 99);
}

TEST(Coll, DupPreservesGroup) {
  run_mpi(clean_options(3), [&](Proc& p) {
    Comm& d = p.dup(p.comm_world());
    EXPECT_EQ(d.size(), 3);
    EXPECT_EQ(p.rank(d), p.world_rank());
    p.barrier(d);
  });
}

TEST(Coll, NonMemberUseThrows) {
  // Rank 0 is split out (undefined color) and then tries to use the other
  // ranks' communicator: the runtime must reject it.
  Comm* upper = nullptr;
  EXPECT_THROW(
      run_mpi(clean_options(4),
              [&](Proc& p) {
                const int me = p.world_rank();
                Comm* c = p.split(p.comm_world(), me == 0 ? kUndefined : 0,
                                  me);
                if (c != nullptr) upper = c;
                p.barrier(p.comm_world());  // ensure `upper` is published
                if (me == 0) p.barrier(*upper);
              }),
      MpiError);
}

TEST(Coll, TraceCollEndRecordsPerRank) {
  auto result = run_mpi(clean_options(3), [&](Proc& p) {
    p.sim().advance(ms(p.world_rank()));
    p.barrier(p.comm_world());
  });
  int count = 0;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type == trace::EventType::kCollEnd &&
        e->op == trace::CollOp::kBarrier && e->seq == 1) {
      ++count;
      // All ranks leave the user barrier at the latest entry (2ms).
      EXPECT_EQ(e->t, VTime::zero() + ms(2));
    }
  }
  EXPECT_EQ(count, 3);  // seq 0 is the MPI_Init barrier
}

TEST(Coll, FastRankEntersTheNextInstanceBeforeASlowRankLeaves) {
  // Rank 3 is the reduce's root and starts 10 ms late.  Ranks 0-2
  // contribute, leave the reduce (#1) at once and wait in the allreduce (#2)
  // before rank 3 has entered #1.  Later every rank leaves the barrier (#3)
  // at the same time; ranks 0-2 resume first (ties go by id) and enter the
  // allgather (#4) while rank 3 has not yet recorded its exit from #3.
  // Each instance must keep its own arrivals and buffers.
  std::vector<int> reduced(4, -1);
  std::vector<int> summed(4, -1);
  std::vector<std::vector<int>> gathered(4);
  std::vector<VTime> ends(4);
  const MpiRunResult result = run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    const auto slot = static_cast<std::size_t>(me);
    if (me == 3) p.sim().advance(ms(10));
    int v = me + 1;
    p.reduce(&v, &reduced[slot], 1, Datatype::kInt32, ReduceOp::kSum, 3,
             p.comm_world());
    int w = 10 * me;
    p.allreduce(&w, &summed[slot], 1, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
    p.sim().advance(ms(me));
    p.barrier(p.comm_world());
    int g = 100 + me;
    gathered[slot].assign(4, -1);
    p.allgather(&g, 1, gathered[slot].data(), 1, Datatype::kInt32,
                p.comm_world());
    ends[slot] = p.sim().now();
  });
  EXPECT_EQ(reduced[3], 1 + 2 + 3 + 4);
  EXPECT_EQ(summed, (std::vector<int>{60, 60, 60, 60}));
  for (const auto& got : gathered) {
    EXPECT_EQ(got, (std::vector<int>{100, 101, 102, 103}));
  }
  const VTime z = VTime::zero();
  EXPECT_EQ(ends, (std::vector<VTime>(4, z + ms(13))));

  // (seq, loc) -> (enter, exit) of every kCollEnd record.
  std::map<std::pair<std::int64_t, trace::LocId>, std::pair<VTime, VTime>>
      got;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type == trace::EventType::kCollEnd) {
      got[{e->seq, e->loc}] = {e->enter_t, e->t};
    }
  }
  std::map<std::pair<std::int64_t, trace::LocId>, std::pair<VTime, VTime>>
      want;
  for (trace::LocId r = 0; r < 4; ++r) {
    const VTime late = r == 3 ? z + ms(10) : z;
    want[{1, r}] = {late, late};
    want[{2, r}] = {late, z + ms(10)};
    want[{3, r}] = {z + ms(10 + r), z + ms(13)};
    want[{4, r}] = {z + ms(13), z + ms(13)};
  }
  EXPECT_EQ(got, want);
}

TEST(Coll, InitFinalizeCostsAppear) {
  auto cm = clean_cost();
  cm.init_cost = ms(2);
  cm.finalize_cost = ms(1);
  MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = cm;
  auto result = run_mpi(opt, [](Proc&) {});
  EXPECT_EQ(result.makespan, VTime::zero() + ms(3));
}

}  // namespace
}  // namespace ats::mpi
