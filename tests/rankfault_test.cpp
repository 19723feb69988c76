// Tests for runtime rank-fault injection (mpisim/faultplan): crashes abort
// with MpiError, stalls delay ranks and create genuine wait states, dropped
// sends starve their receivers into deadlock — all deterministically.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analyzer/analyzer.hpp"
#include "common/error.hpp"
#include "mpisim/world.hpp"

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

TEST(RankFault, CrashThrowsMpiErrorAtTriggerTime) {
  MpiRunOptions opt = clean_options(2);
  opt.faults.crash(1, VTime::zero() + VDur::millis(5));
  try {
    run_mpi(opt, [](Proc& p) {
      for (int i = 0; i < 20; ++i) p.sim().advance(VDur::millis(1));
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("injected fault: rank 1 crashed at"),
              std::string::npos)
        << msg;
  }
}

TEST(RankFault, StallDelaysTheRankAndOnlyThatRank) {
  MpiRunOptions opt = clean_options(2);
  opt.faults.stall(1, VTime::zero() + VDur::millis(2), VDur::millis(50));
  const MpiRunResult result = run_mpi(opt, [](Proc& p) {
    for (int i = 0; i < 10; ++i) p.sim().advance(VDur::millis(1));
  });
  EXPECT_EQ(result.fault_report.stalls, 1u);
  // 10ms of work + one 50ms stall on rank 1.
  EXPECT_EQ(result.makespan, VTime::zero() + VDur::millis(60));
}

TEST(RankFault, StallInsideAnUncontestedYieldKeepsTheTrace) {
  // Rank 1's advances at 1 and 2 ms leave it first (rank 0 sits at 6 ms),
  // so the stall hook fires on a yield that changes no order; its own
  // advance to 5 ms is such a yield too.  Rank 1 then ties rank 0 at 6 ms,
  // loses on id, and sends at 7 ms while rank 0 has waited in its receive
  // since 6 ms: a 1 ms late sender.
  MpiRunOptions opt = clean_options(2);
  opt.faults.stall(1, VTime::zero() + VDur::millis(2), VDur::millis(3));
  const MpiRunResult result = run_mpi(opt, [](Proc& p) {
    int v = 7;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(6));
      p.recv(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      for (int i = 0; i < 4; ++i) p.sim().advance(VDur::millis(1));
      p.send(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  std::ostringstream os;
  result.trace.save(os);
  EXPECT_EQ(os.str(),
            "ATS-TRACE 1\n"
            "region 0 mpi_other MPI_Init\n"
            "region 1 mpi_p2p MPI_Recv\n"
            "region 2 mpi_p2p MPI_Send\n"
            "region 3 mpi_other MPI_Finalize\n"
            "loc 0 -1 process 0 0 rank 0\n"
            "loc 1 -1 process 1 0 rank 1\n"
            "comm 0 mpi 2 0 1 MPI_COMM_WORLD\n"
            "E 0 0 0\n"
            "X 0 0 0\n"
            "E 0 6000000 1\n"
            "R 0 7000000 1 0 0 4\n"
            "X 0 7000000 1\n"
            "E 0 7000000 3\n"
            "X 0 7000000 3\n"
            "E 1 0 0\n"
            "X 1 0 0\n"
            "E 1 7000000 2\n"
            "S 1 7000000 0 0 0 4\n"
            "X 1 7000000 2\n"
            "E 1 7000000 3\n"
            "X 1 7000000 3\n");
  EXPECT_EQ(result.fault_report.stalls, 1u);
  EXPECT_EQ(result.makespan, VTime::zero() + VDur::millis(7));
}

TEST(RankFault, StalledSenderIsALateSender) {
  // The stall is a *runtime* pathology: rank 0 stalls before sending, so
  // the analyzer sees an authentic late-sender wait state on rank 1.  The
  // stall triggers at 1ms — after MPI_Init (a synchronising barrier, which
  // would otherwise absorb the delay as init overhead).
  MpiRunOptions opt = clean_options(2);
  opt.faults.stall(0, VTime::zero() + VDur::millis(1), VDur::millis(50));
  const MpiRunResult result = run_mpi(opt, [](Proc& p) {
    int v = 7;
    p.sim().advance(VDur::millis(2));
    if (p.world_rank() == 0) {
      p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  const auto analysis = analyze::analyze(result.trace);
  EXPECT_GE(analysis.cube.total(analyze::PropertyId::kLateSender),
            VDur::millis(40));
}

TEST(RankFault, DroppedSendStarvesReceiverIntoDeadlock) {
  MpiRunOptions opt = clean_options(2);
  opt.faults.drop_sends(0);
  EXPECT_THROW(run_mpi(opt,
                       [](Proc& p) {
                         int v = 7;
                         if (p.world_rank() == 0) {
                           p.send(&v, 1, Datatype::kInt32, 1, 0,
                                  p.comm_world());
                         } else {
                           p.recv(&v, 1, Datatype::kInt32, 0, 0,
                                  p.comm_world());
                         }
                       }),
               DeadlockError);
}

TEST(RankFault, DroppedIsendCompletesLocallyAndNeverArrives) {
  // A dropped isend completes at its send record, like a dropped blocking
  // send, even under rendezvous (eager_threshold 0) with the matching irecv
  // already posted: the receive never sees the message.
  MpiRunOptions opt = clean_options(2);
  opt.cost.send_overhead = VDur::micros(3);
  opt.cost.eager_threshold = 0;
  opt.faults.drop_sends(0);
  VTime send_done;
  bool arrived = true;
  const MpiRunResult result = run_mpi(opt, [&](Proc& p) {
    int v = 7;
    if (p.world_rank() == 0) {
      p.sim().advance(VDur::millis(1));
      Request r = p.isend(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
      p.wait(r);
      send_done = p.sim().now();
    } else {
      Request r = p.irecv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
      p.sim().advance(VDur::millis(10));
      arrived = p.test(r) || p.iprobe(0, kAnyTag, p.comm_world());
    }
  });
  EXPECT_EQ(send_done, VTime::zero() + VDur::millis(1) + VDur::micros(3));
  EXPECT_FALSE(arrived);
  EXPECT_EQ(result.fault_report.sends_dropped, 1u);
}

TEST(RankFault, DropSendsCountsDroppedMessages) {
  // The receiver never posts matching receives, so the run completes and
  // the report is observable: every send from rank 0 after `from` vanishes.
  MpiRunOptions opt = clean_options(2);
  opt.faults.drop_sends(0, VTime::zero());
  const MpiRunResult result = run_mpi(opt, [](Proc& p) {
    if (p.world_rank() == 0) {
      const int v = 1;
      for (int i = 0; i < 3; ++i) {
        p.send(&v, 1, Datatype::kInt32, 1, i, p.comm_world());
      }
    }
  });
  EXPECT_EQ(result.fault_report.sends_dropped, 3u);
  EXPECT_EQ(result.fault_report.crashes, 0u);
  EXPECT_EQ(result.fault_report.total(), 3u);
}

TEST(RankFault, DropSendsHonoursStartTime) {
  // Drops start at 5ms: the first send (at ~0) is delivered, later ones
  // vanish.
  MpiRunOptions opt = clean_options(2);
  opt.faults.drop_sends(0, VTime::zero() + VDur::millis(5));
  int received = 0;
  const MpiRunResult result = run_mpi(opt, [&](Proc& p) {
    if (p.world_rank() == 0) {
      const int v = 42;
      p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
      p.sim().advance(VDur::millis(10));
      p.send(&v, 1, Datatype::kInt32, 1, 1, p.comm_world());
    } else {
      p.recv(&received, 1, Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  EXPECT_EQ(received, 42);
  EXPECT_EQ(result.fault_report.sends_dropped, 1u);
}

TEST(RankFault, ProbabilisticDropsAreSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    MpiRunOptions opt = clean_options(2);
    opt.faults.seed = seed;
    opt.faults.drop_sends(0, VTime::zero(), 0.5);
    const MpiRunResult result = run_mpi(opt, [](Proc& p) {
      if (p.world_rank() == 0) {
        const int v = 1;
        for (int i = 0; i < 32; ++i) {
          p.send(&v, 1, Datatype::kInt32, 1, i, p.comm_world());
        }
      }
    });
    return result.fault_report.sends_dropped;
  };
  const std::size_t a = run_once(123);
  EXPECT_EQ(a, run_once(123));  // same seed, same drops
  EXPECT_GT(a, 0u);             // ~half of 32 messages
  EXPECT_LT(a, 32u);
}

TEST(RankFault, CleanPlanReportsNothing) {
  const MpiRunResult result = run_mpi(clean_options(2), [](Proc& p) {
    p.sim().advance(VDur::millis(1));
  });
  EXPECT_EQ(result.fault_report.total(), 0u);
  EXPECT_TRUE(result.fault_report.str().empty());
}

TEST(RankFault, ValidateRejectsBadPlans) {
  RankFaultPlan plan;
  plan.crash(5, VTime::zero());
  EXPECT_THROW(plan.validate(4), UsageError);  // rank out of range

  RankFaultPlan neg;
  neg.stall(0, VTime::zero(), VDur::millis(-1));
  EXPECT_THROW(neg.validate(4), UsageError);  // negative stall

  RankFaultPlan prob;
  prob.drop_sends(0, VTime::zero(), 1.5);
  EXPECT_THROW(prob.validate(4), UsageError);  // probability > 1
}

TEST(RankFault, ToStringNamesKinds) {
  EXPECT_STREQ(to_string(RankFaultKind::kCrash), "crash");
  EXPECT_STREQ(to_string(RankFaultKind::kStall), "stall");
  EXPECT_STREQ(to_string(RankFaultKind::kDropSends), "drop-sends");
}

}  // namespace
}  // namespace ats::mpi
