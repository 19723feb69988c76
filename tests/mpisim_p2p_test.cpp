// Tests for simulated-MPI point-to-point: data movement, matching rules,
// protocol timing (eager vs rendezvous), non-blocking ops, error detection.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "mpisim/world.hpp"
#include "test_util.hpp"

namespace ats::mpi {
namespace {

/// Cost model with all constant overheads zeroed except where a test sets
/// them, so timing assertions are exact.
CostModel clean_cost() {
  CostModel cm;
  cm.p2p_latency = VDur::zero();
  cm.bandwidth_bytes_per_sec = 1e15;  // transfer time ~ 0
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

TEST(P2P, BlockingSendRecvMovesData) {
  std::vector<int> received(4, 0);
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      const std::array<int, 4> data{10, 20, 30, 40};
      p.send(data.data(), 4, Datatype::kInt32, 1, 7, p.comm_world());
    } else {
      p.recv(received.data(), 4, Datatype::kInt32, 0, 7, p.comm_world());
    }
  });
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30, 40}));
}

TEST(P2P, StatusReportsSourceTagBytes) {
  Status st;
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      const double v = 3.5;
      p.send(&v, 1, Datatype::kDouble, 1, 42, p.comm_world());
    } else {
      double v = 0;
      p.recv(&v, 1, Datatype::kDouble, kAnySource, kAnyTag, p.comm_world(),
             &st);
      EXPECT_DOUBLE_EQ(v, 3.5);
    }
  });
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 42);
  EXPECT_EQ(st.bytes, 8);
  EXPECT_EQ(st.count, 1);
}

TEST(P2P, LateSenderBlocksReceiver) {
  // Rank 0 computes 10ms before sending; rank 1 receives immediately and
  // must therefore finish its recv at the sender's send time.
  auto cm = clean_cost();
  cm.p2p_latency = VDur::micros(2);
  MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = cm;
  VTime recv_done;
  run_mpi(opt, [&](Proc& p) {
    int v = 1;
    if (p.world_rank() == 0) {
      p.sim().advance(ms(10));
      p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
      recv_done = p.sim().now();
    }
  });
  EXPECT_EQ(recv_done, VTime::zero() + ms(10) + VDur::micros(2));
}

TEST(P2P, EarlySenderDoesNotDelayReceiver) {
  // Rank 0 sends at t=0 (eager); rank 1 receives at t=10ms: no wait.
  VTime recv_done;
  run_mpi(clean_options(2), [&](Proc& p) {
    int v = 9;
    if (p.world_rank() == 0) {
      p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      p.sim().advance(ms(10));
      p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
      recv_done = p.sim().now();
    }
  });
  EXPECT_EQ(recv_done, VTime::zero() + ms(10));
}

TEST(P2P, EagerSendDoesNotBlockSender) {
  VTime send_done;
  run_mpi(clean_options(2), [&](Proc& p) {
    int v = 1;
    if (p.world_rank() == 0) {
      p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
      send_done = p.sim().now();
      p.sim().advance(ms(1));  // go on computing
    } else {
      p.sim().advance(ms(20));
      p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  EXPECT_EQ(send_done, VTime::zero());
}

TEST(P2P, SsendBlocksUntilReceiverArrives) {
  // Synchronous send: even a tiny message keeps the sender blocked until
  // the receiver posts (the late_receiver situation).
  VTime send_done;
  run_mpi(clean_options(2), [&](Proc& p) {
    int v = 1;
    if (p.world_rank() == 0) {
      p.ssend(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
      send_done = p.sim().now();
    } else {
      p.sim().advance(ms(15));
      p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    }
  });
  EXPECT_EQ(send_done, VTime::zero() + ms(15));
}

TEST(P2P, LargeMessageUsesRendezvous) {
  // Above the eager threshold the plain send also blocks for the receiver.
  auto cm = clean_cost();
  cm.eager_threshold = 1024;
  MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = cm;
  VTime send_done;
  std::vector<std::int64_t> payload(1000);  // 8000 bytes > threshold
  std::iota(payload.begin(), payload.end(), 0);
  std::vector<std::int64_t> sink(1000);
  run_mpi(opt, [&](Proc& p) {
    if (p.world_rank() == 0) {
      p.send(payload.data(), 1000, Datatype::kInt64, 1, 0, p.comm_world());
      send_done = p.sim().now();
    } else {
      p.sim().advance(ms(5));
      p.recv(sink.data(), 1000, Datatype::kInt64, 0, 0, p.comm_world());
    }
  });
  EXPECT_GE(send_done, VTime::zero() + ms(5));
  EXPECT_EQ(sink, payload);
}

TEST(P2P, RendezvousSenderFirstReceiverLate) {
  // Mirror case: receiver posts first, sender arrives later — the receiver
  // waits (classic late sender under rendezvous).
  auto cm = clean_cost();
  cm.eager_threshold = 8;
  MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = cm;
  VTime recv_done;
  std::vector<double> data(16, 1.5), sink(16);
  run_mpi(opt, [&](Proc& p) {
    if (p.world_rank() == 0) {
      p.sim().advance(ms(8));
      p.send(data.data(), 16, Datatype::kDouble, 1, 3, p.comm_world());
    } else {
      p.recv(sink.data(), 16, Datatype::kDouble, 0, 3, p.comm_world());
      recv_done = p.sim().now();
    }
  });
  EXPECT_EQ(recv_done, VTime::zero() + ms(8));
  EXPECT_EQ(sink, data);
}

TEST(P2P, TagsSelectMessages) {
  // Two messages with different tags; receiver takes tag 2 first even
  // though tag 1 was sent earlier.
  std::vector<int> order;
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      int a = 111, b = 222;
      p.send(&a, 1, Datatype::kInt32, 1, 1, p.comm_world());
      p.send(&b, 1, Datatype::kInt32, 1, 2, p.comm_world());
    } else {
      int v = 0;
      p.sim().advance(ms(1));
      p.recv(&v, 1, Datatype::kInt32, 0, 2, p.comm_world());
      order.push_back(v);
      p.recv(&v, 1, Datatype::kInt32, 0, 1, p.comm_world());
      order.push_back(v);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{222, 111}));
}

TEST(P2P, NonOvertakingSameTag) {
  // Messages with the same envelope must be received in send order.
  std::vector<int> order;
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      for (int v : {1, 2, 3}) {
        p.send(&v, 1, Datatype::kInt32, 1, 0, p.comm_world());
      }
    } else {
      p.sim().advance(ms(1));
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        p.recv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
        order.push_back(v);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(P2P, AnySourceReceivesInArrivalOrder) {
  std::vector<int> got;
  run_mpi(clean_options(3), [&](Proc& p) {
    if (p.world_rank() == 1) {
      p.sim().advance(ms(2));
      int v = 10;
      p.send(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    } else if (p.world_rank() == 2) {
      p.sim().advance(ms(1));
      int v = 20;
      p.send(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
    } else {
      p.sim().advance(ms(5));
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status st;
        p.recv(&v, 1, Datatype::kInt32, kAnySource, 0, p.comm_world(), &st);
        got.push_back(v);
      }
    }
  });
  // Rank 2's message was sent first (t=1ms) and sits first in the queue.
  EXPECT_EQ(got, (std::vector<int>{20, 10}));
}

TEST(P2P, IsendIrecvWaitall) {
  std::vector<int> sink(2, 0);
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      int a = 5, b = 6;
      std::array<Request, 2> reqs{
          p.isend(&a, 1, Datatype::kInt32, 1, 0, p.comm_world()),
          p.isend(&b, 1, Datatype::kInt32, 1, 1, p.comm_world())};
      p.waitall(reqs);
    } else {
      std::array<Request, 2> reqs{
          p.irecv(&sink[0], 1, Datatype::kInt32, 0, 0, p.comm_world()),
          p.irecv(&sink[1], 1, Datatype::kInt32, 0, 1, p.comm_world())};
      p.waitall(reqs);
    }
  });
  EXPECT_EQ(sink, (std::vector<int>{5, 6}));
}

TEST(P2P, IrecvPostedBeforeSendCompletes) {
  VTime wait_done;
  run_mpi(clean_options(2), [&](Proc& p) {
    int v = 0;
    if (p.world_rank() == 1) {
      Request r = p.irecv(&v, 1, Datatype::kInt32, 0, 9, p.comm_world());
      p.wait(r);
      wait_done = p.sim().now();
      EXPECT_EQ(v, 77);
    } else {
      p.sim().advance(ms(4));
      int s = 77;
      p.send(&s, 1, Datatype::kInt32, 1, 9, p.comm_world());
    }
  });
  EXPECT_EQ(wait_done, VTime::zero() + ms(4));
}

TEST(P2P, TestPollsWithoutBlocking) {
  run_mpi(clean_options(2), [&](Proc& p) {
    int v = 0;
    if (p.world_rank() == 1) {
      Request r = p.irecv(&v, 1, Datatype::kInt32, 0, 0, p.comm_world());
      EXPECT_FALSE(p.test(r));  // nothing sent yet at t=0
      p.sim().advance(ms(10));
      EXPECT_TRUE(p.test(r));  // sent at 2ms, we are at 10ms
      EXPECT_EQ(v, 3);
    } else {
      p.sim().advance(ms(2));
      int s = 3;
      p.send(&s, 1, Datatype::kInt32, 1, 0, p.comm_world());
    }
  });
}

TEST(P2P, SendrecvExchanges) {
  std::array<int, 2> got{0, 0};
  run_mpi(clean_options(2), [&](Proc& p) {
    const int me = p.world_rank();
    const int other = 1 - me;
    const int mine = 100 + me;
    int theirs = 0;
    p.sendrecv(&mine, 1, Datatype::kInt32, other, 0, &theirs, 1,
               Datatype::kInt32, other, 0, p.comm_world());
    got[static_cast<std::size_t>(me)] = theirs;
  });
  EXPECT_EQ(got[0], 101);
  EXPECT_EQ(got[1], 100);
}

TEST(P2P, TruncationThrowsMpiError) {
  MpiRunOptions opt = clean_options(2);
  EXPECT_THROW(
      run_mpi(opt,
              [&](Proc& p) {
                if (p.world_rank() == 0) {
                  std::array<int, 8> big{};
                  p.send(big.data(), 8, Datatype::kInt32, 1, 0,
                         p.comm_world());
                } else {
                  int small = 0;
                  p.recv(&small, 1, Datatype::kInt32, 0, 0, p.comm_world());
                }
              }),
      MpiError);
}

TEST(P2P, InvalidRankThrows) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         int v = 0;
                         p.send(&v, 1, Datatype::kInt32, 5, 0,
                                p.comm_world());
                       }),
               MpiError);
}

TEST(P2P, NegativeTagThrows) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         int v = 0;
                         p.send(&v, 1, Datatype::kInt32, 0, -3,
                                p.comm_world());
                       }),
               UsageError);
}

TEST(P2P, MissingSenderDeadlocks) {
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         if (p.world_rank() == 1) {
                           int v = 0;
                           p.recv(&v, 1, Datatype::kInt32, 0, 0,
                                  p.comm_world());
                         }
                       }),
               DeadlockError);
}

TEST(P2P, HeadToHeadBlockingSsendDeadlocks) {
  // Both ranks ssend to each other first: classic deadlock, detected.
  EXPECT_THROW(run_mpi(clean_options(2),
                       [&](Proc& p) {
                         int v = 0, w = 0;
                         const int other = 1 - p.world_rank();
                         p.ssend(&v, 1, Datatype::kInt32, other, 0,
                                 p.comm_world());
                         p.recv(&w, 1, Datatype::kInt32, other, 0,
                                p.comm_world());
                       }),
               DeadlockError);
}

TEST(P2P, TraceRecordsSendRecvEvents) {
  auto result = run_mpi(clean_options(2), [&](Proc& p) {
    int v = 0;
    if (p.world_rank() == 0) {
      v = 7;
      p.send(&v, 1, Datatype::kInt32, 1, 4, p.comm_world());
    } else {
      p.recv(&v, 1, Datatype::kInt32, 0, 4, p.comm_world());
    }
  });
  int sends = 0, recvs = 0;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type == trace::EventType::kSend) {
      ++sends;
      EXPECT_EQ(e->loc, 0);
      EXPECT_EQ(e->peer, 1);
      EXPECT_EQ(e->tag, 4);
      EXPECT_EQ(e->bytes, 4);
    }
    if (e->type == trace::EventType::kRecv) {
      ++recvs;
      EXPECT_EQ(e->loc, 1);
      EXPECT_EQ(e->peer, 0);
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(P2P, DisabledTraceSameDataResults) {
  // The Chapter-2 validation procedure: run with and without
  // instrumentation; results must match.
  auto body_result = [](bool traced) {
    std::vector<int> sink(8, 0);
    MpiRunOptions opt = clean_options(2);
    opt.trace_enabled = traced;
    run_mpi(opt, [&](Proc& p) {
      if (p.world_rank() == 0) {
        std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8};
        p.send(data.data(), 8, Datatype::kInt32, 1, 0, p.comm_world());
      } else {
        p.recv(sink.data(), 8, Datatype::kInt32, 0, 0, p.comm_world());
      }
    });
    return sink;
  };
  EXPECT_EQ(body_result(true), body_result(false));
}

TEST(P2P, DeterministicMakespan) {
  auto once = [] {
    return run_mpi(clean_options(4), [](Proc& p) {
      const int right = (p.world_rank() + 1) % 4;
      const int left = (p.world_rank() + 3) % 4;
      int out = p.world_rank(), in = -1;
      p.sim().advance(VDur::micros(100 * (p.world_rank() + 1)));
      p.sendrecv(&out, 1, Datatype::kInt32, right, 0, &in, 1,
                 Datatype::kInt32, left, 0, p.comm_world());
    });
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.trace.event_count(), b.trace.event_count());
}

TEST(P2P, ManyMessagesStress) {
  const int n = 50;
  std::vector<int> got;
  run_mpi(clean_options(2), [&](Proc& p) {
    if (p.world_rank() == 0) {
      for (int i = 0; i < n; ++i) {
        p.send(&i, 1, Datatype::kInt32, 1, i % 5, p.comm_world());
      }
    } else {
      for (int i = 0; i < n; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt32, 0, i % 5, p.comm_world());
        got.push_back(v);
      }
    }
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// --- protocol matrix ------------------------------------------------------
//
// Every way one message can travel: {eager, rendezvous by size, ssend} x
// {send first, receive posted first} x {send, isend+wait} x {recv,
// irecv+wait} (there is no non-blocking ssend).  Each cell checks the data,
// the Status, the traced Recv time and the sender's return time against the
// CostModel formula: with s and r the times the send and the receive are
// initiated (enter + overhead) and X = latency + transfer time,
//   eager:      Recv at max(r, s + X), the sender returns at s;
//   rendezvous: Recv at max(s, r) + X, the sender returns then too.

enum class Protocol { kEager, kRendezvous, kSsend };

struct MatrixCell {
  Protocol protocol = Protocol::kEager;
  bool recv_first = false;
  bool isend = false;
  bool irecv = false;
};

std::vector<MatrixCell> matrix_cells() {
  std::vector<MatrixCell> cells;
  for (const Protocol pr :
       {Protocol::kEager, Protocol::kRendezvous, Protocol::kSsend}) {
    for (const bool recv_first : {false, true}) {
      for (const bool isend : {false, true}) {
        if (isend && pr == Protocol::kSsend) continue;
        for (const bool irecv : {false, true}) {
          cells.push_back({pr, recv_first, isend, irecv});
        }
      }
    }
  }
  return cells;
}

std::string cell_name(const testing::TestParamInfo<MatrixCell>& info) {
  const MatrixCell& c = info.param;
  const char* pr = c.protocol == Protocol::kEager        ? "eager"
                   : c.protocol == Protocol::kRendezvous ? "rendezvous"
                                                         : "ssend";
  return std::string(pr) + (c.recv_first ? "_recv_first" : "_send_first") +
         (c.isend ? "_isend" : "_send") + (c.irecv ? "_irecv" : "_recv");
}

class P2PProtocolMatrix : public testing::TestWithParam<MatrixCell> {};

TEST_P(P2PProtocolMatrix, DataStatusAndTimesFollowTheCostModel) {
  const MatrixCell c = GetParam();
  CostModel cm = clean_cost();
  cm.p2p_latency = VDur::micros(2);
  cm.bandwidth_bytes_per_sec = 1e9;
  cm.send_overhead = VDur::micros(1);
  cm.recv_overhead = VDur::micros(3);
  cm.eager_threshold = 64;
  MpiRunOptions opt;
  opt.nprocs = 2;
  opt.cost = cm;

  const int count = c.protocol == Protocol::kRendezvous ? 32 : 4;
  const std::int64_t bytes = 4 * count;
  ASSERT_EQ(bytes > 64, c.protocol == Protocol::kRendezvous);
  std::vector<int> payload(static_cast<std::size_t>(count));
  std::iota(payload.begin(), payload.end(), 100);
  std::vector<int> sink(static_cast<std::size_t>(count), -1);
  const int tag = 5;
  // The early side starts right after MPI_Init (t = 0), the late one 10ms on.
  const VTime send_enter = VTime::zero() + (c.recv_first ? ms(10) : ms(0));
  const VTime recv_enter = VTime::zero() + (c.recv_first ? ms(0) : ms(10));

  VTime sender_return;
  Status st;
  const MpiRunResult result = run_mpi(opt, [&](Proc& p) {
    Comm& w = p.comm_world();
    if (p.world_rank() == 0) {
      p.sim().advance_to(send_enter);
      if (c.protocol == Protocol::kSsend) {
        p.ssend(payload.data(), count, Datatype::kInt32, 1, tag, w);
      } else if (c.isend) {
        Request r = p.isend(payload.data(), count, Datatype::kInt32, 1, tag, w);
        p.wait(r);
      } else {
        p.send(payload.data(), count, Datatype::kInt32, 1, tag, w);
      }
      sender_return = p.sim().now();
    } else {
      p.sim().advance_to(recv_enter);
      if (c.irecv) {
        Request r = p.irecv(sink.data(), count, Datatype::kInt32, 0, tag, w);
        p.wait(r, &st);
      } else {
        p.recv(sink.data(), count, Datatype::kInt32, 0, tag, w, &st);
      }
    }
  });

  const VTime s = send_enter + cm.send_overhead;
  const VTime r = recv_enter + cm.recv_overhead;
  const VDur x = cm.p2p_latency + cm.transfer_time(bytes);
  const bool eager = c.protocol == Protocol::kEager;
  const VTime want_recv = eager ? later(r, s + x) : later(s, r) + x;
  const VTime want_return = eager ? s : want_recv;

  EXPECT_EQ(sink, payload);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, tag);
  EXPECT_EQ(st.bytes, bytes);
  EXPECT_EQ(st.count, count);
  EXPECT_EQ(sender_return, want_return);
  int recvs = 0;
  for (const trace::Event& e : result.trace.events_of(1)) {
    if (e.type != trace::EventType::kRecv) continue;
    ++recvs;
    EXPECT_EQ(e.t, want_recv);
    EXPECT_EQ(e.peer, 0);
    EXPECT_EQ(e.tag, tag);
    EXPECT_EQ(e.bytes, bytes);
  }
  EXPECT_EQ(recvs, 1);
}

INSTANTIATE_TEST_SUITE_P(Cells, P2PProtocolMatrix,
                         testing::ValuesIn(matrix_cells()), cell_name);

}  // namespace
}  // namespace ats::mpi
