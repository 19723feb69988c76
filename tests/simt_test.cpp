// Unit tests for the simt discrete-event engine: scheduling order,
// determinism, block/wake time propagation, fork/join, deadlock detection,
// error propagation, fiber stack reuse within and across engines, and the
// arrival gate's all-wait.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "simt/engine.hpp"
#include "simt/gate.hpp"

namespace ats::simt {
namespace {

TEST(Engine, EmptyRunCompletes) {
  Engine eng;
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(eng.location_count(), 0u);
  EXPECT_EQ(eng.horizon(), VTime::zero());
}

TEST(Engine, SingleLocationAdvances) {
  Engine eng;
  const LocationId id = eng.add_location("solo", [](Context& c) {
    c.advance(VDur::millis(5));
    c.advance(VDur::millis(7));
  });
  eng.run();
  EXPECT_EQ(eng.end_time_of(id), VTime::zero() + VDur::millis(12));
  EXPECT_EQ(eng.horizon(), VTime::zero() + VDur::millis(12));
}

TEST(Engine, NegativeAdvanceThrows) {
  Engine eng;
  eng.add_location("bad", [](Context& c) { c.advance(VDur::millis(-1)); });
  EXPECT_THROW(eng.run(), UsageError);
}

TEST(Engine, RunTwiceThrows) {
  Engine eng;
  eng.run();
  EXPECT_THROW(eng.run(), UsageError);
}

TEST(Engine, AddLocationAfterRunThrows) {
  Engine eng;
  eng.run();
  EXPECT_THROW(eng.add_location("late", [](Context&) {}), UsageError);
}

TEST(Engine, LocationsExecuteInVirtualTimeOrder) {
  // Three locations advancing by different steps interleave so that the
  // observed order of "checkpoints" is sorted by virtual time.
  Engine eng;
  std::vector<std::pair<std::int64_t, int>> order;  // (time ns, who)
  for (int who = 0; who < 3; ++who) {
    const VDur step = VDur::millis(who + 1);
    eng.add_location("loc", [&, who, step](Context& c) {
      for (int i = 0; i < 5; ++i) {
        c.advance(step);
        order.emplace_back(c.now().ns(), who);
      }
    });
  }
  eng.run();
  ASSERT_EQ(order.size(), 15u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first)
        << "event " << i << " executed out of virtual-time order";
  }
}

TEST(Engine, TieBreaksByLocationId) {
  Engine eng;
  std::vector<int> order;
  for (int who = 0; who < 4; ++who) {
    eng.add_location("loc", [&, who](Context& c) {
      c.advance(VDur::millis(1));  // all at the same virtual time
      order.push_back(who);
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, TiedClocksKeepIdOrderAcrossYields) {
  // Two locations on one clock: the lower id is first at every yield, so
  // it keeps running until it advances; then the other one catches up.
  Engine eng;
  std::string log;
  for (int who = 0; who < 2; ++who) {
    eng.add_location("loc", [&log, who](Context& c) {
      for (int step = 0; step < 2; ++step) {
        for (int i = 0; i < 3; ++i) {
          log += std::to_string(who) + "@" + c.now().str() + " ";
          c.yield();
        }
        c.advance(VDur::millis(1));
      }
      log += std::to_string(who) + " done ";
    });
  }
  eng.run();
  EXPECT_EQ(log,
            "0@0 ns 0@0 ns 0@0 ns 1@0 ns 1@0 ns 1@0 ns "
            "0@1.00 ms 0@1.00 ms 0@1.00 ms 1@1.00 ms 1@1.00 ms 1@1.00 ms "
            "0 done 1 done ");
  EXPECT_EQ(eng.stats().yields, 16u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int who = 0; who < 4; ++who) {
      eng.add_location("loc", [&, who](Context& c) {
        for (int i = 0; i < 10; ++i) {
          c.advance(VDur::micros(100 + 37 * who));
          order.push_back(who);
        }
      });
    }
    eng.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, WakePropagatesTime) {
  Engine eng;
  VTime woken_at;
  const LocationId sleeper = eng.add_location("sleeper", [&](Context& c) {
    c.block("test sleep");
    woken_at = c.now();
  });
  eng.add_location("waker", [&, sleeper](Context& c) {
    c.advance(VDur::millis(3));
    c.engine().wake(sleeper, c.now() + VDur::millis(2));
  });
  eng.run();
  EXPECT_EQ(woken_at, VTime::zero() + VDur::millis(5));
}

TEST(Engine, WakeDoesNotRewindClock) {
  Engine eng;
  VTime woken_at;
  const LocationId sleeper = eng.add_location("sleeper", [&](Context& c) {
    c.advance(VDur::millis(10));
    c.block("test sleep");
    woken_at = c.now();
  });
  eng.add_location("waker", [&, sleeper](Context& c) {
    c.advance(VDur::millis(20));  // let the sleeper block first
    c.engine().wake(sleeper, VTime::zero() + VDur::millis(1));
  });
  eng.run();
  EXPECT_EQ(woken_at, VTime::zero() + VDur::millis(10));
}

TEST(Engine, WakeOfNonBlockedThrows) {
  Engine eng;
  const LocationId a = eng.add_location("a", [](Context& c) {
    c.advance(VDur::millis(100));
  });
  eng.add_location("b", [a](Context& c) {
    c.engine().wake(a, c.now());  // 'a' is runnable, not blocked
  });
  EXPECT_THROW(eng.run(), UsageError);
}

TEST(Engine, AdvanceToIsMonotonic) {
  Engine eng;
  eng.add_location("loc", [](Context& c) {
    c.advance_to(VTime::zero() + VDur::millis(5));
    EXPECT_EQ(c.now(), VTime::zero() + VDur::millis(5));
    c.advance_to(VTime::zero() + VDur::millis(2));  // past: no-op
    EXPECT_EQ(c.now(), VTime::zero() + VDur::millis(5));
  });
  eng.run();
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.add_location("d1", [](Context& c) { c.block("waiting forever"); });
  eng.add_location("d2", [](Context& c) { c.block("also forever"); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("waiting forever"), std::string::npos);
    EXPECT_NE(msg.find("also forever"), std::string::npos);
    EXPECT_NE(msg.find("d1"), std::string::npos);
  }
}

TEST(Engine, PartialDeadlockStillDetected) {
  Engine eng;
  eng.add_location("fine", [](Context& c) { c.advance(VDur::millis(1)); });
  eng.add_location("stuck", [](Context& c) { c.block("never woken"); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, BodyExceptionPropagates) {
  Engine eng;
  eng.add_location("thrower", [](Context& c) {
    c.advance(VDur::millis(1));
    throw std::runtime_error("boom");
  });
  eng.add_location("bystander", [](Context& c) {
    for (int i = 0; i < 100; ++i) c.advance(VDur::millis(1));
  });
  try {
    eng.run();
    FAIL() << "expected the body exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Engine, ExceptionUnblocksBlockedPeers) {
  // A blocked location must not hang the engine when another one throws.
  Engine eng;
  eng.add_location("stuck", [](Context& c) { c.block("waiting"); });
  eng.add_location("thrower", [](Context& c) {
    c.advance(VDur::millis(1));
    throw UsageError("fail fast");
  });
  EXPECT_THROW(eng.run(), UsageError);
}

TEST(Engine, SpawnAndJoinChildren) {
  Engine eng;
  VTime parent_end;
  eng.add_location("parent", [&](Context& c) {
    c.advance(VDur::millis(1));
    std::vector<std::pair<std::string, LocationBody>> kids;
    for (int i = 0; i < 3; ++i) {
      const VDur d = VDur::millis(10 * (i + 1));
      kids.emplace_back("kid", [d](Context& k) { k.advance(d); });
    }
    const auto ids = c.spawn(kids);
    EXPECT_EQ(ids.size(), 3u);
    c.join(ids);
    parent_end = c.now();
  });
  eng.run();
  // Children start at 1ms; slowest runs 30ms.
  EXPECT_EQ(parent_end, VTime::zero() + VDur::millis(31));
  EXPECT_EQ(eng.location_count(), 4u);
}

TEST(Engine, ChildrenInheritParentClock) {
  Engine eng;
  VTime child_start;
  eng.add_location("parent", [&](Context& c) {
    c.advance(VDur::millis(7));
    std::vector<std::pair<std::string, LocationBody>> kids;
    kids.emplace_back("kid",
                      [&](Context& k) { child_start = k.now(); });
    c.join(c.spawn(kids));
  });
  eng.run();
  EXPECT_EQ(child_start, VTime::zero() + VDur::millis(7));
}

TEST(Engine, JoinAlreadyFinishedChildren) {
  Engine eng;
  eng.add_location("parent", [&](Context& c) {
    std::vector<std::pair<std::string, LocationBody>> kids;
    kids.emplace_back("kid", [](Context& k) { k.advance(VDur::millis(2)); });
    const auto ids = c.spawn(kids);
    c.advance(VDur::millis(50));  // child certainly finished by now
    c.join(ids);
    EXPECT_EQ(c.now(), VTime::zero() + VDur::millis(50));
  });
  eng.run();
}

TEST(Engine, NestedSpawn) {
  Engine eng;
  VTime end;
  eng.add_location("root", [&](Context& c) {
    std::vector<std::pair<std::string, LocationBody>> kids;
    kids.emplace_back("mid", [](Context& m) {
      std::vector<std::pair<std::string, LocationBody>> grand;
      grand.emplace_back("leaf", [](Context& g) {
        g.advance(VDur::millis(4));
      });
      m.join(m.spawn(grand));
    });
    c.join(c.spawn(kids));
    end = c.now();
  });
  eng.run();
  EXPECT_EQ(end, VTime::zero() + VDur::millis(4));
  EXPECT_EQ(eng.location_count(), 3u);
}

TEST(Engine, ParentChildMetadata) {
  Engine eng;
  const LocationId root = eng.add_location("root", [](Context& c) {
    std::vector<std::pair<std::string, LocationBody>> kids;
    kids.emplace_back("child", [](Context&) {});
    c.join(c.spawn(kids));
  });
  eng.run();
  EXPECT_EQ(eng.parent_of(root), kNoLocation);
  EXPECT_EQ(eng.parent_of(1), root);
  EXPECT_EQ(eng.name_of(1), "child");
}

TEST(Engine, LocationLimitEnforced) {
  EngineOptions opt;
  opt.max_locations = 2;
  Engine eng(opt);
  eng.add_location("a", [](Context&) {});
  eng.add_location("b", [](Context&) {});
  EXPECT_THROW(eng.add_location("c", [](Context&) {}), UsageError);
}

TEST(Engine, StatsCountYieldsAndBlocks) {
  Engine eng;
  const LocationId sleeper =
      eng.add_location("s", [](Context& c) { c.block("zzz"); });
  eng.add_location("w", [sleeper](Context& c) {
    c.advance(VDur::millis(1));
    c.engine().wake(sleeper, c.now());
  });
  eng.run();
  EXPECT_EQ(eng.stats().spawns, 2u);
  EXPECT_EQ(eng.stats().blocks, 1u);
  EXPECT_EQ(eng.stats().wakes, 1u);
  EXPECT_GE(eng.stats().yields, 1u);
}

TEST(Engine, RngStreamsAreDeterministicPerLocation) {
  std::vector<std::uint64_t> run1, run2;
  for (auto* out : {&run1, &run2}) {
    Engine eng;
    for (int i = 0; i < 2; ++i) {
      eng.add_location("loc", [out](Context& c) {
        out->push_back(c.rng().next_u64());
      });
    }
    eng.run();
  }
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1[0], run1[1]);  // distinct streams per location
}

TEST(Engine, DestructorWithoutRunDoesNotHang) {
  Engine eng;
  eng.add_location("never run", [](Context& c) { c.advance(VDur::millis(1)); });
  // Engine destroyed without run(): the never-started location must not
  // be run or leak a stack.
}

TEST(Engine, ManyLocations) {
  Engine eng;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    eng.add_location("bulk", [i](Context& c) {
      c.advance(VDur::micros(10 * (i % 7 + 1)));
    });
  }
  eng.run();
  EXPECT_EQ(eng.location_count(), static_cast<std::size_t>(n));
}

// --- fiber stack reuse ------------------------------------------------------

// ----------------------------------------------------------- ArrivalGate

TEST(ArrivalGate, StaggeredArrivalsLeaveAtMaxEnterPlusCost) {
  // Members arrive at 6, 0, 9 and 3 ms; all leave at 9 ms + 2 ms.  Only the
  // last arriver (member 2) runs the compute step, and it never blocks:
  // blocks and wakes number members - 1.
  Engine eng;
  ArrivalGate<> gate(4);
  std::vector<LocationId> members;
  std::vector<VTime> left(4);
  std::vector<LocationId> computed_by;
  const std::int64_t delay_ms[] = {6, 0, 9, 3};
  for (int m = 0; m < 4; ++m) {
    members.push_back(eng.add_location(
        std::string("m").append(std::to_string(m)), [&, m](Context& c) {
          c.advance(VDur::millis(delay_ms[m]));
          auto& inst = gate.open(gate.next_seq(static_cast<std::size_t>(m)));
          gate.arrive(inst, c.now());
          gate.release(c, inst, members, "gate test", [&] {
            computed_by.push_back(c.id());
            return VDur::millis(2);
          });
          left[static_cast<std::size_t>(m)] = c.now();
          gate.leave(inst);
        }));
  }
  eng.run();
  for (const VTime t : left) EXPECT_EQ(t, VTime::zero() + VDur::millis(11));
  EXPECT_EQ(computed_by, (std::vector<LocationId>{members[2]}));
  EXPECT_EQ(eng.stats().blocks, 3u);
  EXPECT_EQ(eng.stats().wakes, 3u);
  EXPECT_EQ(gate.open_instances(), 0u);
}

TEST(ArrivalGate, BackToBackInstancesDoNotMix) {
  // Two instances in a row.  Member 2 arrives last at the first; members 0
  // and 1 resume before it at the shared release time (ties go by id), so
  // they open and join the second instance while member 2 is still inside
  // the first.  Each instance sums only its own contributions.
  struct Sum {
    int total = 0;
  };
  Engine eng;
  ArrivalGate<Sum> gate(3);
  std::vector<LocationId> members;
  std::vector<int> totals;
  std::size_t most_open = 0;
  for (int m = 0; m < 3; ++m) {
    members.push_back(eng.add_location(
        std::string("m").append(std::to_string(m)), [&, m](Context& c) {
          c.advance(VDur::millis(m));
          for (int round = 0; round < 2; ++round) {
            auto& inst =
                gate.open(gate.next_seq(static_cast<std::size_t>(m)));
            most_open = std::max(most_open, gate.open_instances());
            inst.total += 10 * round + m;
            gate.arrive(inst, c.now());
            gate.release(c, inst, members, "gate test", [&] {
              totals.push_back(inst.total);
              return VDur::millis(1);
            });
            gate.leave(inst);
          }
        }));
  }
  eng.run();
  EXPECT_EQ(totals, (std::vector<int>{0 + 1 + 2, 10 + 11 + 12}));
  EXPECT_EQ(most_open, 2u);
  EXPECT_EQ(eng.horizon(), VTime::zero() + VDur::millis(4));
  EXPECT_EQ(eng.stats().blocks, 4u);
  EXPECT_EQ(eng.stats().wakes, 4u);
  EXPECT_EQ(gate.open_instances(), 0u);
}

// Frame address of a location body's first frame.  (A local's address
// would move to ASan's heap-allocated fake stack when use-after-return
// detection is on; the frame itself stays on the fiber stack.)
std::uintptr_t first_frame_address() {
  std::uintptr_t addr = 0;
  Engine eng;
  eng.add_location("probe", [&addr](Context& c) {
    addr = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    c.advance(VDur::micros(1));
  });
  eng.run();
  return addr;
}

TEST(StackReuse, BackToBackEnginesShareASlab) {
  const std::uintptr_t first = first_frame_address();
  // A live engine with another stack size sits between the two: it maps
  // its own chunk (which would take the address range a freshly unmapped
  // chunk left behind) and must not evict the chunks kept for 256 KiB.
  EngineOptions small;
  small.fiber_stack_bytes = 64 * 1024;
  Engine other(small);
  other.add_location("other", [](Context& c) { c.advance(VDur::micros(1)); });
  other.run();
  EXPECT_EQ(first_frame_address(), first);
}

// Locations all live at once, each finishing at its own time; returns the
// end times.
std::vector<VTime> staggered_end_times(int n, EngineOptions opt = {}) {
  Engine eng(opt);
  for (int i = 0; i < n; ++i) {
    eng.add_location("loc", [i](Context& c) {
      c.advance(VDur::micros(3 + i % 17));
      c.advance(VDur::micros(i));
    });
  }
  eng.run();
  std::vector<VTime> ends;
  for (int i = 0; i < n; ++i) ends.push_back(eng.end_time_of(i));
  return ends;
}

TEST(StackReuse, EngineAboveTheCacheCapThenASmallOne) {
  for (const int n : {1000, 8}) {
    const std::vector<VTime> ends = staggered_end_times(n);
    ASSERT_EQ(ends.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ends[i], VTime::zero() + VDur::micros(3 + i % 17 + i))
          << "n=" << n << " location " << i;
    }
  }
}

TEST(StackReuse, CachedSlabsAreKeyedBySlabSize) {
  // Two 64 KiB stacks, live together, leave two adjacent 64 KiB slabs in
  // the cache.  Were a 256 KiB engine to adopt them, its two locations'
  // stacks would overlap and overwrite each other's patterns.  `holder`
  // takes whatever the cache held before, so the 64 KiB engine carves
  // its slabs from a fresh chunk.
  Engine holder;
  EngineOptions small;
  small.fiber_stack_bytes = 64 * 1024;
  EXPECT_EQ(staggered_end_times(2, small).size(), 2u);

  Engine eng;
  int intact = 0;
  for (int i = 0; i < 2; ++i) {
    eng.add_location("deep", [i, &intact](Context& c) {
      volatile char buf[200 * 1024];
      for (std::size_t k = 0; k < sizeof buf; k += 512) {
        buf[k] = static_cast<char>(i + 1);
      }
      c.advance(VDur::micros(1 + i));  // the other location runs here
      bool ok = true;
      for (std::size_t k = 0; k < sizeof buf; k += 512) {
        ok = ok && buf[k] == static_cast<char>(i + 1);
      }
      intact += ok;
    });
  }
  eng.run();
  EXPECT_EQ(intact, 2);
  EXPECT_EQ(eng.end_time_of(0), VTime::zero() + VDur::micros(1));
  EXPECT_EQ(eng.end_time_of(1), VTime::zero() + VDur::micros(2));
}

// An engine whose live location count rises and falls: a parent spawns a
// wave of children per round and joins them.
std::vector<VTime> waves(int seed) {
  Engine eng;
  eng.add_location("parent", [seed](Context& c) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::pair<std::string, LocationBody>> kids;
      for (int k = 0; k < 20 + 30 * ((seed + round) % 3); ++k) {
        kids.emplace_back("kid", [k, seed](Context& cc) {
          cc.advance(VDur::micros(1 + (k * 7 + seed) % 13));
        });
      }
      c.join(c.spawn(kids));
    }
  });
  eng.run();
  std::vector<VTime> ends;
  for (std::size_t i = 0; i < eng.location_count(); ++i) {
    ends.push_back(eng.end_time_of(static_cast<LocationId>(i)));
  }
  return ends;
}

TEST(StackReuse, ThreadsWithTheirOwnCachesMatchASerialRun) {
  constexpr int kThreads = 4;
  constexpr int kEngines = 50;
  std::vector<std::vector<VTime>> serial;
  for (int e = 0; e < kEngines; ++e) serial.push_back(waves(e));
  std::vector<std::vector<std::vector<VTime>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &got] {
      for (int e = 0; e < kEngines; ++e) got[t].push_back(waves(e));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], serial) << "thread " << t;
}

TEST(StackReuse, StackBelowTheMinimumThrows) {
  EngineOptions opt;
  opt.fiber_stack_bytes = 4096;
  EXPECT_THROW(Engine{opt}, UsageError);
  opt.fiber_stack_bytes = 16 * 1024;
  EXPECT_EQ(staggered_end_times(3, opt).size(), 3u);
}

}  // namespace
}  // namespace ats::simt
