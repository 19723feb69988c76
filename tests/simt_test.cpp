// Unit tests for the simt discrete-event engine: scheduling order,
// determinism, block/wake time propagation, fork/join, deadlock detection,
// error propagation.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "simt/engine.hpp"

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

}  // namespace
}  // namespace ats::simt
