// Supervision tests for the simt engine: virtual-time / yield / wall-clock
// budgets raising HangError, golden deadlock and hang dumps, engine
// destruction safety around failed or never-started runs, and poisoned
// shutdown unwinding parked fiber stacks.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/error.hpp"
#include "simt/engine.hpp"

namespace ats::simt {
namespace {

LocationBody spin_forever(VDur step) {
  return [step](Context& c) {
    for (;;) c.advance(step);
  };
}

TEST(Supervision, VirtualTimeBudgetRaisesHang) {
  EngineOptions opt;
  opt.virtual_time_limit = VDur::millis(10);
  Engine eng(opt);
  eng.add_location("spinner", spin_forever(VDur::millis(1)));
  try {
    eng.run();
    FAIL() << "expected HangError";
  } catch (const HangError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("virtual-time budget (10.00 ms) exhausted"),
              std::string::npos)
        << msg;
  }
}

TEST(Supervision, YieldBudgetRaisesHangOnLivelock) {
  EngineOptions opt;
  opt.yield_limit = 1000;
  Engine eng(opt);
  eng.add_location("poller", [](Context& c) {
    for (;;) c.yield();  // virtual time never advances
  });
  try {
    eng.run();
    FAIL() << "expected HangError";
  } catch (const HangError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("yield budget (1000 yields) exhausted"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("livelock"), std::string::npos) << msg;
  }
}

TEST(Supervision, LoneYielderSpendsTheWholeYieldBudget) {
  // A lone location is always first, so none of its yields changes the
  // order; the budget must still count every one of them and the dump
  // must stay byte for byte what the scheduler writes.
  EngineOptions opt;
  opt.yield_limit = 1000;
  Engine eng(opt);
  eng.add_location("poller", [](Context& c) {
    for (;;) c.yield();
  });
  try {
    eng.run();
    FAIL() << "expected HangError";
  } catch (const HangError& e) {
    EXPECT_STREQ(e.what(),
                 "simulated hang: yield budget (1000 yields) exhausted "
                 "without completing (livelock?)\n"
                 "  [0] poller: runnable at 0 ns\n"
                 "  resources: locations=1 live=1 peak=1\n");
  }
  EXPECT_EQ(eng.stats().yields, 1000u);
}

TEST(Supervision, LoneYielderWithResumeHookTripsWallClock) {
  // Only the wall clock can stop this run, and the hook runs once at the
  // start and once after every yield but the last, which never resumes.
  EngineOptions opt;
  opt.wall_clock_limit = std::chrono::milliseconds(20);
  Engine eng(opt);
  std::uint64_t hook_calls = 0;
  const LocationId id = eng.add_location("poller", [](Context& c) {
    for (;;) c.yield();
  });
  eng.set_resume_hook(id, [&](Context&) { ++hook_calls; });
  EXPECT_THROW(eng.run(), HangError);
  EXPECT_GT(eng.stats().yields, 0u);
  EXPECT_EQ(hook_calls, eng.stats().yields);
}

TEST(Supervision, WallClockBudgetRaisesHang) {
  EngineOptions opt;
  opt.wall_clock_limit = std::chrono::milliseconds(20);
  Engine eng(opt);
  eng.add_location("poller", [](Context& c) {
    for (;;) c.yield();
  });
  try {
    eng.run();
    FAIL() << "expected HangError";
  } catch (const HangError& e) {
    EXPECT_NE(std::string(e.what()).find("wall-clock budget (20 ms) exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(Supervision, BudgetsDoNotAffectCompletingRuns) {
  EngineOptions opt;
  opt.virtual_time_limit = VDur::seconds(1.0);
  opt.yield_limit = 1'000'000;
  opt.wall_clock_limit = std::chrono::milliseconds(60'000);
  Engine eng(opt);
  const LocationId id = eng.add_location("worker", [](Context& c) {
    for (int i = 0; i < 100; ++i) c.advance(VDur::micros(10));
  });
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(eng.end_time_of(id), VTime::zero() + VDur::millis(1));
}

TEST(Supervision, HangDumpListsEveryLocationState) {
  // Golden-message test: the HangError payload carries the same
  // per-location dump as a deadlock, including names, states, clocks and
  // block reasons.
  EngineOptions opt;
  opt.virtual_time_limit = VDur::millis(5);
  Engine eng(opt);
  eng.add_location("spinner", spin_forever(VDur::millis(1)));
  eng.add_location("waiter", [](Context& c) { c.block("waiting for godot"); });
  try {
    eng.run();
    FAIL() << "expected HangError";
  } catch (const HangError& e) {
    EXPECT_STREQ(e.what(),
                 "simulated hang: virtual-time budget (5.00 ms) exhausted\n"
                 "  [0] spinner: runnable at 5.00 ms\n"
                 "  [1] waiter: blocked at 0 ns (waiting for godot)\n"
                 "  resources: locations=2 live=2 peak=2\n");
  }
}

TEST(Supervision, DeadlockDumpGolden) {
  Engine eng;
  eng.add_location("ping", [](Context& c) {
    c.advance(VDur::millis(1));
    c.block("recv from pong");
  });
  eng.add_location("pong", [](Context& c) {
    c.advance(VDur::millis(2));
    c.block("recv from ping");
  });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(),
                 "simulated deadlock: all unfinished locations are blocked\n"
                 "  [0] ping: blocked at 1.00 ms (recv from pong)\n"
                 "  [1] pong: blocked at 2.00 ms (recv from ping)\n"
                 "  resources: locations=2 live=2 peak=2\n");
  }
}

TEST(Supervision, ResourceProbeAppearsInDump) {
  // With a probe installed the resources line carries the trace payload
  // split and the derived bytes/location figure.
  Engine eng;
  eng.set_resource_probe([] {
    EngineResources r;
    r.trace_bytes = 1440;
    r.spilled_bytes = 720;
    return r;
  });
  eng.add_location("a", [](Context& c) { c.block("recv"); });
  eng.add_location("b", [](Context& c) { c.block("recv"); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(
        std::string(e.what()).find(
            "  resources: locations=2 live=2 peak=2 trace_bytes=1440 "
            "spilled_bytes=720 bytes/loc=1080\n"),
        std::string::npos)
        << e.what();
  }
}

TEST(Supervision, LiveLocationCountersTrackBodies) {
  // live_locations is the dump's live-stack proxy: it must return to zero
  // on completion while the peak remembers the concurrency high-water.
  Engine eng;
  eng.add_location("solo", [](Context& c) { c.advance(VDur::millis(1)); });
  eng.run();
  EXPECT_EQ(eng.stats().live_locations, 0u);
  EXPECT_EQ(eng.stats().peak_live_locations, 1u);
}

TEST(Supervision, PeakLiveCountsOverlappingLocations) {
  // Two locations alternating advances overlap for the whole run.
  Engine eng;
  for (int i = 0; i < 2; ++i) {
    eng.add_location("worker " + std::to_string(i), [](Context& c) {
      for (int k = 0; k < 3; ++k) c.advance(VDur::micros(10));
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().live_locations, 0u);
  EXPECT_EQ(eng.stats().peak_live_locations, 2u);
}

TEST(Supervision, ResumeHookRunsBeforeBodyAndAfterYields) {
  Engine eng;
  int hook_calls = 0;
  const LocationId id = eng.add_location("hooked", [](Context& c) {
    c.advance(VDur::millis(1));  // yield #1
    c.advance(VDur::millis(1));  // yield #2
  });
  eng.set_resume_hook(id, [&](Context&) { ++hook_calls; });
  eng.run();
  // Once at startup + once after each of the two yields.
  EXPECT_EQ(hook_calls, 3);
}

TEST(Supervision, ResumeHookDoesNotReenterItself) {
  Engine eng;
  int hook_calls = 0;
  const LocationId id = eng.add_location("hooked", [](Context& c) {
    c.advance(VDur::millis(1));
  });
  // A hook that advances would resume itself recursively without the
  // re-entrancy guard.
  eng.set_resume_hook(id, [&](Context& c) {
    ++hook_calls;
    c.advance(VDur::micros(10));
  });
  eng.run();
  EXPECT_EQ(hook_calls, 2);  // startup + after the body's single yield
}

TEST(Supervision, SetResumeHookAfterRunThrows) {
  Engine eng;
  const LocationId id = eng.add_location("solo", [](Context&) {});
  eng.run();
  EXPECT_THROW(eng.set_resume_hook(id, [](Context&) {}), UsageError);
}

// --- destructor safety ----------------------------------------------------

TEST(Supervision, EngineDestructsCleanlyWithoutRun) {
  // Locations added but run() never called: the destructor must not touch
  // unstarted locations.
  for (int i = 0; i < 4; ++i) {
    Engine eng;
    eng.add_location("never runs", spin_forever(VDur::millis(1)));
    eng.add_location("never runs either", [](Context& c) { c.block("x"); });
  }
}

TEST(Supervision, EngineDestructsCleanlyAfterDeadlock) {
  // All location stacks must already be unwound when DeadlockError leaves
  // run(), so dropping the engine mid-failure is safe.
  for (int i = 0; i < 4; ++i) {
    Engine eng;
    eng.add_location("a", [](Context& c) { c.block("recv"); });
    eng.add_location("b", [](Context& c) { c.block("recv"); });
    EXPECT_THROW(eng.run(), DeadlockError);
  }
}

TEST(Supervision, EngineDestructsCleanlyAfterHang) {
  for (int i = 0; i < 4; ++i) {
    EngineOptions opt;
    opt.yield_limit = 100;
    Engine eng(opt);
    eng.add_location("poller", [](Context& c) {
      for (;;) c.yield();
    });
    eng.add_location("blocked", [](Context& c) { c.block("forever"); });
    EXPECT_THROW(eng.run(), HangError);
  }
}

TEST(Supervision, EngineDestructsCleanlyAfterBodyError) {
  for (int i = 0; i < 4; ++i) {
    Engine eng;
    eng.add_location("thrower", [](Context& c) {
      c.advance(VDur::millis(1));
      throw MpiError("synthetic failure");
    });
    eng.add_location("bystander", [](Context& c) { c.block("recv"); });
    EXPECT_THROW(eng.run(), MpiError);
  }
}

// --- poisoned shutdown: parked stacks unwind --------------------------------

// Counts live objects on parked location stacks.
struct Sentinel {
  explicit Sentinel(int* counter) : n(counter) { ++*n; }
  ~Sentinel() { --*n; }
  int* n;
};

TEST(Shutdown, ParkedStacksUnwindBeforeDeadlockErrorLeavesRun) {
  int alive = 0;
  Engine eng;
  for (int i = 0; i < 3; ++i) {
    eng.add_location("parked " + std::to_string(i), [&](Context& c) {
      Sentinel s(&alive);
      c.block("recv");  // never woken
    });
  }
  EXPECT_THROW(eng.run(), DeadlockError);
  // run() guarantees all location stacks are unwound on every exit path,
  // so the destructors of parked frames have already run here.
  EXPECT_EQ(alive, 0);
}

TEST(Shutdown, ParkedStacksUnwindAfterHang) {
  int alive = 0;
  EngineOptions o;
  o.yield_limit = 100;
  Engine eng(o);
  eng.add_location("poller", [](Context& c) {
    for (;;) c.yield();
  });
  eng.add_location("parked", [&](Context& c) {
    Sentinel s(&alive);
    c.block("recv");
  });
  EXPECT_THROW(eng.run(), HangError);
  EXPECT_EQ(alive, 0);
}

TEST(Shutdown, NeverRunEngineDestructsWithUnstartedLocations) {
  // Without run() no body ever starts, so there is nothing to unwind and
  // no fiber or stack was ever created.
  int alive = 0;
  for (int i = 0; i < 4; ++i) {
    Engine eng;
    eng.add_location("never runs", [&](Context& c) {
      Sentinel s(&alive);
      c.block("x");
    });
  }
  EXPECT_EQ(alive, 0);
}

TEST(Shutdown, BodySwallowingUnwindSignalStillShutsDown) {
  // A body that absorbs the shutdown unwind (catch (...)) and returns
  // normally must not wedge the teardown.
  int swallowed = 0;
  Engine eng;
  eng.add_location("swallower", [&](Context& c) {
    try {
      c.block("recv");
    } catch (...) {
      ++swallowed;
    }
  });
  eng.add_location("other", [](Context& c) { c.block("recv"); });
  EXPECT_THROW(eng.run(), DeadlockError);
  EXPECT_EQ(swallowed, 1);
}

TEST(Shutdown, ContextCallsKeepThrowingOncePoisoned) {
  // After the first unwind signal is swallowed, every further Context call
  // throws again, so a retry loop cannot keep a poisoned location alive.
  int attempts = 0;
  Engine eng;
  eng.add_location("stubborn", [&](Context& c) {
    for (;;) {
      try {
        c.block("recv");
      } catch (...) {
        if (++attempts >= 3) throw;
      }
    }
  });
  eng.add_location("other", [](Context& c) { c.block("recv"); });
  EXPECT_THROW(eng.run(), DeadlockError);
  EXPECT_EQ(attempts, 3);
}

// --- stack reuse after a shutdown unwind ------------------------------------

// Recurses `depth` frames, each holding a scoped, address-taken buffer, and
// at the bottom either parks for good or writes one more buffer and
// returns.  The sum keeps the buffers observable so none is optimised out.
int descend(Context& c, int depth, bool park) {
  int sum = 0;
  {
    volatile char buf[96];
    for (std::size_t i = 0; i < sizeof buf; ++i) {
      buf[i] = static_cast<char>(depth + static_cast<int>(i));
    }
    if (depth > 0) {
      sum = descend(c, depth - 1, park);
    } else if (park) {
      c.block("recv");  // never woken: unwound by the shutdown
    } else {
      c.advance(VDur::micros(1));
    }
    for (std::size_t i = 0; i < sizeof buf; ++i) sum += buf[i];
  }
  return sum;
}

TEST(Engine, RecycledSlabAfterShutdownUnwindIsClean) {
  // A finished engine hands its stack chunks to the thread's cache, and
  // the next engine on the thread runs its locations on the very slabs
  // the previous one released.  A shutdown unwind must leave those
  // stacks as clean as a normal return does: under AddressSanitizer,
  // frames thrown through on an unannotated fiber switch keep their
  // poisoned shadow, and the next engine's locations trip over it.
  for (int round = 0; round < 3; ++round) {
    {
      Engine poisoned;
      for (int i = 0; i < 4; ++i) {
        poisoned.add_location("parked", [i](Context& c) {
          descend(c, 8 + 3 * i, true);
        });
      }
      EXPECT_THROW(poisoned.run(), DeadlockError);
    }
    Engine reuser;
    int total = 0;
    for (int i = 0; i < 4; ++i) {
      reuser.add_location("reuser", [i, &total](Context& c) {
        for (int depth = 0; depth < 24; ++depth) {
          total += descend(c, depth + i, false) != 0;
        }
      });
    }
    reuser.run();
    EXPECT_EQ(total, 4 * 24);
  }
}

}  // namespace
}  // namespace ats::simt
