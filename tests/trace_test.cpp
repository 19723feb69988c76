// Unit tests for the trace model: region registry, event recording, merged
// ordering, metadata, serialisation round-trip, enable/disable.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace ats::trace {
namespace {

LocationInfo proc_info(LocId id, const std::string& name) {
  LocationInfo li;
  li.id = id;
  li.kind = LocKind::kProcess;
  li.rank = id;
  li.name = name;
  return li;
}

TEST(RegionRegistry, InternIsIdempotent) {
  RegionRegistry reg;
  const RegionId a = reg.intern("MPI_Send", RegionKind::kMpiP2P);
  const RegionId b = reg.intern("MPI_Send", RegionKind::kMpiP2P);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.info(a).name, "MPI_Send");
  EXPECT_EQ(reg.info(a).kind, RegionKind::kMpiP2P);
}

TEST(RegionRegistry, KindConflictThrows) {
  RegionRegistry reg;
  reg.intern("foo", RegionKind::kUser);
  EXPECT_THROW(reg.intern("foo", RegionKind::kWork), TraceError);
}

TEST(RegionRegistry, FindMissingReturnsNone) {
  RegionRegistry reg;
  EXPECT_EQ(reg.find("nope"), kNone);
  reg.intern("yes", RegionKind::kUser);
  EXPECT_NE(reg.find("yes"), kNone);
}

TEST(RegionRegistry, BadIdThrows) {
  RegionRegistry reg;
  EXPECT_THROW(reg.info(0), TraceError);
  EXPECT_THROW(reg.info(-1), TraceError);
}

TEST(Trace, LocationsMustBeDense) {
  Trace t;
  t.add_location(proc_info(0, "rank 0"));
  LocationInfo bad = proc_info(2, "rank 2");
  EXPECT_THROW(t.add_location(std::move(bad)), TraceError);
}

TEST(Trace, EventForUnknownLocationThrows) {
  Trace t;
  EXPECT_THROW(t.enter(0, VTime::zero(), 0), TraceError);
}

TEST(Trace, RecordsAndCounts) {
  Trace t;
  t.add_location(proc_info(0, "rank 0"));
  t.add_location(proc_info(1, "rank 1"));
  const RegionId r = t.regions().intern("work", RegionKind::kWork);
  t.enter(0, VTime(100), r);
  t.exit(0, VTime(200), r);
  t.send(0, VTime(150), 1, 7, 0, 64);
  t.recv(1, VTime(180), 0, 7, 0, 64);
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_EQ(t.events_of(0).size(), 3u);
  EXPECT_EQ(t.events_of(1).size(), 1u);
}

TEST(Trace, MergedIsTimeOrdered) {
  Trace t;
  t.add_location(proc_info(0, "a"));
  t.add_location(proc_info(1, "b"));
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(1, VTime(50), r);
  t.enter(0, VTime(100), r);
  t.exit(1, VTime(150), r);
  t.exit(0, VTime(200), r);
  const auto m = testutil::merged(t);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m[0]->loc, 1);
  EXPECT_EQ(m[1]->loc, 0);
  for (std::size_t i = 1; i < m.size(); ++i) {
    EXPECT_LE(m[i - 1]->t, m[i]->t);
  }
}

TEST(Trace, MergedTieBreaksByLocation) {
  Trace t;
  t.add_location(proc_info(0, "a"));
  t.add_location(proc_info(1, "b"));
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(1, VTime(100), r);
  t.enter(0, VTime(100), r);
  const auto m = testutil::merged(t);
  EXPECT_EQ(m[0]->loc, 0);
  EXPECT_EQ(m[1]->loc, 1);
}

/// The seed's merged(): collect + stable_sort by (t, loc).  The radix merge
/// must reproduce this order bit-for-bit, including all tie-break cases.
std::vector<const Event*> reference_merged(const Trace& t) {
  std::vector<const Event*> out;
  for (std::size_t l = 0; l < t.location_count(); ++l) {
    for (const auto& e : t.events_of(static_cast<LocId>(l))) {
      out.push_back(&e);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event* a, const Event* b) {
                     if (a->t != b->t) return a->t < b->t;
                     return a->loc < b->loc;
                   });
  return out;
}

TEST(Trace, MergedPinsStableSortSemantics) {
  // Equal timestamps within one location keep recording order; equal
  // timestamps across locations order by location id.
  Trace t;
  t.add_location(proc_info(0, "a"));
  t.add_location(proc_info(1, "b"));
  t.add_location(proc_info(2, "c"));
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  const RegionId s = t.regions().intern("y", RegionKind::kWork);
  // loc 1: three events at the same timestamp — recording order must hold.
  t.enter(1, VTime(100), r);
  t.enter(1, VTime(100), s);
  t.exit(1, VTime(100), s);
  // loc 0 and 2 collide with loc 1's timestamp — loc order must hold.
  t.enter(2, VTime(100), r);
  t.enter(0, VTime(100), r);
  t.enter(0, VTime(50), r);  // out-of-order recording on loc 0
  t.enter(2, VTime(150), r);

  const auto ref = reference_merged(t);
  const auto got = testutil::merged(t);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "divergence at merged index " << i;
  }
  // Spot-check the pinned order directly.
  EXPECT_EQ(got[0]->t, VTime(50));
  EXPECT_EQ(got[0]->loc, 0);
  EXPECT_EQ(got[1]->loc, 0);  // t=100 ties: loc 0 first
  EXPECT_EQ(got[2]->loc, 1);
  EXPECT_EQ(got[2]->type, EventType::kEnter);
  EXPECT_EQ(got[2]->region, r);  // loc 1 recording order at equal t
  EXPECT_EQ(got[3]->region, s);
  EXPECT_EQ(got[4]->type, EventType::kExit);
  EXPECT_EQ(got[5]->loc, 2);
  EXPECT_EQ(got[6]->t, VTime(150));
}

TEST(Trace, MergedMatchesReferenceOnRandomTraces) {
  ats::Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    Trace t;
    const int nlocs = 1 + static_cast<int>(rng.next_below(6));
    for (int l = 0; l < nlocs; ++l) {
      t.add_location(proc_info(l, "loc" + std::to_string(l)));
    }
    const RegionId r = t.regions().intern("x", RegionKind::kUser);
    const int events = static_cast<int>(rng.next_below(200));
    for (int i = 0; i < events; ++i) {
      // Coarse timestamps force plenty of ties; every few rounds record
      // out of order to exercise the per-location pre-sort path.
      const auto loc = static_cast<LocId>(rng.next_below(
          static_cast<std::uint64_t>(nlocs)));
      const std::int64_t ts =
          round % 3 == 0
              ? static_cast<std::int64_t>(rng.next_below(16))
              : static_cast<std::int64_t>(i) + static_cast<std::int64_t>(
                                                   rng.next_below(3));
      t.enter(loc, VTime(ts), r);
    }
    const auto ref = reference_merged(t);
    const auto got = testutil::merged(t);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i])
          << "round " << round << " diverged at index " << i;
    }
  }
}

/// Checks the merge order against reference_merged().
void expect_reference_order(const Trace& t) {
  const auto ref = reference_merged(t);
  const auto got = testutil::merged(t);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i], ref[i]) << "diverged at merged index " << i;
  }
}

Trace trace_with_locations(int nlocs) {
  Trace t;
  for (int l = 0; l < nlocs; ++l) {
    t.add_location(proc_info(l, "loc" + std::to_string(l)));
  }
  return t;
}

TEST(TraceMergeOrder, NegativeTimestamps) {
  Trace t = trace_with_locations(3);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(0, VTime(-5), r);
  t.enter(1, VTime(-1000000007), r);
  t.enter(2, VTime(-5), r);
  t.enter(1, VTime(0), r);
  t.enter(0, VTime(3), r);
  t.enter(2, VTime(-4), r);
  expect_reference_order(t);
  EXPECT_EQ(testutil::merged(t).front()->t, VTime(-1000000007));
}

TEST(TraceMergeOrder, FullInt64Range) {
  // The time range spans all 64 bits: a signed t_max - t_min overflows.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Trace t = trace_with_locations(2);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(1, VTime(hi), r);
  t.enter(0, VTime(hi), r);
  t.enter(0, VTime(lo), r);
  t.enter(1, VTime(0), r);
  t.enter(1, VTime(lo), r);
  t.enter(0, VTime(-1), r);
  expect_reference_order(t);
  const auto m = testutil::merged(t);
  EXPECT_EQ(m.front()->t, VTime(lo));
  EXPECT_EQ(m.back()->t, VTime(hi));
}

TEST(TraceMergeOrder, EmptyLocationsBetweenNonEmptyOnes) {
  Trace t = trace_with_locations(7);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  for (int i = 0; i < 4; ++i) {
    t.enter(1, VTime(i * 10), r);
    t.enter(4, VTime(i * 10 + 5), r);
    t.enter(5, VTime(i * 10), r);
  }
  expect_reference_order(t);
}

TEST(TraceMergeOrder, SingleLocation) {
  Trace t = trace_with_locations(1);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  const RegionId s = t.regions().intern("y", RegionKind::kWork);
  t.enter(0, VTime(10), r);
  t.enter(0, VTime(10), s);
  t.exit(0, VTime(20), s);
  t.exit(0, VTime(30), r);
  expect_reference_order(t);
}

TEST(TraceMergeOrder, OutOfOrderLocationWithTies) {
  Trace t = trace_with_locations(3);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  const RegionId s = t.regions().intern("y", RegionKind::kWork);
  // loc 1 goes back in time twice and repeats timestamps on both sides.
  t.enter(1, VTime(30), r);
  t.enter(1, VTime(10), s);
  t.exit(1, VTime(30), s);
  t.enter(1, VTime(10), r);
  t.exit(1, VTime(20), r);
  t.enter(0, VTime(10), r);
  t.enter(0, VTime(30), r);
  t.enter(2, VTime(20), s);
  t.enter(2, VTime(10), r);
  EXPECT_EQ(t.unsorted_location_count(), 2u);
  expect_reference_order(t);
}

TEST(TraceMergeOrder, ManyLocationLockstep) {
  // The simulator's many-rank shape: every location steps through the
  // same 15 timestamps, so nearly every event ties with all locations.
  Trace t = trace_with_locations(1024);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  const RegionId s = t.regions().intern("y", RegionKind::kWork);
  for (LocId l = 0; l < 1024; ++l) {
    for (int step = 0; step < 15; ++step) {
      t.enter(l, VTime(step * 1000), r);
      if (step % 4 == 1) t.enter(l, VTime(step * 1000), s);
    }
  }
  expect_reference_order(t);
}

TEST(TraceMergeOrder, SpilledTraceThrows) {
  const char* spill_path = "trace_test.merge.spill";
  Trace t = trace_with_locations(2);
  t.enable_spill(spill_path, 256);
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  for (int i = 0; i < 100; ++i) t.enter(i % 2, VTime(i), r);
  ASSERT_GT(t.spilled_bytes(), 0u);
  EXPECT_THROW(t.for_each_merged([](const Event&) {}), TraceError);
}

TEST(Trace, BeginEndTimes) {
  Trace t;
  t.add_location(proc_info(0, "a"));
  EXPECT_EQ(t.begin_time(), VTime::zero());
  EXPECT_EQ(t.end_time(), VTime::zero());
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(0, VTime(42), r);
  t.exit(0, VTime(99), r);
  EXPECT_EQ(t.begin_time(), VTime(42));
  EXPECT_EQ(t.end_time(), VTime(99));
}

TEST(Trace, DisabledRecordsNothingButKeepsMetadata) {
  Trace t;
  t.set_enabled(false);
  t.add_location(proc_info(0, "a"));
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  t.enter(0, VTime(1), r);
  t.send(0, VTime(2), 0, 0, 0, 8);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.location_count(), 1u);
  EXPECT_EQ(t.regions().size(), 1u);
}

TEST(Trace, CommMetadata) {
  Trace t;
  t.add_location(proc_info(0, "a"));
  t.add_location(proc_info(1, "b"));
  const CommId c = t.add_comm(CommKind::kMpiComm, {0, 1}, "MPI_COMM_WORLD");
  EXPECT_EQ(t.comm(c).members.size(), 2u);
  EXPECT_EQ(t.comm(c).name, "MPI_COMM_WORLD");
  EXPECT_THROW(t.comm(99), TraceError);
}

TEST(Trace, CollOpClassification) {
  EXPECT_TRUE(is_all_to_all(CollOp::kBarrier));
  EXPECT_TRUE(is_all_to_all(CollOp::kAlltoall));
  EXPECT_TRUE(is_all_to_all(CollOp::kOmpIBarrier));
  EXPECT_TRUE(is_root_source(CollOp::kBcast));
  EXPECT_TRUE(is_root_source(CollOp::kScatterv));
  EXPECT_TRUE(is_root_sink(CollOp::kReduce));
  EXPECT_TRUE(is_root_sink(CollOp::kGatherv));
  EXPECT_FALSE(is_root_sink(CollOp::kBcast));
  EXPECT_FALSE(is_root_source(CollOp::kReduce));
  EXPECT_FALSE(is_all_to_all(CollOp::kGather));
}

TEST(Trace, EnumStringsRoundTrip) {
  for (int k = 0; k <= static_cast<int>(RegionKind::kIdle); ++k) {
    const auto kind = static_cast<RegionKind>(k);
    EXPECT_EQ(region_kind_from_string(to_string(kind)), kind);
  }
  for (int k = 0; k <= static_cast<int>(CollOp::kOmpIBarrier); ++k) {
    const auto op = static_cast<CollOp>(k);
    EXPECT_EQ(coll_op_from_string(to_string(op)), op);
  }
  EXPECT_THROW(region_kind_from_string("bogus"), TraceError);
  EXPECT_THROW(coll_op_from_string("bogus"), TraceError);
}

Trace make_rich_trace() {
  Trace t;
  t.add_location(proc_info(0, "rank 0"));
  t.add_location(proc_info(1, "rank 1"));
  LocationInfo thr;
  thr.id = 2;
  thr.parent = 0;
  thr.kind = LocKind::kThread;
  thr.rank = 0;
  thr.thread = 1;
  thr.name = "rank 0 thread 1";
  t.add_location(std::move(thr));
  const CommId world = t.add_comm(CommKind::kMpiComm, {0, 1}, "world");
  const CommId team = t.add_comm(CommKind::kOmpTeam, {0, 2}, "team one");
  const RegionId work = t.regions().intern("do_work", RegionKind::kWork);
  const RegionId send = t.regions().intern("MPI_Send", RegionKind::kMpiP2P);
  t.enter(0, VTime(10), work);
  t.exit(0, VTime(20), work);
  t.enter(0, VTime(20), send);
  t.send(0, VTime(21), 1, 5, world, 128);
  t.exit(0, VTime(22), send);
  t.recv(1, VTime(30), 0, 5, world, 128);
  t.coll_end(0, VTime(40), VTime(35), world, 0, CollOp::kBarrier, kNone, 0,
             0);
  t.coll_end(1, VTime(40), VTime(38), world, 0, CollOp::kBarrier, kNone, 0,
             0);
  t.lock_acquire(2, VTime(50), 3);
  t.lock_release(2, VTime(60), 3);
  (void)team;
  return t;
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const Trace t = make_rich_trace();
  std::stringstream ss;
  t.save(ss);
  const Trace u = Trace::load(ss);

  EXPECT_EQ(u.location_count(), t.location_count());
  EXPECT_EQ(u.comm_count(), t.comm_count());
  EXPECT_EQ(u.regions().size(), t.regions().size());
  EXPECT_EQ(u.event_count(), t.event_count());
  EXPECT_EQ(u.location(2).parent, 0);
  EXPECT_EQ(u.location(2).kind, LocKind::kThread);
  EXPECT_EQ(u.comm(1).kind, CommKind::kOmpTeam);
  EXPECT_EQ(u.comm(1).name, "team one");

  const auto a = testutil::merged(t);
  const auto b = testutil::merged(u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->t, b[i]->t);
    EXPECT_EQ(a[i]->loc, b[i]->loc);
    EXPECT_EQ(a[i]->type, b[i]->type);
    EXPECT_EQ(a[i]->peer, b[i]->peer);
    EXPECT_EQ(a[i]->tag, b[i]->tag);
    EXPECT_EQ(a[i]->comm, b[i]->comm);
    EXPECT_EQ(a[i]->bytes, b[i]->bytes);
  }
}

TEST(TraceIo, SecondRoundTripIsIdentical) {
  const Trace t = make_rich_trace();
  std::stringstream s1, s2;
  t.save(s1);
  const std::string first = s1.str();
  Trace::load(s1).save(s2);
  EXPECT_EQ(first, s2.str());
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(Trace::load(empty), TraceError);
  std::stringstream bad("NOT-A-TRACE 9\n");
  EXPECT_THROW(Trace::load(bad), TraceError);
  std::stringstream badrec("ATS-TRACE 1\nfrobnicate 1 2 3\n");
  EXPECT_THROW(Trace::load(badrec), TraceError);
}

TEST(TraceIo, FuzzedInputNeverCrashesOnlyThrows) {
  // Mutate a valid trace dump in random places: the parser must either
  // succeed (benign mutation) or throw TraceError — never crash or hang.
  std::stringstream base;
  make_rich_trace().save(base);
  const std::string good = base.str();
  ats::Rng rng(20260705);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = good;
    const std::size_t pos =
        static_cast<std::size_t>(rng.next_below(mutated.size()));
    switch (rng.next_below(3)) {
      case 0:  // flip a character
        mutated[pos] = static_cast<char>('!' + rng.next_below(90));
        break;
      case 1:  // delete a chunk
        mutated.erase(pos, rng.next_below(20) + 1);
        break;
      default:  // insert junk
        mutated.insert(pos, "zz9");
        break;
    }
    std::stringstream ss(mutated);
    try {
      (void)Trace::load(ss);
    } catch (const ats::Error&) {
      // acceptable
    } catch (const std::exception&) {
      // stoi/stream failures wrapped by the standard library: acceptable
    }
  }
  SUCCEED();
}

TEST(TraceIo, NamesWithSpacesSurvive) {
  Trace t;
  t.add_location(proc_info(0, "my rank zero with spaces"));
  t.regions().intern("omp critical(update phase)", RegionKind::kOmpSync);
  std::stringstream ss;
  t.save(ss);
  const Trace u = Trace::load(ss);
  EXPECT_EQ(u.location(0).name, "my rank zero with spaces");
  EXPECT_NE(u.regions().find("omp critical(update phase)"), kNone);
}

}  // namespace
}  // namespace ats::trace
