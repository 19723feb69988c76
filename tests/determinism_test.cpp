// Run-to-run determinism: the same simulation run twice in one process must
// be observationally identical — bit-identical traces, EngineStats, end
// times, fault reports and deadlock/hang/livelock dumps.  A second run
// reuses whatever the first left behind in the process (allocator state,
// function-local statics, recycled stack addresses), so any divergence is
// hidden state leaking into the schedule, not a tolerable difference.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "gen/registry.hpp"
#include "mpisim/world.hpp"

namespace {

using namespace ats;

std::string trace_bytes(const trace::Trace& tr) {
  std::ostringstream os;
  tr.save(os);
  return os.str();
}

// --- registry slice: every completing property function ------------------

class RegistryDeterminismTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(RegistryDeterminismTest, PositiveConfigTraceIsBitIdentical) {
  const auto& def = gen::Registry::instance().find(GetParam());
  gen::RunConfig cfg;
  cfg.nprocs = def.min_procs > 4 ? def.min_procs : 4;
  const std::string first =
      trace_bytes(gen::run_single_property(def, def.positive, cfg));
  const std::string second =
      trace_bytes(gen::run_single_property(def, def.positive, cfg));
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    AllProperties, RegistryDeterminismTest,
    ::testing::ValuesIn(gen::Registry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      return pinfo.param;
    });

// --- stats, makespan and fault injection ---------------------------------

mpi::MpiRunResult stencil_run(bool with_faults) {
  mpi::MpiRunOptions opt;
  opt.nprocs = 4;
  if (with_faults) {
    opt.faults.stall(2, VTime::zero() + VDur::millis(1), VDur::millis(3));
  }
  return mpi::run_mpi(opt, [](mpi::Proc& p) {
    const int np = p.comm_world().size();
    const int rank = p.world_rank();
    int v = rank;
    for (int step = 0; step < 8; ++step) {
      p.sim().advance(VDur::micros(100 * (rank + 1)));
      const int right = (rank + 1) % np;
      const int left = (rank + np - 1) % np;
      if (rank % 2 == 0) {
        p.send(&v, 1, mpi::Datatype::kInt32, right, 0, p.comm_world());
        p.recv(&v, 1, mpi::Datatype::kInt32, left, 0, p.comm_world());
      } else {
        p.recv(&v, 1, mpi::Datatype::kInt32, left, 0, p.comm_world());
        p.send(&v, 1, mpi::Datatype::kInt32, right, 0, p.comm_world());
      }
      p.barrier(p.comm_world());
    }
  });
}

TEST(Determinism, StencilStatsAndMakespanMatch) {
  const auto first = stencil_run(false);
  const auto second = stencil_run(false);
  EXPECT_EQ(trace_bytes(first.trace), trace_bytes(second.trace));
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.stats.spawns, second.stats.spawns);
  EXPECT_EQ(first.stats.yields, second.stats.yields);
  EXPECT_EQ(first.stats.blocks, second.stats.blocks);
  EXPECT_EQ(first.stats.wakes, second.stats.wakes);
  EXPECT_EQ(first.stats.peak_live_locations,
            second.stats.peak_live_locations);
}

TEST(Determinism, RankFaultInjectionMatches) {
  const auto first = stencil_run(true);
  const auto second = stencil_run(true);
  EXPECT_EQ(trace_bytes(first.trace), trace_bytes(second.trace));
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.fault_report.str(), second.fault_report.str());
  // The stall must actually have moved the schedule.
  EXPECT_GT(first.makespan, stencil_run(false).makespan);
}

// --- pathological entries: identical failure classes and dumps -----------

std::string run_expecting_failure(const std::string& name, int nprocs,
                                  VDur vt_limit, std::uint64_t yield_limit) {
  const auto& def = gen::Registry::instance().find(name);
  gen::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.engine.virtual_time_limit = vt_limit;
  cfg.engine.yield_limit = yield_limit;
  try {
    gen::run_single_property(def, def.positive, cfg);
  } catch (const DeadlockError& e) {
    return std::string("DeadlockError: ") + e.what();
  } catch (const HangError& e) {
    return std::string("HangError: ") + e.what();
  }
  return "no failure";
}

TEST(Determinism, DeadlockDumpIsBitIdentical) {
  const auto first =
      run_expecting_failure("pathological_deadlock", 2, VDur::zero(), 0);
  const auto second =
      run_expecting_failure("pathological_deadlock", 2, VDur::zero(), 0);
  EXPECT_NE(first.find("DeadlockError"), std::string::npos) << first;
  EXPECT_EQ(first, second);
}

TEST(Determinism, HangDumpIsBitIdentical) {
  const auto first =
      run_expecting_failure("pathological_hang", 1, VDur::millis(50), 0);
  const auto second =
      run_expecting_failure("pathological_hang", 1, VDur::millis(50), 0);
  EXPECT_NE(first.find("virtual-time budget"), std::string::npos) << first;
  EXPECT_EQ(first, second);
}

TEST(Determinism, LivelockDumpIsBitIdentical) {
  const auto first =
      run_expecting_failure("pathological_livelock", 1, VDur::zero(), 5000);
  const auto second =
      run_expecting_failure("pathological_livelock", 1, VDur::zero(), 5000);
  EXPECT_NE(first.find("yield budget"), std::string::npos) << first;
  EXPECT_EQ(first, second);
}

}  // namespace
