// EngineStats pin over the sweep grid: for every registry entry expected to
// complete, in its positive (when it has an expected property) and negative
// configuration at np 8 and 64, the engine's spawn, yield, block and wake
// counts, its peak live locations and the FNV-1a hash of the text trace
// must equal the table in engine_stats.txt.  The scheduler may get faster;
// it may not run a program differently.
//
// On a mismatch the test writes the table this build computes to
// engine_stats.actual in the test's working directory, so an intended
// change can be reviewed with diff and accepted by copying it over.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/registry.hpp"
#include "runner/supervisor.hpp"

namespace {

using namespace ats;

constexpr int kNps[] = {8, 64};

/// One table line: the run of `def` that run_single_property makes, through
/// the same gen::run_ranks, with the engine's counters it returns.
std::string stats_line(const gen::PropertyDef& def, bool positive, int np) {
  const gen::ParamMap& pm = positive ? def.positive : def.negative;
  gen::RunConfig cfg;
  cfg.nprocs = np;
  trace::Trace trace;
  const gen::RanksRun r =
      gen::run_ranks(cfg, def.uses_openmp, trace,
                     [&](core::PropCtx& ctx) { def.invoke(ctx, pm); });
  std::ostringstream trace_text;
  trace.save(trace_text);
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(
                    runner::fnv1a64(trace_text.str())));
  std::ostringstream os;
  os << def.name << ' ' << (positive ? "pos" : "neg") << ' ' << np << ' '
     << r.stats.spawns << ' ' << r.stats.yields << ' ' << r.stats.blocks
     << ' ' << r.stats.wakes << ' ' << r.stats.peak_live_locations << ' '
     << hash << '\n';
  return os.str();
}

std::string computed_table() {
  const auto& reg = gen::Registry::instance();
  std::string out =
      "# name config np spawns yields blocks wakes peak_live trace_fnv1a\n";
  for (const std::string& name : reg.names()) {
    const gen::PropertyDef& def = reg.find(name);
    for (const bool positive : {true, false}) {
      if (positive && !def.expected) continue;
      for (const int np : kNps) {
        if (np < def.min_procs) continue;
        out += stats_line(def, positive, np);
      }
    }
  }
  return out;
}

TEST(EngineStatsTable, SweepGridMatchesThePinnedTable) {
  std::ifstream in(ATS_ENGINE_STATS_TABLE);
  ASSERT_TRUE(in) << "cannot read " << ATS_ENGINE_STATS_TABLE;
  std::stringstream pinned;
  pinned << in.rdbuf();
  const std::string actual = computed_table();
  if (actual != pinned.str()) {
    std::ofstream("engine_stats.actual") << actual;
  }
  EXPECT_EQ(actual, pinned.str())
      << "computed table written to engine_stats.actual";
}

}  // namespace
