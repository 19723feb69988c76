// Tests for the generator layer: parameter parsing, distribution specs,
// driver source generation, registry integrity.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "gen/registry.hpp"
#include "gen/source_gen.hpp"

namespace ats::gen {
namespace {

TEST(Params, ParseKeyValuePairs) {
  const std::vector<std::string> args{"a=1", "b=x=y", "c=0.5"};
  const ParamMap pm = ParamMap::parse(args);
  EXPECT_TRUE(pm.has("a"));
  EXPECT_EQ(pm.get_int("a", 0), 1);
  EXPECT_EQ(pm.get_raw("b", ""), "x=y");  // first '=' splits
  EXPECT_DOUBLE_EQ(pm.get_double("c", 0), 0.5);
  EXPECT_EQ(pm.keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Params, MalformedPairsThrow) {
  EXPECT_THROW(ParamMap::parse(std::vector<std::string>{"noequals"}),
               UsageError);
  EXPECT_THROW(ParamMap::parse(std::vector<std::string>{"=v"}), UsageError);
}

TEST(Params, DefaultsWhenAbsent) {
  const ParamMap pm;
  EXPECT_EQ(pm.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(pm.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(pm.get_raw("missing", "z"), "z");
}

TEST(Params, BadNumbersThrow) {
  ParamMap pm;
  pm.set("x", "abc");
  EXPECT_THROW(pm.get_double("x", 0), UsageError);
  EXPECT_THROW(pm.get_int("x", 0), UsageError);
  pm.set("y", "1.5zzz");
  EXPECT_THROW(pm.get_double("y", 0), UsageError);
}

TEST(Params, OutOfRangeAndNonFiniteValuesThrow) {
  ParamMap pm;
  pm.set("wraps_to_one", "4294967297");
  pm.set("saturates", "99999999999999999999");
  pm.set("nan", "nan");
  pm.set("inf", "inf");
  pm.set("trailing", "4x");
  EXPECT_THROW(pm.get_int("wraps_to_one", 0), UsageError);
  EXPECT_THROW(pm.get_int("saturates", 0), UsageError);
  EXPECT_THROW(pm.get_int("trailing", 0), UsageError);
  EXPECT_THROW(pm.get_double("nan", 0), UsageError);
  EXPECT_THROW(pm.get_double("inf", 0), UsageError);
  EXPECT_THROW(parse_distribution("same:val=nan"), UsageError);
  EXPECT_THROW(parse_distribution("peak:low=0,high=1,n=4294967297"),
               UsageError);
  // In-range values still parse as before.
  pm.set("max", "2147483647");
  pm.set("neg", "-3");
  pm.set("small", "1e-3");
  EXPECT_EQ(pm.get_int("max", 0), 2147483647);
  EXPECT_EQ(pm.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(pm.get_double("small", 0), 1e-3);
}

TEST(Params, CheckAgainstSpecs) {
  const std::vector<ParamSpec> specs{
      {"basework", ParamKind::kDouble, "0.01", ""},
      {"r", ParamKind::kInt, "3", ""}};
  ParamMap ok;
  ok.set("r", "5");
  EXPECT_NO_THROW(ok.check_against(specs));
  ParamMap bad;
  bad.set("basworke", "5");  // typo
  EXPECT_THROW(bad.check_against(specs), UsageError);
}

TEST(DistrSpec, ParsesEveryFunction) {
  EXPECT_DOUBLE_EQ(parse_distribution("same:val=2.5")(0, 4), 2.5);
  EXPECT_DOUBLE_EQ(parse_distribution("cyclic2:low=1,high=3")(1, 4), 3.0);
  EXPECT_DOUBLE_EQ(parse_distribution("block2:low=1,high=3")(3, 4), 3.0);
  EXPECT_DOUBLE_EQ(parse_distribution("linear:low=0,high=3")(3, 4), 3.0);
  EXPECT_DOUBLE_EQ(parse_distribution("peak:low=1,high=9,n=2")(2, 4), 9.0);
  EXPECT_DOUBLE_EQ(parse_distribution("cyclic3:low=1,med=2,high=3")(1, 6),
                   2.0);
  EXPECT_DOUBLE_EQ(parse_distribution("block3:low=1,med=2,high=3")(5, 6),
                   3.0);
  EXPECT_DOUBLE_EQ(parse_distribution("custom:values=5;6;7")(1, 3), 6.0);
  const auto r = parse_distribution("random:low=1,high=2");
  EXPECT_GE(r(0, 4), 1.0);
  EXPECT_LE(r(0, 4), 2.0);
}

TEST(DistrSpec, MissingFieldsDefaultToZero) {
  EXPECT_DOUBLE_EQ(parse_distribution("same")(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(parse_distribution("linear:high=4")(0, 2), 0.0);
}

TEST(DistrSpec, Errors) {
  EXPECT_THROW(parse_distribution("nope:low=1"), UsageError);
  EXPECT_THROW(parse_distribution("linear:lowhigh"), UsageError);
  EXPECT_THROW(parse_distribution("custom"), UsageError);
  EXPECT_THROW(parse_distribution("linear:low=xyz"), UsageError);
}

TEST(DistrSpec, FormatRoundTrips) {
  for (const char* spec :
       {"same:val=0.020000", "cyclic2:low=0.010000,high=0.050000",
        "peak:low=0.010000,high=0.100000,n=2",
        "cyclic3:low=0.010000,med=0.020000,high=0.030000",
        "custom:values=1.000000;2.000000"}) {
    const core::Distribution d = parse_distribution(spec);
    EXPECT_EQ(format_distribution(d), spec);
  }
}

TEST(DistrSpec, ParamMapIntegration) {
  ParamMap pm;
  pm.set("df", "peak:low=0.01,high=0.2,n=1");
  const core::Distribution d = pm.get_distr("df", "same:val=0");
  EXPECT_DOUBLE_EQ(d(1, 4), 0.2);
  const core::Distribution fallback =
      ParamMap().get_distr("df", "same:val=0.5");
  EXPECT_DOUBLE_EQ(fallback(0, 2), 0.5);
}

TEST(Registry, EveryDefinitionIsComplete) {
  for (const auto& def : Registry::instance().all()) {
    EXPECT_FALSE(def.name.empty());
    EXPECT_FALSE(def.brief.empty()) << def.name;
    EXPECT_TRUE(def.invoke != nullptr) << def.name;
    EXPECT_GE(def.min_procs, 1) << def.name;
    EXPECT_FALSE(def.params.empty()) << def.name;
    // Canonical configs must use declared parameters only.
    EXPECT_NO_THROW(def.positive.check_against(def.params)) << def.name;
    EXPECT_NO_THROW(def.negative.check_against(def.params)) << def.name;
    for (const auto& p : def.params) {
      EXPECT_FALSE(p.name.empty()) << def.name;
      EXPECT_FALSE(p.help.empty()) << def.name << "." << p.name;
      EXPECT_FALSE(p.default_value.empty()) << def.name << "." << p.name;
    }
  }
}

TEST(Registry, NamesAreUniqueAndFindable) {
  std::set<std::string> seen;
  for (const auto& name : Registry::instance().names()) {
    EXPECT_TRUE(seen.insert(name).second) << name;
    EXPECT_EQ(Registry::instance().find(name).name, name);
  }
}

TEST(Registry, PaperThirteenAllPresent) {
  // The 13 functions of the paper's prototype (§3.1.5) must all exist.
  for (const char* name :
       {"late_sender", "late_receiver", "imbalance_at_mpi_barrier",
        "imbalance_at_mpi_alltoall", "late_broadcast", "late_scatter",
        "late_scatterv", "early_reduce", "early_gather", "early_gatherv",
        "imbalance_in_omp_pregion", "imbalance_at_omp_barrier",
        "imbalance_in_omp_loop"}) {
    EXPECT_TRUE(Registry::instance().contains(name)) << name;
  }
}

TEST(Registry, OmpFunctionsDeclareNthreads) {
  for (const auto& def : Registry::instance().all()) {
    if (!def.uses_openmp) continue;
    const bool has = std::any_of(
        def.params.begin(), def.params.end(),
        [](const ParamSpec& s) { return s.name == "nthreads"; });
    EXPECT_TRUE(has) << def.name;
  }
}

TEST(SourceGen, EveryPropertyGeneratesPlausibleDriver) {
  for (const auto& def : Registry::instance().all()) {
    const std::string src = generate_driver_source(def);
    EXPECT_NE(src.find("int main"), std::string::npos) << def.name;
    EXPECT_NE(src.find(def.name), std::string::npos) << def.name;
    EXPECT_NE(src.find("analyze"), std::string::npos) << def.name;
    // Balanced braces, cheap sanity check on the emitted code.
    EXPECT_EQ(std::count(src.begin(), src.end(), '{'),
              std::count(src.begin(), src.end(), '}'))
        << def.name;
  }
}

TEST(RunConfig, TraceDisabledRunsStillWork) {
  gen::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.trace_enabled = false;
  const auto& def = Registry::instance().find("late_sender");
  const trace::Trace tr = run_single_property(def, def.positive, cfg);
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_EQ(tr.location_count(), 4u);  // metadata still present
}

TEST(ExitCodes, TableIsTheSingleSourceOfTruth) {
  const auto table = exit_code_table();
  ASSERT_EQ(table.size(), 10u);
  // Codes are distinct and dense from 0.
  std::set<int> codes;
  for (const auto& e : table) codes.insert(e.code);
  EXPECT_EQ(codes.size(), table.size());
  EXPECT_EQ(*codes.begin(), 0);
  EXPECT_EQ(*codes.rbegin(), 9);
  // The RunOutcome mapping agrees with the table's named constants.
  EXPECT_EQ(exit_code(RunOutcome::kOk), kExitOk);
  EXPECT_EQ(exit_code(RunOutcome::kDeadlock), kExitDeadlock);
  EXPECT_EQ(exit_code(RunOutcome::kHang), kExitHang);
  EXPECT_EQ(exit_code(RunOutcome::kMpiError), kExitMpiError);
  EXPECT_EQ(exit_code(RunOutcome::kAnalysisError), kExitAnalysisError);
  // The collective checker's defect signal and the service's shed signal
  // are rows of the same table.
  EXPECT_EQ(table[kExitDefectsFound].code, 7);
  EXPECT_EQ(std::string(table[kExitDefectsFound].name), "defects_found");
  EXPECT_EQ(table[kExitShed].code, 8);
  EXPECT_EQ(std::string(table[kExitShed].name), "shed");
  // ... as is the cross-run differ's regression signal (docs/DIFF.md).
  EXPECT_EQ(table[kExitDiffRegression].code, 9);
  EXPECT_EQ(std::string(table[kExitDiffRegression].name), "diff_regression");
}

TEST(ExitCodes, HelpTextRendersEveryRow) {
  const std::string help = exit_code_help();
  for (const auto& e : exit_code_table()) {
    EXPECT_NE(help.find(e.name), std::string::npos) << e.name;
    EXPECT_NE(help.find(e.meaning), std::string::npos) << e.name;
  }
}

/// A one-rank property whose body throws `E` with a multi-line message.
template <typename E>
PropertyDef throwing_def(const std::string& what) {
  PropertyDef def;
  def.name = "throws";
  def.invoke = [what](core::PropCtx&, const ParamMap&) { throw E(what); };
  return def;
}

/// Classifies E(what) directly and through a salvaged run whose rank body
/// throws it: a classified exception yields its outcome and first line, an
/// unclassified one yields nullopt and is rethrown unchanged by the run.
template <typename E>
void expect_classified(std::optional<RunOutcome> want) {
  const std::string what = "first line\n  rank 0: blocked in MPI_Recv\n";
  const std::optional<RunFailure> got = classify_run_failure(E(what));
  RunConfig cfg;
  cfg.nprocs = 1;
  if (want) {
    ASSERT_TRUE(got.has_value()) << typeid(E).name();
    EXPECT_EQ(got->outcome, *want) << typeid(E).name();
    EXPECT_EQ(got->error, "first line");
    const SalvagedRun run =
        run_single_property_salvaged(throwing_def<E>(what), {}, cfg);
    EXPECT_EQ(run.outcome, *want) << typeid(E).name();
    EXPECT_EQ(run.error, "first line");
    EXPECT_GT(run.trace.event_count(), 0u);  // MPI_Init survives the throw
    return;
  }
  EXPECT_FALSE(got.has_value()) << typeid(E).name();
  try {
    (void)run_single_property_salvaged(throwing_def<E>(what), {}, cfg);
    ADD_FAILURE() << typeid(E).name() << " was not rethrown";
  } catch (const std::exception& e) {
    EXPECT_EQ(typeid(e), typeid(E));
    EXPECT_EQ(std::string(e.what()), what);
  }
}

TEST(RunFailure, ClassifierTable) {
  expect_classified<DeadlockError>(RunOutcome::kDeadlock);
  expect_classified<HangError>(RunOutcome::kHang);
  // MpiError and OmpError derive from UsageError; they classify, plain
  // UsageError (caller misuse) does not.
  expect_classified<MpiError>(RunOutcome::kMpiError);
  expect_classified<OmpError>(RunOutcome::kMpiError);
  expect_classified<TraceError>(std::nullopt);
  expect_classified<UsageError>(std::nullopt);
  expect_classified<std::runtime_error>(std::nullopt);
}

}  // namespace
}  // namespace ats::gen
