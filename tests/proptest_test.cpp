// Tests for the metamorphic fuzzing harness: SplitSeed derivation, spec
// serialisation, the random generator, the oracle battery over a bounded
// seed range, and the output-stability guarantees the derived-seed RNG
// plumbing must preserve (byte-identical sweeps, no seed values leaking
// into reports).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "gen/experiment.hpp"
#include "gen/source_gen.hpp"
#include "proptest/oracle.hpp"
#include "report/cube_view.hpp"
#include "runner/supervisor.hpp"
#include "test_util.hpp"

namespace ats {
namespace {

using proptest::CheckOptions;
using proptest::CheckResult;
using proptest::ProgramMode;
using proptest::ProgramSpec;
using proptest::SpecCollDefect;
using proptest::SpecRankFault;
using proptest::SpecTraceFault;

// ---------------------------------------------------------------- SplitSeed

TEST(SplitSeed, ChildrenAreDeterministic) {
  const SplitSeed root(42);
  EXPECT_EQ(root.child("engine").value(), SplitSeed(42).child("engine").value());
  EXPECT_EQ(root.child(7).value(), SplitSeed(42).child(7).value());
}

TEST(SplitSeed, ChildrenAreWellSeparated) {
  const SplitSeed root(42);
  std::set<std::uint64_t> seen;
  seen.insert(root.value());
  seen.insert(root.child("engine").value());
  seen.insert(root.child("trace-faults").value());
  seen.insert(root.child("rank-faults").value());
  seen.insert(root.child("retry").value());
  for (std::uint64_t i = 0; i < 16; ++i) seen.insert(root.child(i).value());
  EXPECT_EQ(seen.size(), 21u);  // no collisions among labels and indices
  // Different roots give different children for the same label.
  EXPECT_NE(root.child("engine").value(), SplitSeed(43).child("engine").value());
  // Nested derivation differs from flat derivation.
  EXPECT_NE(root.child("retry").child(0).value(), root.child(0).value());
}

TEST(SplitSeed, RngStreamsFollowTheSeed) {
  Rng a = SplitSeed(9).child("x").rng();
  Rng b = SplitSeed(9).child("x").rng();
  Rng c = SplitSeed(9).child("y").rng();
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

// -------------------------------------------------------------- ProgramSpec

TEST(ProgramSpec, RoundTripsThroughText) {
  ProgramSpec s;
  s.seed = 1234;
  s.mode = ProgramMode::kMix;
  s.property = "late_sender";
  s.mix = {"wait_at_barrier", "early_reduce"};
  s.nprocs = 6;
  s.repeats = 3;
  s.nthreads = 4;
  s.basework_us = 7'500;
  s.delay_us = 90'000;
  s.rank_fault = SpecRankFault::kStall;
  s.fault_rank = 2;
  s.trace_fault = SpecTraceFault::kDuplicate;
  s.coll_defect = SpecCollDefect::kRootMismatch;
  const ProgramSpec back = ProgramSpec::parse(s.str());
  EXPECT_EQ(back, s);
}

TEST(ProgramSpec, CollDefectSerialisedOnlyWhenSet) {
  // Pre-existing .ats-repro files carry no coll_defect line; a default
  // spec must not start emitting one.
  ProgramSpec s;
  EXPECT_EQ(s.str().find("coll_defect"), std::string::npos);
  s.coll_defect = SpecCollDefect::kOpMismatch;
  EXPECT_NE(s.str().find("coll_defect op-mismatch"), std::string::npos);
  EXPECT_EQ(s.complexity(), ProgramSpec{}.complexity() + 1);
}

TEST(ProgramSpec, RandomDefectSpecIsDeterministicAndSound) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const ProgramSpec a = proptest::random_defect_spec(seed);
    const ProgramSpec b = proptest::random_defect_spec(seed);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.coll_defect, SpecCollDefect::kNone);
    // The injected miscall must be the program's only failure mode.
    EXPECT_EQ(a.rank_fault, SpecRankFault::kNone);
    EXPECT_EQ(a.trace_fault, SpecTraceFault::kNone);
    EXPECT_EQ(gen::Registry::instance().find(a.property).expected_outcome,
              gen::RunOutcome::kOk);
  }
}

TEST(ProgramSpec, ParseRejectsUnknownKeys) {
  EXPECT_THROW(ProgramSpec::parse("bogus 1\n"), UsageError);
  EXPECT_THROW(ProgramSpec::parse("seed notanumber\n"), UsageError);
  EXPECT_THROW(ProgramSpec::parse("mode sideways\n"), UsageError);
}

TEST(ProgramSpec, ParseRejectsOutOfRangeNumbers) {
  // A negative seed is not wrapped to 2^64 - 1; counts stay in int range.
  EXPECT_THROW(ProgramSpec::parse("seed -1\n"), UsageError);
  EXPECT_THROW(ProgramSpec::parse("nprocs 4294967300\n"), UsageError);
  EXPECT_THROW(ProgramSpec::parse("delay_us 10x\n"), UsageError);
  EXPECT_EQ(ProgramSpec::parse("seed 18446744073709551615\n").seed,
            UINT64_MAX);
}

TEST(ProgramSpec, ComplexityCountsDivergingFields) {
  ProgramSpec base;
  base.property = "late_sender";
  base.nprocs = gen::Registry::instance().find("late_sender").min_procs;
  base.repeats = 1;
  base.nthreads = 2;
  EXPECT_EQ(base.complexity(), 0);
  ProgramSpec messy = base;
  messy.nprocs += 2;
  messy.repeats = 3;
  messy.trace_fault = SpecTraceFault::kRecord;
  EXPECT_EQ(messy.complexity(), 3);
}

TEST(ProgramSpec, GeneratorIsDeterministicAndValid) {
  const auto& reg = gen::Registry::instance();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ProgramSpec a = proptest::random_spec(seed);
    const ProgramSpec b = proptest::random_spec(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.seed, seed);
    ASSERT_TRUE(reg.contains(a.property)) << a.summary();
    for (const auto& m : a.mix) ASSERT_TRUE(reg.contains(m)) << m;
    EXPECT_GE(a.nprocs, a.mode == ProgramMode::kSplit
                            ? 4
                            : reg.find(a.property).min_procs);
    // Specs round-trip regardless of how they were drawn.
    EXPECT_EQ(ProgramSpec::parse(a.str()), a);
  }
}

// ------------------------------------------------------------------ oracles

TEST(Oracle, BoundedSeedRangeIsViolationFree) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ProgramSpec spec = proptest::random_spec(seed);
    const CheckResult r = proptest::check_spec(spec);
    EXPECT_TRUE(r.ok()) << spec.summary() << "\n" << r.str();
  }
}

TEST(Oracle, InjectedAnalyzerDefectIsCaught) {
  // Cripple the late-sender pattern and check a spec that exercises it:
  // the detection oracle must fire (the suite fails a broken tool).
  CheckOptions defect;
  defect.disabled_patterns = {analyze::PropertyId::kLateSender};
  ProgramSpec spec;
  spec.seed = 77;
  spec.property = "late_sender";
  const CheckResult broken = proptest::check_spec(spec, defect);
  EXPECT_FALSE(broken.ok());
  bool detection = false;
  for (const auto& v : broken.violations) {
    detection |= v.oracle == proptest::Oracle::kDetection;
  }
  EXPECT_TRUE(detection) << broken.str();
  // The same spec against the healthy analyzer is violation-free.
  const CheckResult clean = proptest::check_spec(spec);
  EXPECT_TRUE(clean.ok()) << clean.str();
}

TEST(Oracle, NegativeSpecStaysQuiet) {
  ProgramSpec spec;
  spec.seed = 5;
  spec.property = "late_sender";
  spec.negative = true;
  const CheckResult r = proptest::check_spec(spec);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(Oracle, PathologicalSpecClassifies) {
  ProgramSpec spec;
  spec.seed = 8;
  spec.property = "pathological_deadlock";
  spec.nprocs = 2;
  const CheckResult r = proptest::check_spec(spec);
  EXPECT_EQ(r.outcome, gen::RunOutcome::kDeadlock);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(Oracle, InjectedCrashClassifiesAsMpiError) {
  ProgramSpec spec;
  spec.seed = 9;
  spec.property = "late_sender";
  spec.rank_fault = SpecRankFault::kCrash;
  spec.fault_rank = 1;
  const CheckResult r = proptest::check_spec(spec);
  EXPECT_EQ(r.outcome, gen::RunOutcome::kMpiError);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(Oracle, MaskPermutationInvarianceHoldsDirectly) {
  // The property the oracle relies on, checked without the harness: two
  // permutations of the same disabled set yield identical severities.
  ProgramSpec spec;
  spec.seed = 3;
  spec.property = "imbalance_at_mpi_barrier";
  const proptest::RunResult run = proptest::run_program(spec);
  ASSERT_EQ(run.outcome, gen::RunOutcome::kOk);
  analyze::AnalyzerOptions fwd;
  fwd.disabled_patterns = {analyze::PropertyId::kLateSender,
                           analyze::PropertyId::kWaitAtNxN,
                           analyze::PropertyId::kEarlyReduce};
  analyze::AnalyzerOptions rev;
  rev.disabled_patterns = {analyze::PropertyId::kEarlyReduce,
                           analyze::PropertyId::kWaitAtNxN,
                           analyze::PropertyId::kLateSender};
  const auto fa = analyze::analyze(run.trace, fwd);
  const auto ra = analyze::analyze(run.trace, rev);
  EXPECT_EQ(report::severity_csv(fa, run.trace),
            report::severity_csv(ra, run.trace));
}

// ----------------------------------------------- output stability (PR 3/5)

TEST(OutputStability, NoSeedValuesInGeneratedDriverOrCatalog) {
  // The derived-seed plumbing must not leak raw seed values into any
  // user-facing generated artifact: the default engine seed (0x415453 =
  // 4281427) in hex or decimal would make reports depend on RNG internals.
  const auto& reg = gen::Registry::instance();
  for (const auto& def : reg.all()) {
    const std::string src = gen::generate_driver_source(def);
    EXPECT_EQ(src.find("0x415453"), std::string::npos) << def.name;
    EXPECT_EQ(src.find("4281427"), std::string::npos) << def.name;
    const std::string help = gen::describe_property(def);
    EXPECT_EQ(help.find("0x415453"), std::string::npos) << def.name;
    EXPECT_EQ(help.find("4281427"), std::string::npos) << def.name;
  }
  const std::string catalog = gen::describe_registry();
  EXPECT_EQ(catalog.find("0x415453"), std::string::npos);
  EXPECT_EQ(catalog.find("4281427"), std::string::npos);
}

TEST(OutputStability, SupervisedCleanSweepMatchesPlainRows) {
  // PR 3's guarantee, re-pinned under the SplitSeed retry derivation: on a
  // clean sweep a retrying, seed-perturbing supervisor produces exactly
  // the bytes of the plain runner (retries never trigger, so derived
  // seeds never influence results).
  gen::ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.02", "0.05"}};
  plan.jobs = 1;
  const auto plain = testutil::cell_rows(plan);
  runner::SupervisorOptions sup;
  sup.retry.max_attempts = 3;
  sup.retry.perturb_seed = true;
  const auto supervised = runner::SupervisedRunner(sup).run_sweep(plan);
  EXPECT_EQ(gen::experiment_csv(plan, plain),
            gen::experiment_csv(plan, supervised));
  EXPECT_EQ(gen::experiment_table(plan, plain),
            gen::experiment_table(plan, supervised));
}

TEST(OutputStability, RetrySeedsAreDerivedNotIncremented) {
  // The retry path must consume SplitSeed("retry") children so a fuzz
  // master seed reproduces retried schedules; incremented seeds would
  // collide with neighbouring base seeds.
  const std::uint64_t base = 0x415453;
  const std::uint64_t attempt1 = SplitSeed(base).child("retry").child(0).value();
  const std::uint64_t attempt2 = SplitSeed(base).child("retry").child(1).value();
  EXPECT_NE(attempt1, base + 1);
  EXPECT_NE(attempt2, base + 2);
  EXPECT_NE(attempt1, attempt2);
}

}  // namespace
}  // namespace ats
