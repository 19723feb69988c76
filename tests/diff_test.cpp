// Cross-run differential analytics (src/diff, docs/DIFF.md).
//
// The two ISSUE-level guarantees are ctest-gated here: the golden corpus
// self-diffs to empty, and a +20% delay injected into one property's spec
// produces a diff attributed to exactly that property.  The rest covers
// the noise floors, busy-work calibration, severity-CSV round-trips,
// defect-set diffs and the sweep-row differ the service verb uses.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "common/error.hpp"
#include "diff/diff.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "trace/trace_binary.hpp"

namespace {

using namespace ats;

/// Canonical golden-style run of one registry property (the ats_validate
/// --golden configuration: positive parameters, four ranks minimum).
trace::Trace run_property(const std::string& name,
                          double extrawork_scale = 1.0) {
  const gen::PropertyDef& def = gen::Registry::instance().find(name);
  gen::ParamMap params = def.positive;
  if (extrawork_scale != 1.0) {
    const double base = params.get_double("extrawork", 0.05);
    params.set("extrawork", std::to_string(base * extrawork_scale));
  }
  gen::RunConfig cfg;
  cfg.nprocs = std::max(def.min_procs, 4);
  return gen::run_single_property(def, params, cfg);
}

diff::Snapshot snapshot_of(const trace::Trace& tr) {
  return diff::Snapshot::from_result(analyze::analyze(tr), tr);
}

/// One hand-written cell, by display strings.
struct Row {
  std::string property, call_path, location;
  double sec = 0.0;
};

diff::Snapshot make_snapshot(std::initializer_list<Row> rows) {
  diff::Snapshot s;
  for (const Row& r : rows) s.add(r.property, r.call_path, r.location, r.sec);
  return s;
}

/// Number of distinct display triples among the snapshot's cells.
std::size_t distinct_triples(const diff::Snapshot& s) {
  std::set<std::string> seen;
  for (const diff::SnapshotRow& row : s.rows) {
    for (std::uint32_t i = row.begin; i < row.end; ++i) {
      seen.insert(s.name(row.property) + "|" + s.name(row.call_path) + "|" +
                  s.locations[s.cells[i].location]);
    }
  }
  return seen.size();
}

/// One row over an explicit location table, by location id.
diff::Snapshot row_snapshot(
    std::vector<std::string> locations,
    std::initializer_list<diff::SnapshotCell> cells) {
  diff::Snapshot s;
  s.locations = std::move(locations);
  s.cells = cells;
  s.rows.push_back({s.intern("late sender"), s.intern("main > send"), 0,
                    static_cast<std::uint32_t>(s.cells.size())});
  return s;
}

TEST(DiffSnapshot, SelfDiffOfLiveAnalysisIsEmpty) {
  const trace::Trace tr = run_property("late_sender");
  const diff::Snapshot snap = snapshot_of(tr);
  ASSERT_FALSE(snap.cells.empty());
  const diff::DiffResult d = diff::diff_snapshots(snap, snap);
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.regression());
  EXPECT_EQ(d.attribution, "");
  EXPECT_EQ(d.cells_compared, snap.cells.size());
}

TEST(DiffSnapshot, CsvRoundTripDiffsEmpty) {
  const trace::Trace tr = run_property("late_sender");
  const diff::Snapshot snap = snapshot_of(tr);
  const diff::Snapshot parsed =
      diff::Snapshot::from_severity_csv(snap.severity_csv());
  ASSERT_EQ(parsed.cells.size(), snap.cells.size());
  EXPECT_TRUE(diff::diff_snapshots(snap, parsed).empty());
  EXPECT_TRUE(diff::diff_snapshots(parsed, snap).empty());
  // And the re-serialisation is byte-identical (stable order contract).
  EXPECT_EQ(parsed.severity_csv(), snap.severity_csv());
}

// Hybrid and OpenMP traces name thread locations per parallel region, so
// two location ids can share one display name.  Such cells stay separate
// cells in both snapshot flavours and pair as one logical cell in a diff.
TEST(DiffSnapshot, DuplicateDisplayNamesAggregateAlikeFromResultAndCsv) {
  const trace::Trace tr = run_property("imbalance_in_omp_pregion");
  const analyze::AnalysisResult result = analyze::analyze(tr);
  const diff::Snapshot live = diff::Snapshot::from_result(result, tr);
  const diff::Snapshot parsed =
      diff::Snapshot::from_severity_csv(report::severity_csv(result, tr));
  ASSERT_EQ(parsed.cells.size(), live.cells.size());
  const std::size_t distinct = distinct_triples(live);
  ASSERT_LT(distinct, live.cells.size()) << "no duplicate display triple";
  EXPECT_EQ(distinct_triples(parsed), distinct);
  // One property or call-path id per display string, whichever way the
  // snapshot was built.  The live location table holds one entry per trace
  // location, duplicate names included; the parsed one one per display
  // name, each of them a live name.
  EXPECT_EQ(parsed.name_count(), live.name_count());
  const std::set<std::string> live_names(live.locations.begin(),
                                         live.locations.end());
  ASSERT_LT(live_names.size(), live.locations.size());
  EXPECT_EQ(std::set<std::string>(parsed.locations.begin(),
                                  parsed.locations.end())
                .size(),
            parsed.locations.size());
  for (const std::string& loc : parsed.locations) {
    EXPECT_TRUE(live_names.count(loc)) << loc;
  }

  for (const diff::Snapshot* side : {&live, &parsed}) {
    const diff::DiffResult self = diff::diff_snapshots(*side, *side);
    EXPECT_TRUE(self.empty());
    EXPECT_EQ(self.cells_compared, distinct);
  }
  EXPECT_TRUE(diff::diff_snapshots(live, parsed).empty());
  EXPECT_TRUE(diff::diff_snapshots(parsed, live).empty());

  // Against an empty baseline every logical cell is "added" with the sum of
  // its duplicates, and both flavours report the same deltas.
  const diff::Snapshot none;
  const diff::DiffResult from_live = diff::diff_snapshots(none, live);
  const diff::DiffResult from_csv = diff::diff_snapshots(none, parsed);
  EXPECT_EQ(from_live.cells_compared, distinct);
  EXPECT_EQ(diff::diff_csv(from_live), diff::diff_csv(from_csv));
  ASSERT_EQ(from_live.properties.size(), from_csv.properties.size());
  for (std::size_t i = 0; i < from_live.properties.size(); ++i) {
    EXPECT_EQ(from_live.properties[i].property,
              from_csv.properties[i].property);
    EXPECT_NEAR(from_live.properties[i].b_total_sec,
                from_csv.properties[i].b_total_sec, 1e-6);
  }
}

// At 1024 ranks the snapshot re-serialises to exactly the report's CSV and
// survives a parse round trip.
TEST(DiffSnapshot, LargeRunSnapshotCsvIsTheReportCsv) {
  const gen::PropertyDef& def = gen::Registry::instance().find("late_sender");
  gen::RunConfig cfg;
  cfg.nprocs = 1024;
  const trace::Trace tr = gen::run_single_property(def, def.positive, cfg);
  const analyze::AnalysisResult result = analyze::analyze(tr);
  const std::string csv = report::severity_csv(result, tr);
  const diff::Snapshot snap = diff::Snapshot::from_result(result, tr);
  EXPECT_GE(snap.cells.size(), 1024u);
  EXPECT_EQ(snap.severity_csv(), csv);
  const diff::Snapshot parsed = diff::Snapshot::from_severity_csv(csv);
  EXPECT_EQ(parsed.cells.size(), snap.cells.size());
  EXPECT_EQ(parsed.severity_csv(), csv);
  EXPECT_TRUE(diff::diff_snapshots(snap, parsed).empty());
}

#ifdef ATS_GOLDEN_DIR
// Every golden trace's severity CSV re-serialises byte for byte through a
// parsed snapshot, and the pinned `.expected` files are that CSV.
TEST(DiffSnapshot, GoldenCsvsRoundTripThroughSnapshots) {
  std::size_t traces = 0;
  for (const auto& de : std::filesystem::directory_iterator(ATS_GOLDEN_DIR)) {
    if (de.path().extension() != ".trace") continue;
    ++traces;
    const trace::LoadResult loaded =
        trace::load_trace_auto_file(de.path().string(), {});
    ASSERT_TRUE(loaded.ok()) << de.path();
    analyze::AnalyzerOptions aopt;
    aopt.lenient = true;  // the defect entries are salvaged mid-operation
    const std::string csv =
        report::severity_csv(analyze::analyze(loaded.trace, aopt),
                             loaded.trace);
    EXPECT_EQ(diff::Snapshot::from_severity_csv(csv).severity_csv(), csv)
        << de.path();
    std::filesystem::path expected = de.path();
    expected.replace_extension(".expected");
    if (std::filesystem::exists(expected)) {
      std::ifstream in(expected, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      EXPECT_EQ(csv, bytes.str()) << expected;
    }
  }
  EXPECT_EQ(traces, 34u);
}

// from_result is from_cube plus the defect lines; report::severity_csv
// goes through from_cube and builds no defect text.
TEST(DiffSnapshot, FromResultIsFromCubePlusDefectLines) {
  const trace::LoadResult loaded = trace::load_trace_auto_file(
      std::string(ATS_GOLDEN_DIR) + "/defect_collective_root_mismatch.trace",
      {});
  ASSERT_TRUE(loaded.ok());
  analyze::AnalyzerOptions aopt;
  aopt.lenient = true;
  const analyze::AnalysisResult result = analyze::analyze(loaded.trace, aopt);
  ASSERT_FALSE(result.defects.empty());
  const diff::Snapshot cube = diff::Snapshot::from_cube(result, loaded.trace);
  const diff::Snapshot full =
      diff::Snapshot::from_result(result, loaded.trace);
  EXPECT_TRUE(cube.defects.empty());
  ASSERT_EQ(full.defects.size(), result.defects.size());
  for (std::size_t i = 0; i < full.defects.size(); ++i) {
    EXPECT_EQ(full.defects[i], result.defects[i].describe(loaded.trace));
  }
  EXPECT_EQ(cube.locations, full.locations);
  EXPECT_EQ(cube.severity_csv(), full.severity_csv());
  EXPECT_EQ(cube.severity_csv(), report::severity_csv(result, loaded.trace));
}
#endif

// One (property, call path) split over lines that are not contiguous: the
// fragments stay separate rows, re-serialise in their own order, and pair
// as one logical row in a diff, duplicate triple summed.
TEST(DiffSnapshot, NonContiguousRowsParseAsFragmentsAndDiffAsOneRow) {
  const std::string csv =
      "property,call_path,location,severity_sec\n"
      "late sender,main > send,rank 0,1.000000000\n"
      "wait at barrier,main,rank 0,0.500000000\n"
      "late sender,main > send,rank 1,2.000000000\n"
      "late sender,main > send,rank 0,0.250000000\n";
  const diff::Snapshot split = diff::Snapshot::from_severity_csv(csv);
  EXPECT_EQ(split.cells.size(), 4u);
  EXPECT_EQ(split.rows.size(), 3u);
  EXPECT_EQ(split.locations.size(), 2u);
  EXPECT_EQ(split.severity_csv(), csv);

  const auto whole =
      make_snapshot({{"late sender", "main > send", "rank 0", 1.25},
                     {"late sender", "main > send", "rank 1", 2.0},
                     {"wait at barrier", "main", "rank 0", 0.5}});
  for (const auto& d : {diff::diff_snapshots(split, whole),
                        diff::diff_snapshots(whole, split)}) {
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.cells_compared, 3u);
  }
  const auto less =
      make_snapshot({{"late sender", "main > send", "rank 0", 1.0},
                     {"late sender", "main > send", "rank 1", 2.0},
                     {"wait at barrier", "main", "rank 0", 0.5}});
  const diff::DiffResult d = diff::diff_snapshots(split, less);
  ASSERT_EQ(d.cells.size(), 1u);
  EXPECT_EQ(d.cells[0].kind, diff::DeltaKind::kDecreased);
  EXPECT_EQ(d.cells[0].location, "rank 0");
  EXPECT_DOUBLE_EQ(d.cells[0].a_sec, 1.25);
  EXPECT_DOUBLE_EQ(d.cells[0].b_sec, 1.0);
  ASSERT_EQ(d.properties.size(), 1u);
  EXPECT_DOUBLE_EQ(d.properties[0].a_total_sec, 3.25);
}

// Location tables that are permutations of each other pair by display
// name, whichever ids the cells carry; a repeated name sums.
TEST(DiffSnapshot, PermutedLocationTablesDiffEmpty) {
  const diff::Snapshot a =
      row_snapshot({"rank 0", "rank 1", "rank 2"},
                   {{0, 1.0}, {1, 2.0}, {2, 3.0}});
  const diff::Snapshot b =
      row_snapshot({"rank 2", "rank 0", "rank 1"},
                   {{1, 1.0}, {2, 2.0}, {0, 3.0}});
  ASSERT_NE(a.locations, b.locations);
  for (const auto& d :
       {diff::diff_snapshots(a, b), diff::diff_snapshots(b, a)}) {
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.cells_compared, 3u);
  }
  const diff::DiffOptions base;
  const diff::DiffOptions cal = diff::calibrate({a, b}, base);
  EXPECT_EQ(cal.abs_floor_sec, base.abs_floor_sec);
  EXPECT_EQ(cal.rel_floor, base.rel_floor);
  // "rank 0" under two ids sums to the one logical cell of b.
  const diff::Snapshot dup =
      row_snapshot({"rank 1", "rank 0", "rank 2", "rank 0"},
                   {{1, 0.5}, {0, 2.0}, {2, 3.0}, {3, 0.5}});
  const diff::DiffResult d = diff::diff_snapshots(dup, b);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.cells_compared, 3u);
}

TEST(DiffSnapshot, RejectsForeignCsv) {
  EXPECT_THROW(diff::Snapshot::from_severity_csv("a,b,c\n1,2,3\n"),
               UsageError);
  EXPECT_THROW(diff::Snapshot::from_severity_csv(
                   "property,call_path,location,severity_sec\nonly,three\n"),
               UsageError);
  EXPECT_THROW(
      diff::Snapshot::from_severity_csv(
          "property,call_path,location,severity_sec\na,b,c,not-a-number\n"),
      UsageError);
}

TEST(DiffSnapshot, RejectsSeveritiesThatAreNotWholeFiniteDecimals) {
  const std::string header = "property,call_path,location,severity_sec\n";
  for (const char* bad : {"0.5junk", " 0.5", "0x1p-1", "nan", "inf", ""}) {
    try {
      (void)diff::Snapshot::from_severity_csv(header + "a,b,c,0.25\n" +
                                              "a,b,d," + bad + "\n");
      ADD_FAILURE() << "accepted severity '" << bad << "'";
    } catch (const UsageError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("severity CSV line 3: bad severity '") + bad +
                    "'");
    }
  }
  EXPECT_EQ(diff::Snapshot::from_severity_csv(header + "a,b,c,0.5\n")
                .cells.front()
                .severity_sec,
            0.5);
}

// The ISSUE acceptance criterion: +20% extrawork on late_sender must diff
// as a regression attributed to exactly that property — and to no other
// wait-state leaf.
TEST(DiffAttribution, InjectedDelayAttributesToLateSender) {
  const diff::Snapshot before = snapshot_of(run_property("late_sender"));
  const diff::Snapshot after =
      snapshot_of(run_property("late_sender", 1.2));
  const diff::DiffResult d = diff::diff_snapshots(before, after);
  ASSERT_FALSE(d.empty());
  EXPECT_TRUE(d.regression());
  EXPECT_EQ(d.attribution, "late sender");
  for (const diff::PropertyDelta& p : d.properties) {
    if (!p.regressed || p.property == "late sender") continue;
    // Roll-ups (time, mpi, point-to-point) legitimately grow with their
    // leaf; no *other* wait-state leaf may regress.
    bool is_waitstate_leaf = false;
    for (analyze::PropertyId id : analyze::property_preorder()) {
      if (p.property == analyze::property_name(id)) {
        is_waitstate_leaf = analyze::property_info(id).is_waitstate;
        break;
      }
    }
    EXPECT_FALSE(is_waitstate_leaf)
        << p.property << " regressed alongside late sender";
  }
}

TEST(DiffAttribution, ImprovementIsNotARegression) {
  const diff::Snapshot before = snapshot_of(run_property("late_sender"));
  const diff::Snapshot after =
      snapshot_of(run_property("late_sender", 0.5));
  const diff::DiffResult d = diff::diff_snapshots(before, after);
  ASSERT_FALSE(d.empty());
  EXPECT_FALSE(d.regression());
  EXPECT_EQ(d.attribution, "");
}

TEST(DiffThresholds, FloorsSwallowSmallDeltas) {
  const auto a = make_snapshot({{"late sender", "main > send", "rank 0", 1.0}});
  // +1% is under the default 2% relative floor.
  const auto b =
      make_snapshot({{"late sender", "main > send", "rank 0", 1.01}});
  EXPECT_TRUE(diff::diff_snapshots(a, b).empty());
  // +10% clears it.
  const auto c =
      make_snapshot({{"late sender", "main > send", "rank 0", 1.1}});
  const diff::DiffResult d = diff::diff_snapshots(a, c);
  ASSERT_EQ(d.cells.size(), 1u);
  EXPECT_EQ(d.cells[0].kind, diff::DeltaKind::kIncreased);
  EXPECT_EQ(d.attribution, "late sender");
  // A sub-nanosecond absolute delta never fires, whatever the ratio.
  const auto tiny_a =
      make_snapshot({{"late sender", "main > send", "rank 0", 2e-10}});
  const auto tiny_b =
      make_snapshot({{"late sender", "main > send", "rank 0", 8e-10}});
  EXPECT_TRUE(diff::diff_snapshots(tiny_a, tiny_b).empty());
}

TEST(DiffThresholds, AddedAndRemovedCells) {
  const auto a = make_snapshot({{"late sender", "main > send", "rank 0", 1.0}});
  const auto b = make_snapshot({{"wait at barrier", "main", "rank 1", 0.5}});
  const diff::DiffResult d = diff::diff_snapshots(a, b);
  ASSERT_EQ(d.cells.size(), 2u);
  // Sorted by |delta|: the removed 1.0 before the added 0.5.
  EXPECT_EQ(d.cells[0].kind, diff::DeltaKind::kRemoved);
  EXPECT_EQ(d.cells[1].kind, diff::DeltaKind::kAdded);
  EXPECT_TRUE(d.regression());  // the appearance of wait-at-barrier
  EXPECT_EQ(d.attribution, "wait at barrier");
}

// B's string table is in another order than A's and holds names A lacks;
// pairing goes by display string, never by raw id.
TEST(DiffThresholds, StringTablesInDifferentOrderAndContent) {
  const auto a =
      make_snapshot({{"late sender", "main > send", "rank 0", 1.0},
                     {"late sender", "main > send", "rank 1", 2.0},
                     {"wait at barrier", "main", "rank 0", 0.5},
                     {"late receiver", "main > recv", "rank 2", 0.3}});
  const auto b =
      make_snapshot({{"wait at barrier", "main", "rank 9", 0.4},
                     {"wait at barrier", "main", "rank 0", 0.5},
                     {"late sender", "main > send", "rank 1", 3.0},
                     {"late sender", "main > send", "rank 0", 1.0},
                     {"early reduce", "main > reduce", "rank 0", 0.2}});
  ASSERT_NE(a.name(0), b.name(0));
  ASSERT_NE(a.locations, b.locations);
  const diff::DiffResult d = diff::diff_snapshots(a, b);
  EXPECT_EQ(d.cells_compared, 6u);
  ASSERT_EQ(d.cells.size(), 4u);
  // Largest |delta| first: +1.0, +0.4, -0.3, +0.2.
  EXPECT_EQ(d.cells[0].kind, diff::DeltaKind::kIncreased);
  EXPECT_EQ(d.cells[0].location, "rank 1");
  EXPECT_DOUBLE_EQ(d.cells[0].a_sec, 2.0);
  EXPECT_DOUBLE_EQ(d.cells[0].b_sec, 3.0);
  EXPECT_EQ(d.cells[1].kind, diff::DeltaKind::kAdded);
  EXPECT_EQ(d.cells[1].property, "wait at barrier");
  EXPECT_EQ(d.cells[1].location, "rank 9");
  EXPECT_EQ(d.cells[2].kind, diff::DeltaKind::kRemoved);
  EXPECT_EQ(d.cells[2].call_path, "main > recv");
  EXPECT_EQ(d.cells[3].kind, diff::DeltaKind::kAdded);
  EXPECT_EQ(d.cells[3].property, "early reduce");
  EXPECT_EQ(d.cells[3].call_path, "main > reduce");
  // Property roll-ups in first-seen order: A's properties, then B-only ones.
  ASSERT_EQ(d.properties.size(), 4u);
  EXPECT_EQ(d.properties[0].property, "late sender");
  EXPECT_DOUBLE_EQ(d.properties[0].a_total_sec, 3.0);
  EXPECT_DOUBLE_EQ(d.properties[0].b_total_sec, 4.0);
  EXPECT_EQ(d.properties[1].property, "wait at barrier");
  EXPECT_DOUBLE_EQ(d.properties[1].b_total_sec, 0.9);
  EXPECT_EQ(d.properties[2].property, "late receiver");
  EXPECT_TRUE(d.properties[2].improved);
  EXPECT_EQ(d.properties[3].property, "early reduce");
  EXPECT_EQ(d.attribution, "late sender");
  // Swapping the sides mirrors every verdict.
  const diff::DiffResult r = diff::diff_snapshots(b, a);
  EXPECT_EQ(r.cells_compared, 6u);
  ASSERT_EQ(r.cells.size(), 4u);
  EXPECT_EQ(r.cells[0].kind, diff::DeltaKind::kDecreased);
  EXPECT_EQ(r.cells[1].kind, diff::DeltaKind::kRemoved);
  EXPECT_EQ(r.cells[2].kind, diff::DeltaKind::kAdded);
  EXPECT_EQ(r.attribution, "late receiver");
}

TEST(DiffCalibration, RepeatSpreadWidensRelativeFloor) {
  const auto r1 = make_snapshot({{"late sender", "p", "rank 0", 1.0}});
  const auto r2 = make_snapshot({{"late sender", "p", "rank 0", 1.06}});
  const diff::DiffOptions opt = diff::calibrate({r1, r2});
  // Spread 6% -> floor at least 2x that, capped at 50%.
  EXPECT_GE(opt.rel_floor, 0.11);
  EXPECT_LE(opt.rel_floor, 0.5);
  // A +8% "regression" is now inside the calibrated noise band...
  const auto b = make_snapshot({{"late sender", "p", "rank 0", 1.08}});
  EXPECT_TRUE(diff::diff_snapshots(r1, b, opt).empty());
  // ...but a +30% one still fires.
  const auto c = make_snapshot({{"late sender", "p", "rank 0", 1.3}});
  EXPECT_FALSE(diff::diff_snapshots(r1, c, opt).empty());
}

TEST(DiffCalibration, FlickeringCellWidensAbsoluteFloor) {
  const auto r1 = make_snapshot({{"late sender", "p", "rank 0", 1.0},
                                 {"wait at barrier", "q", "rank 1", 0.002}});
  const auto r2 = make_snapshot({{"late sender", "p", "rank 0", 1.0}});
  const diff::DiffOptions opt = diff::calibrate({r1, r2});
  EXPECT_GE(opt.abs_floor_sec, 0.004);
  // The flicker-sized cell no longer diffs...
  EXPECT_TRUE(diff::diff_snapshots(r2, r1, opt).empty());
  // ...while calibration without flicker would have reported it.
  EXPECT_FALSE(diff::diff_snapshots(r2, r1, {}).empty());
}

// Pinned floors for a fixed repeat set whose string tables differ in order,
// with a duplicated triple (counted once per row, as it always was) and a
// cell that flickers.
TEST(DiffCalibration, FixedRepeatSetGivesPinnedFloors) {
  const auto r1 = make_snapshot(
      {{"late sender", "main > send", "rank 0", 1.0},
       {"late sender", "main > send", "rank 0", 0.96},
       {"wait at barrier", "main > barrier", "rank 1", 0.002}});
  const auto r2 = make_snapshot(
      {{"wait at barrier", "main > barrier", "rank 3", 0.004},
       {"wait at barrier", "main > barrier", "rank 1", 0.0021},
       {"late sender", "main > send", "rank 0", 1.04}});
  const auto r3 = make_snapshot(
      {{"late sender", "main > send", "rank 0", 1.1},
       {"wait at barrier", "main > barrier", "rank 1", 0.00205}});
  const diff::DiffOptions opt = diff::calibrate({r1, r2, r3});
  EXPECT_EQ(opt.abs_floor_sec, 2.0 * 0.004);
  EXPECT_EQ(opt.rel_floor, 2.0 * ((1.1 - 0.96) / 1.1));
  const diff::DiffOptions wide = diff::calibrate({r3, r1, r2}, {1e-6, 0.3});
  EXPECT_EQ(wide.abs_floor_sec, 2.0 * 0.004);
  EXPECT_EQ(wide.rel_floor, 0.3);
}

TEST(DiffDefects, SetDifferenceBothWays) {
  diff::Snapshot a, b;
  a.defects = {"operation-mismatch 'world' call #1: ...",
               "missing-call 'world' call #2: ..."};
  b.defects = {"operation-mismatch 'world' call #1: ...",
               "root-mismatch 'world' call #3: ..."};
  const diff::DiffResult d = diff::diff_snapshots(a, b);
  ASSERT_EQ(d.defects_added.size(), 1u);
  ASSERT_EQ(d.defects_removed.size(), 1u);
  EXPECT_EQ(d.defects_added[0], "root-mismatch 'world' call #3: ...");
  EXPECT_TRUE(d.regression());  // a new defect is always a regression
  EXPECT_FALSE(d.empty());
}

TEST(DiffDefects, ParseDefectLinesSkipsBannerAndNone) {
  EXPECT_TRUE(
      diff::parse_defect_lines("=== structural defects ===\n(none)\n")
          .empty());
  const auto lines = diff::parse_defect_lines(
      "=== structural defects ===\nfirst defect\nsecond defect\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "first defect");
}

TEST(DiffRows, SweepRowsPairByValueWithFloors) {
  auto row = [](const std::string& value, double sec) {
    gen::ExperimentRow r;
    r.value = value;
    r.severity = ats::VDur::seconds(sec);
    return r;
  };
  const std::vector<gen::ExperimentRow> a = {row("0.01", 0.1),
                                             row("0.02", 0.2)};
  std::vector<gen::ExperimentRow> b = {row("0.01", 0.1005),
                                       row("0.02", 0.3), row("0.05", 0.5)};
  b[1].outcome = gen::RunOutcome::kDeadlock;
  const std::vector<diff::RowDelta> deltas = diff::diff_rows(a, b);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_FALSE(deltas[0].changed);  // +0.5% is under the relative floor
  EXPECT_TRUE(deltas[1].changed);
  EXPECT_TRUE(deltas[1].outcome_changed);
  EXPECT_TRUE(deltas[2].changed);  // value present only in B
  EXPECT_FALSE(deltas[2].in_a);
}

TEST(DiffRender, TextCsvAndXmlCarryTheDelta) {
  const auto a = make_snapshot({{"late sender", "main > send", "rank 0", 1.0}});
  const auto b = make_snapshot({{"late sender", "main > send", "rank 0", 2.0}});
  const diff::DiffResult d = diff::diff_snapshots(a, b);
  const std::string text = diff::render_text(d, "A", "B");
  EXPECT_NE(text.find("regression attributed to: late sender"),
            std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  const std::string csv = diff::diff_csv(d);
  EXPECT_NE(
      csv.find("property,call_path,location,a_sec,b_sec,delta_sec,rel,kind"),
      std::string::npos);
  EXPECT_NE(csv.find("increased"), std::string::npos);
  const std::string xml = diff::diff_xml(d, "A", "B");
  EXPECT_NE(xml.find("regression=\"1\""), std::string::npos);
  EXPECT_NE(xml.find("attribution=\"late sender\""), std::string::npos);
}

TEST(DiffRender, CorpusCsvPrefixesEntryRowsAndMarksMissingEntries) {
  auto b = make_snapshot({{"late sender", "main > send", "rank 0", 2.0}});
  b.defects = {"root-mismatch 'world' call #3"};
  diff::CorpusDiff c;
  c.entries.resize(2);
  c.entries[0].name = "alpha";
  c.entries[0].diff = diff::diff_snapshots(
      make_snapshot({{"late sender", "main > send", "rank 0", 1.0}}), b);
  c.entries[1].name = "beta";
  c.entries[1].missing_in_b = true;
  EXPECT_EQ(diff::corpus_csv(c),
            "entry,property,call_path,location,a_sec,b_sec,delta_sec,rel,"
            "kind\n"
            "alpha,late sender,main > send,rank 0,1.000000000,2.000000000,"
            "1.000000000,0.5000,increased\n"
            "alpha,defect,,root-mismatch 'world' call #3,0,1,1,1,added\n"
            "beta,,,,0,0,0,0,missing_in_b\n");
}

#ifdef ATS_GOLDEN_DIR
// The checked-in golden corpus self-diffs clean through the full corpus
// path (file scan, CSV parse, defect parse, per-entry diff).
TEST(DiffCorpus, GoldenCorpusSelfDiffIsClean) {
  const diff::CorpusDiff cd =
      diff::diff_corpus(ATS_GOLDEN_DIR, ATS_GOLDEN_DIR);
  EXPECT_GT(cd.entries_compared, 0u);
  EXPECT_TRUE(cd.clean());
  EXPECT_FALSE(cd.regression());
  EXPECT_NE(diff::render_corpus_text(cd, "A", "B")
                .find("all entries identical"),
            std::string::npos);
}

TEST(DiffCorpus, MissingDirectoryThrows) {
  EXPECT_THROW(diff::diff_corpus(ATS_GOLDEN_DIR, "/nonexistent-dir-xyz"),
               Error);
}
#endif

}  // namespace
