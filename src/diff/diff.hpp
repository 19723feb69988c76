// Cross-run differential analytics (docs/DIFF.md).
//
// Turns two analysis results — or two directories of golden result files,
// or two cached experiment sweeps — into a semantically thresholded delta
// report: which severity cells moved, by how much, which property the
// regression attributes to, and which structural defects appeared or
// vanished.  The comparison is noise-aware: a cell only counts as changed
// when its delta clears both an absolute floor (virtual-time jitter) and a
// relative floor (busy-work calibration), so byte-inequality alone never
// fails a run.  The serialisation contract it diffs over is the stable
// report order of SeverityCube (property pre-order, call-path node, location).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "diff/snapshot.hpp"
#include "gen/experiment.hpp"

namespace ats::diff {

/// Parses report::render_defects text (a golden `.defects` file) into
/// defect lines; the banner and "(none)" placeholder are dropped.
std::vector<std::string> parse_defect_lines(const std::string& text);

/// Noise thresholds.  A cell delta counts as a change only when
///   |delta| > abs_floor_sec  AND  |delta| > rel_floor * max(a, b).
struct DiffOptions {
  /// Absolute floor in seconds.  The default swallows serialisation
  /// rounding (severity CSV prints 9 decimals) but nothing physical.
  double abs_floor_sec = 1e-9;
  /// Relative floor as a fraction of the larger side.
  double rel_floor = 0.02;
};

/// Busy-work calibration: widens `base` floors from the spread observed
/// across repeated runs of the same configuration.  Cells that flicker in
/// and out across repeats raise the absolute floor; cells present in every
/// repeat raise the relative floor by twice their worst relative spread
/// (capped at 0.5 so a wild calibration set cannot blind the diff).
DiffOptions calibrate(const std::vector<Snapshot>& repeats,
                      DiffOptions base = {});

enum class DeltaKind : std::uint8_t {
  kAdded,      ///< cell absent in A, present in B
  kRemoved,    ///< cell present in A, absent in B
  kIncreased,  ///< severity grew beyond the floors
  kDecreased,  ///< severity shrank beyond the floors
};

const char* to_string(DeltaKind k);

/// One above-threshold cell change.
struct CellDelta {
  std::string property;
  std::string call_path;
  std::string location;
  double a_sec = 0.0;
  double b_sec = 0.0;
  DeltaKind kind = DeltaKind::kIncreased;

  double delta() const { return b_sec - a_sec; }
  /// |delta| relative to the larger side (1.0 for added/removed cells).
  double rel() const;
};

/// Per-property roll-up over *all* cells of that property (changed or not),
/// so attribution sees totals, not just the cells that crossed the floors.
struct PropertyDelta {
  std::string property;
  double a_total_sec = 0.0;
  double b_total_sec = 0.0;
  std::size_t cells_changed = 0;
  bool regressed = false;  ///< total grew beyond the floors
  bool improved = false;   ///< total shrank beyond the floors

  double delta() const { return b_total_sec - a_total_sec; }
};

struct DiffResult {
  DiffOptions options;
  std::size_t cells_compared = 0;
  /// Above-threshold cell changes, largest |delta| first.
  std::vector<CellDelta> cells;
  /// Properties with at least one changed cell or a changed total.
  std::vector<PropertyDelta> properties;
  std::vector<std::string> defects_added;
  std::vector<std::string> defects_removed;
  /// The wait-state leaf property whose total regressed the most; empty
  /// when nothing regressed.  Overhead-class properties never attribute.
  std::string attribution;

  /// No cell changes and no defect-set changes.
  bool empty() const;
  /// Something got worse: a severity increase/appearance or a new defect.
  bool regression() const;
};

DiffResult diff_snapshots(const Snapshot& a, const Snapshot& b,
                          DiffOptions opt = {});

// ------------------------------------------------------------- sweep diffs

/// One experiment-grid cell compared across two sweeps, keyed by the axis
/// value.  Missing-side severities read as zero with kAdded/kRemoved kind.
struct RowDelta {
  std::string value;
  double a_sec = 0.0;
  double b_sec = 0.0;
  bool in_a = false;
  bool in_b = false;
  bool changed = false;  ///< delta cleared the floors (or one side missing)
  bool outcome_changed = false;  ///< run outcome class differs

  double delta() const { return b_sec - a_sec; }
  double rel() const;
};

/// Diffs two sweeps row-by-row (the service `diff` verb's engine): rows
/// pair by axis value, in A's order with B-only values appended.
std::vector<RowDelta> diff_rows(const std::vector<gen::ExperimentRow>& a,
                                const std::vector<gen::ExperimentRow>& b,
                                DiffOptions opt = {});

// ------------------------------------------------------------ corpus diffs

/// One golden-corpus entry (a `<name>.expected` severity file and/or a
/// `<name>.defects` report) compared across two directories.
struct CorpusEntryDiff {
  std::string name;
  bool missing_in_a = false;  ///< B has files for this entry, A does not
  bool missing_in_b = false;
  DiffResult diff;
};

struct CorpusDiff {
  std::vector<CorpusEntryDiff> entries;  ///< sorted by name
  std::size_t entries_compared = 0;

  /// Every entry present on both sides and empty-diffing.
  bool clean() const;
  /// Something regressed: a missing entry or an entry-level regression.
  bool regression() const;
};

/// Diffs two golden-corpus directories (tests/golden layout: *.expected
/// severity CSVs, *.defects reports).  Throws ats::Error when a directory
/// cannot be read.
CorpusDiff diff_corpus(const std::string& dir_a, const std::string& dir_b,
                       DiffOptions opt = {});

// -------------------------------------------------------------- rendering

/// Human-readable report mirroring trace_analyze's pane style.
std::string render_text(const DiffResult& d, const std::string& label_a,
                        const std::string& label_b);

/// Machine-readable rows:
///   property,call_path,location,a_sec,b_sec,delta_sec,rel,kind
std::string diff_csv(const DiffResult& d);

/// CUBE-flavoured XML mirroring trace_analyze's --xml output.
std::string diff_xml(const DiffResult& d, const std::string& label_a,
                     const std::string& label_b);

std::string render_corpus_text(const CorpusDiff& c, const std::string& label_a,
                               const std::string& label_b);

/// Corpus CSV: the diff_csv schema with a leading `entry` column; missing
/// entries render one row with kind missing_in_a / missing_in_b.
std::string corpus_csv(const CorpusDiff& c);

std::string corpus_xml(const CorpusDiff& c, const std::string& label_a,
                       const std::string& label_b);

}  // namespace ats::diff
