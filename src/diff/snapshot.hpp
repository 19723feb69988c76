// Severity snapshots (docs/DIFF.md "snapshot model"): the rows of an
// analysis's severity cube in stable report order, their location table
// and defect lines.  The one writer of the severity CSV lives here, below
// both the report layer (report::severity_csv) and the differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "trace/trace.hpp"

namespace ats::diff {

/// One severity entry: a location id into the owning Snapshot's location
/// table and that location's severity.
struct SnapshotCell {
  std::uint32_t location = 0;
  double severity_sec = 0.0;
};

/// One (property, call path) row: the cells [begin, end) of the owning
/// Snapshot, in report order.  Property and call path are ids into the
/// Snapshot's name table.
struct SnapshotRow {
  std::uint32_t property = 0;
  std::uint32_t call_path = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// A diffable view of one analysis: severity rows in stable report order,
/// the location table their cells index, and the structural-defect report
/// lines.  A cell's identity is its (property, call path, location) display
/// triple, whether it came from a live AnalysisResult or from a severity
/// CSV.  The location table may hold one display name under several ids
/// (hybrid traces reuse "rank R thread T" across parallel regions); a diff
/// sums such cells into one logical cell.
class Snapshot {
 public:
  std::string label;  ///< provenance shown in reports ("a", a file name, ...)
  std::vector<SnapshotRow> rows;
  std::vector<SnapshotCell> cells;     ///< one per severity CSV row, by row
  std::vector<std::string> locations;  ///< display name by location id
  std::vector<std::string> defects;    ///< StructuralDefect::describe lines

  /// The severity rows of a live analysis: one row per (property,
  /// call-path node) of the cube, copied from SeverityCube::locations_of,
  /// over the trace's location names.  No defect lines.
  static Snapshot from_cube(const analyze::AnalysisResult& result,
                            const trace::Trace& trace);

  /// from_cube plus the analysis's defect lines.
  static Snapshot from_result(const analyze::AnalysisResult& result,
                              const trace::Trace& trace);

  /// Parses report::severity_csv text (e.g. a checked-in golden
  /// `.expected` file) through add().  Throws ats::UsageError on a foreign
  /// header or a malformed row.
  static Snapshot from_severity_csv(const std::string& text);

  /// The severity CSV of the rows in order; from_severity_csv round-trips
  /// through this byte for byte.
  std::string severity_csv() const;

  /// Appends a cell to the last row when that row has this property and
  /// call path, else to a new row.  add() numbers locations by display
  /// name, appending a name it has not given an id yet to `locations`.
  void add(std::string_view property, std::string_view call_path,
           std::string_view location, double severity_sec);

  /// Id of a property or call-path `name` in the name table; appended
  /// when new.
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t name_count() const { return names_.size(); }

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Index =
      std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;
  std::vector<std::string> names_;  ///< the name table, first-seen order
  Index index_;
  Index location_index_;  ///< add()'s location ids by display name
};

}  // namespace ats::diff
