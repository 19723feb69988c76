#include "diff/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::diff {

Snapshot Snapshot::from_cube(const analyze::AnalysisResult& result,
                             const trace::Trace& trace) {
  Snapshot s;
  for (std::size_t l = 0; l < result.cube.location_count(); ++l) {
    s.locations.push_back(trace.location(static_cast<trace::LocId>(l)).name);
  }
  std::vector<std::pair<analyze::PropertyId, analyze::NodeId>> keys;
  for (analyze::PropertyId p : analyze::property_preorder()) {
    for (analyze::NodeId n : result.cube.nodes_of(p)) keys.emplace_back(p, n);
  }
  // At most every location of every row, the cube's own dense size, in
  // one allocation: regrowing the cells instead doubled severity_csv at
  // 8192 locations with four threads at work.
  s.cells.reserve(keys.size() * result.cube.location_count());
  for (const auto& [p, n] : keys) {
    const std::span<const VDur> per_loc = result.cube.locations_of(p, n);
    const auto begin = static_cast<std::uint32_t>(s.cells.size());
    for (std::size_t l = 0; l < per_loc.size(); ++l) {
      if (per_loc[l] > VDur::zero()) {
        s.cells.push_back({static_cast<std::uint32_t>(l), per_loc[l].sec()});
      }
    }
    if (s.cells.size() == begin) continue;
    s.rows.push_back({s.intern(analyze::property_name(p)),
                      s.intern(result.profile.path_string(n, trace)), begin,
                      static_cast<std::uint32_t>(s.cells.size())});
  }
  return s;
}

Snapshot Snapshot::from_result(const analyze::AnalysisResult& result,
                               const trace::Trace& trace) {
  Snapshot s = from_cube(result, trace);
  for (const auto& defect : result.defects) {
    s.defects.push_back(defect.describe(trace));
  }
  return s;
}

Snapshot Snapshot::from_severity_csv(const std::string& text) {
  Snapshot s;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kSeverityCsvHeader) {
    throw UsageError("severity CSV: expected header '" +
                     std::string(kSeverityCsvHeader) + "', got '" + line +
                     "'");
  }
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // Call paths could in principle contain commas; property, location and
    // severity never do, so the call path is everything between the first
    // comma and the second-to-last one.
    const std::size_t first = line.find(',');
    const std::size_t last = line.rfind(',');
    const std::size_t second_last =
        last == std::string::npos || last == 0 ? std::string::npos
                                               : line.rfind(',', last - 1);
    if (second_last == std::string::npos || second_last <= first) {
      throw UsageError(
          "severity CSV line " + std::to_string(lineno) +
          ": expected 4 fields, got " +
          std::to_string(std::count(line.begin(), line.end(), ',') + 1));
    }
    const std::string_view row(line);
    // The whole field must be one finite decimal: no blanks, hex floats,
    // trailing garbage, nan or inf.
    const std::string_view seconds = row.substr(last + 1);
    double severity_sec = 0.0;
    const auto [end, ec] = std::from_chars(
        seconds.data(), seconds.data() + seconds.size(), severity_sec);
    if (ec != std::errc() || end != seconds.data() + seconds.size() ||
        !std::isfinite(severity_sec)) {
      throw UsageError("severity CSV line " + std::to_string(lineno) +
                       ": bad severity '" + std::string(seconds) + "'");
    }
    s.add(row.substr(0, first), row.substr(first + 1, second_last - first - 1),
          row.substr(second_last + 1, last - second_last - 1), severity_sec);
  }
  return s;
}

std::string Snapshot::severity_csv() const {
  std::string out(kSeverityCsvHeader);
  out += '\n';
  // Three commas, a newline and "0.000000000" besides the three names.
  std::size_t bytes = out.size() + 15 * cells.size();
  for (const SnapshotRow& row : rows) {
    bytes += (row.end - row.begin) *
             (name(row.property).size() + name(row.call_path).size());
  }
  for (const SnapshotCell& c : cells) bytes += locations[c.location].size();
  out.reserve(bytes);
  for (const SnapshotRow& row : rows) {
    for (std::uint32_t i = row.begin; i < row.end; ++i) {
      append_severity_row(out, name(row.property), name(row.call_path),
                          locations[cells[i].location], cells[i].severity_sec);
    }
  }
  return out;
}

void Snapshot::add(std::string_view property, std::string_view call_path,
                   std::string_view location, double severity_sec) {
  if (rows.empty() || name(rows.back().property) != property ||
      name(rows.back().call_path) != call_path) {
    const std::uint32_t p = intern(property);
    const std::uint32_t c = intern(call_path);
    const auto at = static_cast<std::uint32_t>(cells.size());
    rows.push_back({p, c, at, at});
  }
  const auto [it, added] = location_index_.try_emplace(
      std::string(location), static_cast<std::uint32_t>(locations.size()));
  if (added) locations.emplace_back(location);
  cells.push_back({it->second, severity_sec});
  rows.back().end = static_cast<std::uint32_t>(cells.size());
}

std::uint32_t Snapshot::intern(std::string_view name) {
  if (const auto it = index_.find(name); it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

}  // namespace ats::diff
