// The automatic performance analyzer (the "tool under test").
//
// Reimplements the trace-analysis pipeline of tools like EXPERT: a replay
// of the trace builds a call-path profile, reconstructs message matching,
// groups collective instances, and quantifies wait-state patterns into a
// severity cube (property × call path × location).  It walks each location
// alone, then only the communication records in merged time order
// (DESIGN.md §6).  The analyzer sees only trace events — none of the
// simulator's internal wait bookkeeping — so ATS property tests genuinely
// exercise the detection logic.
#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analyzer/collcheck.hpp"
#include "analyzer/profile.hpp"
#include "analyzer/property.hpp"
#include "common/vtime.hpp"
#include "trace/trace.hpp"

namespace ats::analyze {

/// Severity cube: property × call-path node × location -> accumulated time.
class SeverityCube {
 public:
  SeverityCube(std::size_t nlocs);

  /// Adds `d` to one cell entry; non-positive `d` is ignored and creates
  /// no cell.
  void add(PropertyId p, NodeId n, trace::LocId loc, VDur d);
  /// add() for every location at once: `per_loc[l]` goes to location l,
  /// with one cell lookup for the whole row.
  void add_row(PropertyId p, NodeId n, std::span<const VDur> per_loc);

  VDur at(PropertyId p, NodeId n, trace::LocId loc) const;
  /// Sum over locations for one (property, node).
  VDur node_total(PropertyId p, NodeId n) const;
  /// Sum over nodes and locations for one property (without descendants).
  VDur total(PropertyId p) const;
  /// total() plus all descendant properties.
  VDur subtree_total(PropertyId p) const;
  /// Nodes with non-zero severity for `p`, in node order.
  std::vector<NodeId> nodes_of(PropertyId p) const;
  /// Per-location severities for (property, node), one per location (all
  /// zero when the cell is absent).  Valid while the cube is unchanged.
  std::span<const VDur> locations_of(PropertyId p, NodeId n) const;

  /// Visits every positive (property, node, location) cell in the *stable
  /// report order* — property pre-order, then node id ascending, then
  /// location id ascending.  This order is the diffing contract:
  /// diff::Snapshot::from_cube builds its rows in it (from nodes_of and
  /// locations_of, a row at a time) and writes the severity CSV from
  /// them, so two analyses of the same trace serialise identically byte
  /// for byte (docs/DIFF.md).
  void for_each(
      const std::function<void(PropertyId, NodeId, trace::LocId, VDur)>& fn)
      const;

  std::size_t location_count() const { return nlocs_; }

 private:
  struct Cell {
    NodeId node;
    std::vector<VDur> per_loc;
  };
  const Cell* find_cell(PropertyId p, NodeId n) const;
  /// Per-location row of (p, n), created zeroed on first use.
  std::vector<VDur>& row(PropertyId p, NodeId n);

  std::size_t nlocs_;
  // One sparse (node -> per-loc) list per property; cell order is first-add
  // order (it feeds nodes_of(), which sorts, so lookups never scan).
  std::vector<std::vector<Cell>> cells_;
  // node -> position in cells_[p], one index per property.  The replay adds
  // one severity entry per *event*, so without the index add() is a linear
  // scan per event (O(cells) each) on hot traces.
  std::vector<std::unordered_map<NodeId, std::uint32_t>> index_;
  std::vector<VDur> zeros_;  // locations_of() of an absent cell
};

/// One ranked result: a leaf wait-state with its total severity.
struct Finding {
  PropertyId prop = PropertyId::kTotal;
  /// Call-path node carrying the largest share of the severity.
  NodeId node = kRootNode;
  VDur severity;
  /// Fraction of total execution time.
  double fraction = 0.0;
};

struct AnalyzerOptions {
  /// Leaf properties below this fraction of total time are not reported.
  double threshold = 0.005;
  /// Fault injection for tool testing: wait-state patterns in this list are
  /// silently skipped, emulating a defective analyzer.  The ATS detection
  /// matrix must then report the corresponding property functions as
  /// MISSED — demonstrating that the suite catches broken tools (the
  /// paper's core motivation).
  std::vector<PropertyId> disabled_patterns;
  /// Degrade gracefully on malformed traces instead of throwing: unbalanced
  /// exits are repaired or dropped (and counted in DataQuality), events
  /// referencing unknown regions/comms are skipped.  Strict (the default)
  /// preserves the historical throw-on-inconsistency behaviour that the
  /// unit tests pin.  Recovery policy: DESIGN.md §7.
  bool lenient = false;
  /// Runs the collective-correctness checker (collcheck.hpp) during the
  /// replay and attaches its structural defects to the result.  On by
  /// default: the checker is silent on structurally sound traces and its
  /// cost is bounded by the number of concurrently open collectives
  /// (DESIGN.md §13, docs/DEFECTS.md).
  bool check_collectives = true;

  /// disabled_patterns as a bitset, computed once per analysis so the
  /// per-event replay checks are a single bit test instead of a std::find.
  std::bitset<kPropertyCount> disabled_mask() const;
};

/// Degradation summary attached to every AnalysisResult: what the replay
/// saw, what it had to drop or repair, and whether the trace shows signs of
/// clock skew.  All counters are populated in both strict and lenient mode
/// (strict throws before some of them can become non-zero).
struct DataQuality {
  std::size_t events_seen = 0;     ///< events replayed
  std::size_t events_dropped = 0;  ///< events skipped as unusable
  std::size_t events_repaired = 0; ///< regions closed synthetically
  std::size_t unbalanced_exits = 0;      ///< exit without matching enter
  std::size_t unmatched_sends = 0;       ///< sends no receive consumed
  std::size_t unmatched_recvs = 0;       ///< receives with no send record
  std::size_t incomplete_collectives = 0;  ///< groups missing participants
  std::size_t negative_waits_clamped = 0;  ///< wait intervals clamped to 0
  std::size_t skewed_messages = 0;  ///< receive completed before its send
  std::size_t unsorted_locations = 0;  ///< per-loc buffers out of time order
  bool clock_skew_detected = false;

  /// True when the trace replayed without any anomaly.
  bool clean() const;
};

struct AnalysisResult {
  CallPathProfile profile;
  SeverityCube cube;
  /// Sum over locations of (last event - first event).
  VDur total_time;
  /// Ranked findings (desc. severity), leaves above threshold only.
  std::vector<Finding> findings;
  /// Trace-health summary (see DataQuality).
  DataQuality quality;
  /// Structural collective-correctness defects, sorted by (communicator,
  /// call index); empty on structurally sound traces and whenever
  /// AnalyzerOptions::check_collectives is off.  Defects are reported
  /// alongside — never inside — the severity cube, so severity output is
  /// byte-identical with the checker on or off.
  std::vector<StructuralDefect> defects;

  /// Highest-severity wait state; by default ignores overhead-class
  /// properties (init/finalize) so the injected property dominates.
  std::optional<Finding> dominant(bool include_overhead = false) const;
  /// Severity fraction of one property (subtree), relative to total time.
  double severity_fraction(PropertyId p) const;
};

/// Runs the full analysis over a trace.
AnalysisResult analyze(const trace::Trace& trace, AnalyzerOptions options = {});

}  // namespace ats::analyze
