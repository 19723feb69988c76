// Call-path profile extracted from a trace.
//
// Nodes form a tree keyed by (parent, region); node 0 is a virtual root.
// Metrics are kept per (node, location): inclusive time and visit counts.
// Exclusive time is derived.  This is the middle pane of an EXPERT-style
// presentation and the coordinate system for severity attribution.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/vtime.hpp"
#include "trace/trace.hpp"

namespace ats::analyze {

using NodeId = std::int32_t;
inline constexpr NodeId kRootNode = 0;

struct CpNode {
  NodeId id = kRootNode;
  NodeId parent = -1;           ///< -1 for the root
  trace::RegionId region = trace::kNone;  ///< kNone for the root
  std::vector<NodeId> children;
};

class CallPathProfile {
 public:
  explicit CallPathProfile(std::size_t nlocs);

  /// Finds or creates the child of `parent` with `region`.
  NodeId child(NodeId parent, trace::RegionId region);
  /// Finds without creating; -1 when absent.
  NodeId find_child(NodeId parent, trace::RegionId region) const;

  const CpNode& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t location_count() const { return nlocs_; }

  void add_inclusive(NodeId n, trace::LocId loc, VDur d);
  void add_visit(NodeId n, trace::LocId loc);

  VDur inclusive(NodeId n, trace::LocId loc) const;
  /// inclusive() of node `n` for every location, indexed by LocId.
  std::span<const VDur> inclusive_row(NodeId n) const;
  VDur inclusive_total(NodeId n) const;
  std::uint64_t visits(NodeId n, trace::LocId loc) const;
  std::uint64_t visits_total(NodeId n) const;
  /// Inclusive minus the children's inclusive time.
  VDur exclusive(NodeId n, trace::LocId loc) const;
  VDur exclusive_total(NodeId n) const;

  /// "a > b > c" path rendering using the trace's region names.
  std::string path_string(NodeId n, const trace::Trace& trace) const;
  /// path_string of every node, indexed by NodeId, built in one pass.
  std::vector<std::string> path_strings(const trace::Trace& trace) const;
  /// Region name of the node itself ("<root>" for the root).
  std::string name_of(NodeId n, const trace::Trace& trace) const;

  /// Node `n` becomes node `new_id[n]`, with its metrics.  `new_id` is a
  /// permutation that keeps the root at 0 and numbers every parent below
  /// its children; each children list ends up sorted by id.
  void renumber(std::span<const NodeId> new_id);

  /// Depth-first (pre-order) walk of the tree.
  void preorder(const std::function<void(NodeId, int depth)>& visit) const;

 private:
  std::size_t idx(NodeId n, trace::LocId loc) const;

  std::size_t nlocs_;
  std::vector<CpNode> nodes_;
  std::vector<VDur> incl_;          // node-major [node][loc]
  std::vector<std::uint64_t> visits_;
};

}  // namespace ats::analyze
