#include "analyzer/profile.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"

namespace ats::analyze {

CallPathProfile::CallPathProfile(std::size_t nlocs) : nlocs_(nlocs) {
  CpNode root;
  root.id = kRootNode;
  nodes_.push_back(root);
  incl_.assign(nlocs_, VDur::zero());
  visits_.assign(nlocs_, 0);
}

NodeId CallPathProfile::child(NodeId parent, trace::RegionId region) {
  const NodeId found = find_child(parent, region);
  if (found >= 0) return found;
  CpNode n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.parent = parent;
  n.region = region;
  nodes_[static_cast<std::size_t>(parent)].children.push_back(n.id);
  nodes_.push_back(n);
  incl_.resize(incl_.size() + nlocs_, VDur::zero());
  visits_.resize(visits_.size() + nlocs_, 0);
  return nodes_.back().id;
}

NodeId CallPathProfile::find_child(NodeId parent,
                                   trace::RegionId region) const {
  for (NodeId c : nodes_[static_cast<std::size_t>(parent)].children) {
    if (nodes_[static_cast<std::size_t>(c)].region == region) return c;
  }
  return -1;
}

void CallPathProfile::renumber(std::span<const NodeId> new_id) {
  const auto to = [&](NodeId n) { return new_id[static_cast<std::size_t>(n)]; };
  for (CpNode& nd : nodes_) {
    nd.id = to(nd.id);
    if (nd.parent >= 0) nd.parent = to(nd.parent);
    for (NodeId& c : nd.children) c = to(c);
    std::sort(nd.children.begin(), nd.children.end());
  }
  // Swap each node, with its metric rows, into place along the cycles of
  // the permutation; no second copy of the metrics.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (auto j = static_cast<std::size_t>(nodes_[i].id); j != i;
         j = static_cast<std::size_t>(nodes_[i].id)) {
      std::swap(nodes_[i], nodes_[j]);
      std::swap_ranges(incl_.begin() + i * nlocs_,
                       incl_.begin() + (i + 1) * nlocs_,
                       incl_.begin() + j * nlocs_);
      std::swap_ranges(visits_.begin() + i * nlocs_,
                       visits_.begin() + (i + 1) * nlocs_,
                       visits_.begin() + j * nlocs_);
    }
  }
}

const CpNode& CallPathProfile::node(NodeId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
          "CallPathProfile: bad node id");
  return nodes_[static_cast<std::size_t>(id)];
}

std::size_t CallPathProfile::idx(NodeId n, trace::LocId loc) const {
  require(loc >= 0 && static_cast<std::size_t>(loc) < nlocs_,
          "CallPathProfile: bad location");
  return static_cast<std::size_t>(n) * nlocs_ +
         static_cast<std::size_t>(loc);
}

void CallPathProfile::add_inclusive(NodeId n, trace::LocId loc, VDur d) {
  incl_[idx(n, loc)] += d;
}

void CallPathProfile::add_visit(NodeId n, trace::LocId loc) {
  ++visits_[idx(n, loc)];
}

VDur CallPathProfile::inclusive(NodeId n, trace::LocId loc) const {
  return incl_[idx(n, loc)];
}

std::span<const VDur> CallPathProfile::inclusive_row(NodeId n) const {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "CallPathProfile: bad node id");
  return std::span<const VDur>(incl_).subspan(
      static_cast<std::size_t>(n) * nlocs_, nlocs_);
}

VDur CallPathProfile::inclusive_total(NodeId n) const {
  VDur sum = VDur::zero();
  for (std::size_t l = 0; l < nlocs_; ++l) {
    sum += incl_[static_cast<std::size_t>(n) * nlocs_ + l];
  }
  return sum;
}

std::uint64_t CallPathProfile::visits(NodeId n, trace::LocId loc) const {
  return visits_[idx(n, loc)];
}

std::uint64_t CallPathProfile::visits_total(NodeId n) const {
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < nlocs_; ++l) {
    sum += visits_[static_cast<std::size_t>(n) * nlocs_ + l];
  }
  return sum;
}

VDur CallPathProfile::exclusive(NodeId n, trace::LocId loc) const {
  VDur d = inclusive(n, loc);
  for (NodeId c : node(n).children) d -= inclusive(c, loc);
  return d;
}

VDur CallPathProfile::exclusive_total(NodeId n) const {
  VDur d = inclusive_total(n);
  for (NodeId c : node(n).children) d -= inclusive_total(c);
  return d;
}

std::string CallPathProfile::name_of(NodeId n,
                                     const trace::Trace& trace) const {
  const CpNode& nd = node(n);
  if (nd.region == trace::kNone) return "<root>";
  return trace.regions().info(nd.region).name;
}

std::string CallPathProfile::path_string(NodeId n,
                                         const trace::Trace& trace) const {
  if (n == kRootNode) return "<root>";
  std::vector<std::string> parts;
  for (NodeId cur = n; cur != kRootNode; cur = node(cur).parent) {
    parts.push_back(name_of(cur, trace));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += " > ";
    out += *it;
  }
  return out;
}

std::vector<std::string> CallPathProfile::path_strings(
    const trace::Trace& trace) const {
  std::vector<std::string> out(nodes_.size());
  out[kRootNode] = "<root>";
  // child() numbers nodes in creation order, so a parent's id is always
  // below its child's and the parent's path is ready when the child needs it.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const CpNode& nd = nodes_[i];
    std::string& path = out[i];
    if (nd.parent != kRootNode) {
      path = out[static_cast<std::size_t>(nd.parent)];
      path += " > ";
    }
    path += trace.regions().info(nd.region).name;
  }
  return out;
}

void CallPathProfile::preorder(
    const std::function<void(NodeId, int)>& visit) const {
  std::function<void(NodeId, int)> walk = [&](NodeId n, int depth) {
    visit(n, depth);
    for (NodeId c : node(n).children) walk(c, depth + 1);
  };
  walk(kRootNode, 0);
}

}  // namespace ats::analyze
