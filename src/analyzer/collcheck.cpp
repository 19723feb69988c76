#include "analyzer/collcheck.hpp"

#include <algorithm>
#include <map>

namespace ats::analyze {

const char* to_string(DefectKind k) {
  switch (k) {
    case DefectKind::kOperationMismatch: return "operation-mismatch";
    case DefectKind::kRootMismatch: return "root-mismatch";
    case DefectKind::kReduceOpMismatch: return "reduce-op-mismatch";
    case DefectKind::kMissingCall: return "missing-call";
    case DefectKind::kUnfinishedCollective: return "unfinished-collective";
  }
  return "?";
}

namespace {

/// Renders a sorted rank list as "{0,2,4}"; long lists are elided so a
/// 100k-rank defect still reports in one line.
std::string rank_list(std::vector<int> ranks) {
  std::sort(ranks.begin(), ranks.end());
  constexpr std::size_t kShown = 8;
  std::string out = "{";
  for (std::size_t i = 0; i < ranks.size() && i < kShown; ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ranks[i]);
  }
  if (ranks.size() > kShown) {
    out += ",+" + std::to_string(ranks.size() - kShown) + " more";
  }
  out += '}';
  return out;
}

/// "rank 2" when the root location is a member of the communicator (the
/// normal case), "loc 7" when a corrupted record points elsewhere, "none"
/// for unrooted calls.
std::string root_str(const trace::CommInfo& comm, std::int32_t root_loc) {
  if (root_loc == trace::kNone) return "none";
  for (std::size_t r = 0; r < comm.members.size(); ++r) {
    if (comm.members[r] == root_loc) {
      return "rank " + std::to_string(r);
    }
  }
  return "loc " + std::to_string(root_loc);
}

/// "ranks {0,2} <verb> <value a>, ranks {1,3} <verb> <value b>" for any
/// per-participant discriminator; groups are emitted in value order.
template <typename Value, typename Get, typename Render>
std::string by_value(const std::vector<DefectParticipant>& ps,
                     const char* verb, Get get, Render render) {
  std::map<Value, std::vector<int>> groups;
  for (const DefectParticipant& p : ps) {
    groups[get(p)].push_back(p.comm_rank);
  }
  std::string out;
  for (auto& [value, ranks] : groups) {
    if (!out.empty()) out += ", ";
    out += "ranks " + rank_list(std::move(ranks)) + " " + verb + " " +
           render(value);
  }
  return out;
}

}  // namespace

std::string StructuralDefect::describe(const trace::Trace& t) const {
  const trace::CommInfo& ci = t.comm(comm);
  std::string out = std::string(to_string(kind)) + " '" + ci.name +
                    "' call #" + std::to_string(call_index);
  switch (kind) {
    case DefectKind::kOperationMismatch:
      // No representative op in the header: the ops are the disagreement.
      out += ": " + by_value<trace::CollOp>(
                        participants, "called",
                        [](const DefectParticipant& p) { return p.op; },
                        [](trace::CollOp o) {
                          return std::string(trace::to_string(o));
                        });
      break;
    case DefectKind::kRootMismatch:
      out += " (" + std::string(trace::to_string(op)) + "): " +
             by_value<std::int32_t>(
                 participants, "used root",
                 [](const DefectParticipant& p) { return p.root; },
                 [&](std::int32_t r) { return root_str(ci, r); });
      break;
    case DefectKind::kReduceOpMismatch:
      out += " (" + std::string(trace::to_string(op)) + "): " +
             by_value<std::int32_t>(
                 participants, "used",
                 [](const DefectParticipant& p) { return p.rop; },
                 [](std::int32_t r) {
                   return std::string(trace::reduce_op_name(r));
                 });
      break;
    case DefectKind::kMissingCall: {
      std::vector<int> called;
      for (const DefectParticipant& p : participants) {
        called.push_back(p.comm_rank);
      }
      out += " (" + std::string(trace::to_string(op)) + "): ranks " +
             rank_list(std::move(called)) + " called, ranks " +
             rank_list(missing) + " never called";
      break;
    }
    case DefectKind::kUnfinishedCollective: {
      std::vector<int> stuck;
      for (const DefectParticipant& p : participants) {
        if (!p.completed) stuck.push_back(p.comm_rank);
      }
      out += " (" + std::string(trace::to_string(op)) + "): ranks " +
             rank_list(std::move(stuck)) + " entered but never completed";
      break;
    }
  }
  return out;
}

// --------------------------------------------------------- CollectiveChecker

CollectiveChecker::CollectiveChecker(const trace::Trace& trace)
    : trace_(trace) {
  groups_.reserve(trace.location_count());
}

int CollectiveChecker::rank_in_comm(trace::CommId comm, trace::LocId loc) {
  auto [it, inserted] = rank_maps_.try_emplace(comm);
  if (inserted) {
    const trace::CommInfo& info = trace_.comm(comm);
    it->second.reserve(info.members.size());
    for (std::size_t r = 0; r < info.members.size(); ++r) {
      it->second.emplace(info.members[r], static_cast<int>(r));
    }
  }
  const auto rit = it->second.find(loc);
  return rit == it->second.end() ? -1 : rit->second;
}

DefectParticipant* CollectiveChecker::participant(Group& g, int rank,
                                                  trace::LocId loc) {
  if (rank >= 0) {
    if (static_cast<std::size_t>(rank) >= g.by_rank.size()) return nullptr;
    const std::int32_t i = g.by_rank[static_cast<std::size_t>(rank)];
    return i < 0 ? nullptr : &g.participants[static_cast<std::size_t>(i)];
  }
  for (const std::size_t i : g.outsiders) {
    if (g.participants[i].loc == loc) return &g.participants[i];
  }
  return nullptr;
}

void CollectiveChecker::on_begin(const trace::Event& e) {
  Group& g = groups_[GroupKey{e.comm, e.seq}];
  const int rank = rank_in_comm(e.comm, e.loc);
  // A location records one begin per instance; more is a corrupted trace.
  if (participant(g, rank, e.loc) != nullptr) return;
  const std::size_t index = g.participants.size();
  if (rank >= 0) {
    if (g.by_rank.empty()) {
      g.by_rank.assign(trace_.comm(e.comm).members.size(), -1);
    }
    g.by_rank[static_cast<std::size_t>(rank)] =
        static_cast<std::int32_t>(index);
  } else {
    g.outsiders.push_back(index);
  }
  DefectParticipant p;
  p.loc = e.loc;
  p.comm_rank = rank;
  p.call_index = e.seq;
  p.op = e.op;
  p.root = e.root;
  p.rop = e.tag;
  if (!g.participants.empty()) {
    // Pairwise disagreement always includes a disagreement with the first
    // arriver, so comparing against it alone is sufficient.
    const DefectParticipant& first = g.participants.front();
    if (first.op != p.op) g.ops_differ = true;
    if (first.root != p.root) g.roots_differ = true;
    if (first.rop != p.rop) g.rops_differ = true;
  }
  g.participants.push_back(p);
}

void CollectiveChecker::on_end(const trace::Event& e) {
  const auto it = groups_.find(GroupKey{e.comm, e.seq});
  if (it == groups_.end()) return;  // no begins: OMP team or legacy trace
  Group& g = it->second;
  DefectParticipant* p = participant(g, rank_in_comm(e.comm, e.loc), e.loc);
  if (p != nullptr && !p->completed) {
    p->completed = true;
    ++g.done;
  }
  // Retire structurally sound, fully attended, fully completed instances;
  // on clean traces every group dies here and finish() sees nothing.
  if (!g.ops_differ && !g.roots_differ && !g.rops_differ) {
    const std::size_t expected = trace_.comm(e.comm).members.size();
    if (g.participants.size() == expected && g.done == expected) {
      groups_.erase(it);
    }
  }
}

std::vector<StructuralDefect> CollectiveChecker::finish() {
  std::vector<StructuralDefect> out;
  out.reserve(groups_.size());
  for (auto& [key, g] : groups_) {
    const std::size_t expected =
        trace_.comm(key.comm).members.size();
    StructuralDefect d;
    d.comm = key.comm;
    d.call_index = key.seq;
    d.op = g.participants.front().op;
    if (g.ops_differ) {
      d.kind = DefectKind::kOperationMismatch;
    } else if (g.roots_differ) {
      d.kind = DefectKind::kRootMismatch;
    } else if (g.rops_differ) {
      d.kind = DefectKind::kReduceOpMismatch;
    } else if (g.participants.size() < expected) {
      d.kind = DefectKind::kMissingCall;
    } else {
      d.kind = DefectKind::kUnfinishedCollective;
    }
    if (g.participants.size() < expected) {
      std::vector<bool> called(expected, false);
      for (const DefectParticipant& p : g.participants) {
        if (p.comm_rank >= 0 &&
            static_cast<std::size_t>(p.comm_rank) < expected) {
          called[static_cast<std::size_t>(p.comm_rank)] = true;
        }
      }
      for (std::size_t r = 0; r < expected; ++r) {
        if (!called[r]) d.missing.push_back(static_cast<int>(r));
      }
    }
    d.participants = std::move(g.participants);
    std::sort(d.participants.begin(), d.participants.end(),
              [](const DefectParticipant& a, const DefectParticipant& b) {
                return a.comm_rank != b.comm_rank
                           ? a.comm_rank < b.comm_rank
                           : a.loc < b.loc;
              });
    out.push_back(std::move(d));
  }
  groups_.clear();
  std::sort(out.begin(), out.end(),
            [](const StructuralDefect& a, const StructuralDefect& b) {
              return a.comm != b.comm ? a.comm < b.comm
                                      : a.call_index < b.call_index;
            });
  return out;
}

}  // namespace ats::analyze
