#include "report/cube_view.hpp"

#include <algorithm>
#include <sstream>

#include "common/strutil.hpp"
#include "diff/snapshot.hpp"

namespace ats::report {

namespace {

using analyze::AnalysisResult;
using analyze::NodeId;
using analyze::PropertyId;

std::string percent_of(VDur part, VDur whole) {
  if (whole <= VDur::zero()) return "   -  ";
  return pad_left(fmt_percent(part / whole, 1), 6);
}

/// Appends pad_left(d.str(), width) without the temporaries.
void append_dur(std::string& out, VDur d, std::size_t width) {
  const std::size_t from = out.size();
  d.append_to(out);
  right_align(out, from, width);
}

}  // namespace

std::string render_property_tree(const AnalysisResult& result,
                                 const trace::Trace& trace) {
  (void)trace;
  std::string out = "performance properties" + pad_left("severity", 24) +
                    pad_left("share", 8) + "\n" + repeat('-', 60) + "\n";
  for (PropertyId p : analyze::property_preorder()) {
    const VDur sev = p == PropertyId::kTotal ? result.total_time
                                             : result.cube.total(p);
    if (p != PropertyId::kTotal && sev <= VDur::zero()) continue;
    const int depth = analyze::property_depth(p);
    std::string label = repeat(' ', static_cast<std::size_t>(2 * depth));
    label += analyze::property_name(p);
    append_pad_right(out, label, 34);
    append_dur(out, sev, 12);
    out += "  " + percent_of(sev, result.total_time) + "\n";
  }
  return out;
}

std::string render_property_detail(const AnalysisResult& result,
                                   const trace::Trace& trace,
                                   PropertyId prop) {
  std::string out = "property: ";
  out += analyze::property_name(prop);
  out += " — ";
  out += analyze::property_info(prop).description;
  out += "\n";
  const auto nodes = result.cube.nodes_of(prop);
  if (nodes.empty()) return out + "  (no severity recorded)\n";
  out += "  call paths:\n";
  NodeId heaviest = nodes.front();
  VDur heaviest_sev = VDur::zero();
  for (NodeId n : nodes) {
    const VDur sev = result.cube.node_total(prop, n);
    out += "    " + pad_right(result.profile.path_string(n, trace), 52);
    append_dur(out, sev, 12);
    out += percent_of(sev, result.total_time) + "\n";
    if (sev > heaviest_sev) {
      heaviest_sev = sev;
      heaviest = n;
    }
  }
  out += "  locations of '" + result.profile.path_string(heaviest, trace) +
         "':\n";
  // One 41-byte line per location with a severity (wider only when a name
  // or duration overflows its column): the bulk of a large report.
  const auto locs = result.cube.locations_of(prop, heaviest);
  const auto shown = std::count_if(locs.begin(), locs.end(),
                                   [](VDur d) { return d > VDur::zero(); });
  out.reserve(out.size() + 41 * static_cast<std::size_t>(shown));
  for (std::size_t l = 0; l < locs.size(); ++l) {
    if (locs[l] <= VDur::zero()) continue;
    out += "    ";
    append_pad_right(out, trace.location(static_cast<trace::LocId>(l)).name,
                     24);
    append_dur(out, locs[l], 12);
    out += '\n';
  }
  return out;
}

std::string render_findings(const AnalysisResult& result,
                            const trace::Trace& trace) {
  std::string out = pad_right("finding", 30) + pad_left("severity", 12) +
                    pad_left("share", 8) + "  dominant call path\n" +
                    repeat('-', 92) + "\n";
  if (result.findings.empty()) {
    return out + "(no performance property above threshold — well-tuned)\n";
  }
  for (const auto& f : result.findings) {
    append_pad_right(out, analyze::property_name(f.prop), 30);
    append_dur(out, f.severity, 12);
    out += pad_left(fmt_percent(f.fraction, 1), 8) + "  " +
           result.profile.path_string(f.node, trace) + "\n";
  }
  return out;
}

std::string render_data_quality(const AnalysisResult& result) {
  const analyze::DataQuality& q = result.quality;
  std::ostringstream os;
  os << "=== data quality ===\n";
  if (q.clean()) {
    os << "clean: " << q.events_seen << " events, no anomalies\n";
    return os.str();
  }
  const auto row = [&](const char* label, std::size_t n) {
    if (n == 0 && std::string(label) != "events seen") return;
    os << pad_right(label, 28) << pad_left(std::to_string(n), 10) << "\n";
  };
  row("events seen", q.events_seen);
  row("events dropped", q.events_dropped);
  row("events repaired", q.events_repaired);
  row("unbalanced exits", q.unbalanced_exits);
  row("unmatched sends", q.unmatched_sends);
  row("unmatched receives", q.unmatched_recvs);
  row("incomplete collectives", q.incomplete_collectives);
  row("negative waits clamped", q.negative_waits_clamped);
  row("skewed messages", q.skewed_messages);
  row("unsorted locations", q.unsorted_locations);
  os << pad_right("clock skew detected", 28)
     << pad_left(q.clock_skew_detected ? "yes" : "no", 10) << "\n";
  return os.str();
}

std::string render_defects(const AnalysisResult& result,
                           const trace::Trace& trace) {
  std::ostringstream os;
  os << "=== structural defects ===\n";
  if (result.defects.empty()) {
    os << "(none)\n";
    return os.str();
  }
  for (const auto& d : result.defects) {
    os << d.describe(trace) << "\n";
  }
  return os.str();
}

std::string defect_csv(const AnalysisResult& result,
                       const trace::Trace& trace) {
  std::ostringstream os;
  os << "kind,comm,call_index,rank,loc,op,root,reduce_op,status\n";
  for (const auto& d : result.defects) {
    const std::string prefix = std::string(analyze::to_string(d.kind)) +
                               "," + trace.comm(d.comm).name + "," +
                               std::to_string(d.call_index) + ",";
    for (const auto& p : d.participants) {
      os << prefix << p.comm_rank << "," << p.loc << ","
         << trace::to_string(p.op) << "," << p.root << ","
         << trace::reduce_op_name(p.rop) << ","
         << (p.completed ? "completed" : "called") << "\n";
    }
    for (int r : d.missing) {
      os << prefix << r << ",-1,,,," << "missing" << "\n";
    }
  }
  return os.str();
}

std::string render_analysis(const AnalysisResult& result,
                            const trace::Trace& trace) {
  std::string out = "=== automatic analysis (" +
                    std::to_string(trace.location_count()) +
                    " locations, total time " + result.total_time.str() +
                    ") ===\n\n";
  out += render_property_tree(result, trace) + "\n";
  out += render_findings(result, trace) + "\n";
  // Pristine traces keep the historical report byte-for-byte; the pane
  // appears only when there is degradation to report.
  if (!result.quality.clean()) {
    out += render_data_quality(result) + "\n";
  }
  // Same rule for the structural-defect pane: sound traces stay unchanged.
  if (!result.defects.empty()) {
    out += render_defects(result, trace) + "\n";
  }
  for (const auto& f : result.findings) {
    out += render_property_detail(result, trace, f.prop);
    out += '\n';
  }
  return out;
}

std::string render_profile(const AnalysisResult& result,
                           const trace::Trace& trace, int max_depth) {
  std::ostringstream os;
  os << pad_right("call path", 46) << pad_left("visits", 9)
     << pad_left("incl", 12) << pad_left("excl", 12) << "\n"
     << repeat('-', 79) << "\n";
  result.profile.preorder([&](NodeId n, int depth) {
    if (depth > max_depth) return;
    if (n == analyze::kRootNode) return;
    std::string label = repeat(' ', static_cast<std::size_t>(2 * (depth - 1)));
    label += result.profile.name_of(n, trace);
    os << pad_right(label, 46)
       << pad_left(std::to_string(result.profile.visits_total(n)), 9)
       << pad_left(result.profile.inclusive_total(n).str(), 12)
       << pad_left(result.profile.exclusive_total(n).str(), 12) << "\n";
  });
  return os.str();
}

std::string severity_csv(const AnalysisResult& result,
                         const trace::Trace& trace) {
  return diff::Snapshot::from_cube(result, trace).severity_csv();
}

}  // namespace ats::report
