#include "report/cube_xml.hpp"

#include <ostream>
#include <sstream>

#include "common/strutil.hpp"

namespace ats::report {

namespace {

using analyze::AnalysisResult;
using analyze::NodeId;
using analyze::PropertyId;

void write_metric(std::ostream& os, PropertyId p, int indent) {
  const auto& info = analyze::property_info(p);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "<metric id=\"" << static_cast<int>(p) << "\" name=\""
     << xml_escape(info.name) << "\" waitstate=\""
     << (info.is_waitstate ? 1 : 0) << "\">\n";
  os << pad << "  <descr>" << xml_escape(info.description) << "</descr>\n";
  for (PropertyId c : analyze::property_children(p)) {
    write_metric(os, c, indent + 2);
  }
  os << pad << "</metric>\n";
}

void write_cnode(std::ostream& os, const AnalysisResult& result,
                 const trace::Trace& trace, NodeId n, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "<cnode id=\"" << n << "\" name=\""
     << xml_escape(result.profile.name_of(n, trace)) << "\">\n";
  for (NodeId c : result.profile.node(n).children) {
    write_cnode(os, result, trace, c, indent + 2);
  }
  os << pad << "</cnode>\n";
}

}  // namespace

void write_cube_xml(std::ostream& os, const AnalysisResult& result,
                    const trace::Trace& trace) {
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<cube version=\"ats-1.0\">\n";

  os << " <metrics>\n";
  write_metric(os, PropertyId::kTotal, 2);
  os << " </metrics>\n";

  os << " <program>\n";
  write_cnode(os, result, trace, analyze::kRootNode, 2);
  os << " </program>\n";

  os << " <system>\n";
  for (std::size_t l = 0; l < trace.location_count(); ++l) {
    const auto& info = trace.location(static_cast<trace::LocId>(l));
    os << "  <location id=\"" << info.id << "\" kind=\""
       << (info.kind == trace::LocKind::kProcess ? "process" : "thread")
       << "\" rank=\"" << info.rank << "\" thread=\"" << info.thread
       << "\" name=\"" << xml_escape(info.name) << "\"/>\n";
  }
  os << " </system>\n";

  const analyze::DataQuality& q = result.quality;
  os << " <dataquality events_seen=\"" << q.events_seen
     << "\" events_dropped=\"" << q.events_dropped << "\" events_repaired=\""
     << q.events_repaired << "\" unbalanced_exits=\"" << q.unbalanced_exits
     << "\" unmatched_sends=\"" << q.unmatched_sends
     << "\" unmatched_recvs=\"" << q.unmatched_recvs
     << "\" incomplete_collectives=\"" << q.incomplete_collectives
     << "\" negative_waits_clamped=\"" << q.negative_waits_clamped
     << "\" skewed_messages=\"" << q.skewed_messages
     << "\" unsorted_locations=\"" << q.unsorted_locations
     << "\" clock_skew=\"" << (q.clock_skew_detected ? 1 : 0) << "\"/>\n";

  // Structural collective-correctness defects (docs/DEFECTS.md).  Emitted
  // only when present, keeping sound-trace documents byte-identical.
  if (!result.defects.empty()) {
    os << " <defects>\n";
    for (const auto& d : result.defects) {
      os << "  <defect kind=\"" << analyze::to_string(d.kind)
         << "\" comm=\"" << xml_escape(trace.comm(d.comm).name)
         << "\" call_index=\"" << d.call_index << "\" op=\""
         << trace::to_string(d.op) << "\">\n";
      for (const auto& p : d.participants) {
        os << "   <participant rank=\"" << p.comm_rank << "\" loc=\""
           << p.loc << "\" op=\"" << trace::to_string(p.op) << "\" root=\""
           << p.root << "\" reduce_op=\"" << trace::reduce_op_name(p.rop)
           << "\" completed=\"" << (p.completed ? 1 : 0) << "\"/>\n";
      }
      for (int r : d.missing) {
        os << "   <missing rank=\"" << r << "\"/>\n";
      }
      os << "  </defect>\n";
    }
    os << " </defects>\n";
  }

  os << " <severity>\n";
  for (PropertyId p : analyze::property_preorder()) {
    const auto nodes = result.cube.nodes_of(p);
    if (nodes.empty()) continue;
    os << "  <matrix metric=\"" << static_cast<int>(p) << "\">\n";
    for (NodeId n : nodes) {
      const auto locs = result.cube.locations_of(p, n);
      os << "   <row cnode=\"" << n << "\">";
      for (std::size_t l = 0; l < locs.size(); ++l) {
        if (l != 0) os << ' ';
        os << fmt_double(locs[l].sec(), 9);
      }
      os << "</row>\n";
    }
    os << "  </matrix>\n";
  }
  os << " </severity>\n";
  os << "</cube>\n";
}

std::string cube_xml(const AnalysisResult& result,
                     const trace::Trace& trace) {
  std::ostringstream os;
  write_cube_xml(os, result, trace);
  return os.str();
}

}  // namespace ats::report
