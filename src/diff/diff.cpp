#include "diff/diff.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::diff {

namespace fs = std::filesystem;

namespace {

/// Change test shared by every diff flavour: both floors must clear.
bool clears_floors(double a, double b, const DiffOptions& opt) {
  const double d = std::fabs(b - a);
  return d > opt.abs_floor_sec && d > opt.rel_floor * std::max(a, b);
}

/// PropertyId for a report name; kCount_ when the name is unknown (a
/// foreign or future property — treated as an attributable leaf).
analyze::PropertyId property_by_name(const std::string& name) {
  for (analyze::PropertyId p : analyze::property_preorder()) {
    if (name == analyze::property_name(p)) return p;
  }
  return analyze::PropertyId::kCount_;
}

bool attributable(const std::string& property) {
  const analyze::PropertyId p = property_by_name(property);
  if (p == analyze::PropertyId::kCount_) return true;
  const auto& info = analyze::property_info(p);
  return info.is_waitstate && !info.is_overhead;
}

constexpr std::uint32_t kNone = UINT32_MAX;

/// Ids by display string, in first-seen order.  Open addressing over a
/// table reserved for all names up front: interning allocates nothing per
/// name.  At 8192 locations a std::unordered_map here made the diff
/// about 1.6x slower.
class Interner {
 public:
  void reserve(std::size_t names) {
    slots_.assign(std::bit_ceil(2 * names + 2), kNone);
  }
  std::uint32_t operator()(std::string_view s) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(s) & mask;
    for (; slots_[i] != kNone; i = (i + 1) & mask) {
      if (names_[slots_[i]] == s) return slots_[i];
    }
    names_.push_back(s);
    return slots_[i] = static_cast<std::uint32_t>(names_.size() - 1);
  }
  std::string name(std::uint32_t id) const { return std::string(names_[id]); }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::uint32_t> slots_;
  std::vector<std::string_view> names_;
};

/// The rows of snapshots compared together (the sides), grouped by their
/// (property, call path) display names, with every side's location ids
/// mapped to display-name ids.  That is all the string work of a diff;
/// cells then pair through integer ids.
struct RowGroups {
  struct Member {
    std::uint32_t side, row;
  };
  struct Group {
    std::uint32_t property, call_path;  ///< ids in `names`
    std::vector<Member> members;        ///< side order, then row order
  };
  std::vector<const Snapshot*> sides;
  Interner names;
  Interner locations;
  std::vector<Group> groups;  ///< first-seen order
  /// Per side: location id -> id in `locations`.
  std::vector<std::vector<std::uint32_t>> location_ids;

  explicit RowGroups(std::vector<const Snapshot*> snaps)
      : sides(std::move(snaps)), location_ids(sides.size()) {
    std::size_t nnames = 0, nlocs = 0;
    for (const Snapshot* snap : sides) {
      nnames += snap->name_count();
      nlocs += snap->locations.size();
    }
    names.reserve(nnames);
    locations.reserve(nlocs);
    std::unordered_map<std::uint64_t, std::uint32_t> group_of;
    for (std::uint32_t s = 0; s < sides.size(); ++s) {
      const Snapshot& snap = *sides[s];
      // Once per table, and not at all for a table equal to the previous
      // side's; distinct names map to ids in table order.
      if (s > 0 && snap.locations == sides[s - 1]->locations) {
        location_ids[s] = location_ids[s - 1];
      } else {
        for (const std::string& loc : snap.locations) {
          location_ids[s].push_back(locations(loc));
        }
      }
      for (std::uint32_t r = 0; r < snap.rows.size(); ++r) {
        const std::uint32_t p = names(snap.name(snap.rows[r].property));
        const std::uint32_t c = names(snap.name(snap.rows[r].call_path));
        const auto [it, added] = group_of.try_emplace(
            std::uint64_t{p} << 32 | c,
            static_cast<std::uint32_t>(groups.size()));
        if (added) groups.push_back({p, c, {}});
        groups[it->second].members.push_back({s, r});
      }
    }
  }

  /// Calls f(side, cell index, location id in `locations`, seconds) for
  /// every cell of `group`, side by side and row by row.
  template <class F>
  void for_each_cell(const Group& group, F&& f) const {
    for (const Member& m : group.members) {
      const Snapshot& snap = *sides[m.side];
      const SnapshotRow& row = snap.rows[m.row];
      for (std::uint32_t i = row.begin; i < row.end; ++i) {
        f(m.side, i, location_ids[m.side][snap.cells[i].location],
          snap.cells[i].severity_sec);
      }
    }
  }
};

}  // namespace

std::vector<std::string> parse_defect_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || starts_with(line, "===") || line == "(none)") continue;
    out.push_back(line);
  }
  return out;
}

// --------------------------------------------------------------- calibrate

DiffOptions calibrate(const std::vector<Snapshot>& repeats, DiffOptions base) {
  if (repeats.size() < 2) return base;
  std::vector<const Snapshot*> sides;
  for (const Snapshot& snap : repeats) sides.push_back(&snap);
  const RowGroups g(std::move(sides));
  // A logical cell's spread over the repeats; each cell row counts once.
  struct Spread {
    std::uint32_t location;
    double min, max;
    std::size_t seen;
  };
  std::vector<Spread> spreads;
  std::vector<std::uint32_t> slot(g.locations.size(), kNone);
  DiffOptions out = base;
  for (const RowGroups::Group& group : g.groups) {
    spreads.clear();
    g.for_each_cell(group, [&](std::uint32_t, std::uint32_t, std::uint32_t loc,
                               double v) {
      if (slot[loc] == kNone) {
        slot[loc] = static_cast<std::uint32_t>(spreads.size());
        spreads.push_back({loc, v, v, 0});
      }
      Spread& sp = spreads[slot[loc]];
      sp.min = std::min(sp.min, v);
      sp.max = std::max(sp.max, v);
      ++sp.seen;
    });
    for (const Spread& sp : spreads) {
      slot[sp.location] = kNone;
      // A cell missing from some repeat flickers at its full magnitude:
      // pure noise at that absolute scale.  A cell present everywhere
      // contributes its worst relative spread instead.
      if (sp.seen < repeats.size()) {
        out.abs_floor_sec = std::max(out.abs_floor_sec, 2.0 * sp.max);
      } else if (sp.max > 0.0) {
        const double rel = (sp.max - sp.min) / sp.max;
        out.rel_floor = std::max(out.rel_floor, std::min(0.5, 2.0 * rel));
      }
    }
  }
  return out;
}

// -------------------------------------------------------------- cell diffs

const char* to_string(DeltaKind k) {
  switch (k) {
    case DeltaKind::kAdded: return "added";
    case DeltaKind::kRemoved: return "removed";
    case DeltaKind::kIncreased: return "increased";
    case DeltaKind::kDecreased: return "decreased";
  }
  return "?";
}

double CellDelta::rel() const {
  const double m = std::max(a_sec, b_sec);
  return m > 0.0 ? std::fabs(b_sec - a_sec) / m : 0.0;
}

double RowDelta::rel() const {
  const double m = std::max(a_sec, b_sec);
  return m > 0.0 ? std::fabs(b_sec - a_sec) / m : 0.0;
}

bool DiffResult::empty() const {
  return cells.empty() && defects_added.empty() && defects_removed.empty();
}

bool DiffResult::regression() const {
  if (!defects_added.empty()) return true;
  for (const auto& c : cells) {
    if (c.kind == DeltaKind::kAdded || c.kind == DeltaKind::kIncreased) {
      return true;
    }
  }
  return false;
}

DiffResult diff_snapshots(const Snapshot& a, const Snapshot& b,
                          DiffOptions opt) {
  DiffResult out;
  out.options = opt;
  const RowGroups g({&a, &b});

  // One pair per logical cell.  A pair's identity is the *display* triple,
  // and distinct location ids can legally share a name, so duplicates sum
  // into one pair on each side.  `pos` is the pair's first appearance in
  // cell order — A's cells, then the cells only B has, in B's order — and
  // pairs are visited in that order, which fixes the order of the report
  // and of the roll-up sums.
  struct Pair {
    std::uint32_t pos, group, location;
    bool in_a, in_b;
    double a_sec, b_sec;
  };
  std::vector<Pair> pairs;
  pairs.reserve(a.cells.size() + b.cells.size());  // no regrowth copies
  // The dense scratch column: a location's pair in the current group.
  std::vector<std::uint32_t> slot(g.locations.size(), kNone);
  for (std::uint32_t k = 0; k < g.groups.size(); ++k) {
    const std::size_t from = pairs.size();
    // A's members come first in a group, so a pair B opens is B-only.
    g.for_each_cell(g.groups[k], [&](std::uint32_t side, std::uint32_t i,
                                     std::uint32_t loc, double v) {
      if (slot[loc] == kNone) {
        slot[loc] = static_cast<std::uint32_t>(pairs.size());
        const auto base = static_cast<std::uint32_t>(side ? a.cells.size() : 0);
        pairs.push_back({base + i, k, loc, false, false, 0.0, 0.0});
      }
      Pair& p = pairs[slot[loc]];
      bool& seen = side ? p.in_b : p.in_a;
      double& sec = side ? p.b_sec : p.a_sec;
      sec = seen ? sec + v : v;
      seen = true;
    });
    for (std::size_t i = from; i < pairs.size(); ++i) {
      slot[pairs[i].location] = kNone;
    }
  }
  const auto by_pos = [](const Pair& x, const Pair& y) {
    return x.pos < y.pos;
  };
  if (!std::is_sorted(pairs.begin(), pairs.end(), by_pos)) {
    std::sort(pairs.begin(), pairs.end(), by_pos);
  }

  // Per-property roll-up over every pair, indexed by property name id in
  // first-seen order; the changed subset feeds the reported cell deltas.
  struct Roll {
    std::uint32_t property = 0;
    double a = 0.0, b = 0.0;
    std::size_t changed = 0;
  };
  std::vector<Roll> rolls;
  std::vector<std::uint32_t> roll_of(g.names.size(), kNone);
  // The changed pairs with their |delta|, sorted before any CellDelta is
  // built, so each delta's strings are made once, in final order.
  struct Changed {
    double magnitude;
    const Pair* pair;
  };
  std::vector<Changed> changed;
  for (const Pair& p : pairs) {
    const RowGroups::Group& group = g.groups[p.group];
    std::uint32_t& slot_of = roll_of[group.property];
    if (slot_of == kNone) {
      slot_of = static_cast<std::uint32_t>(rolls.size());
      rolls.push_back({group.property});
    }
    Roll& r = rolls[slot_of];
    r.a += p.a_sec;
    r.b += p.b_sec;
    ++out.cells_compared;
    if (!clears_floors(p.a_sec, p.b_sec, opt)) continue;
    r.changed += 1;
    changed.push_back({std::fabs(p.b_sec - p.a_sec), &p});
  }
  // Largest |delta| first; ties keep cell order.
  std::stable_sort(changed.begin(), changed.end(),
                   [](const Changed& x, const Changed& y) {
                     return x.magnitude > y.magnitude;
                   });
  out.cells.reserve(changed.size());
  for (const Changed& c : changed) {
    const Pair& p = *c.pair;
    const RowGroups::Group& group = g.groups[p.group];
    CellDelta& d = out.cells.emplace_back();
    d.property = g.names.name(group.property);
    d.call_path = g.names.name(group.call_path);
    d.location = g.locations.name(p.location);
    d.a_sec = p.a_sec;
    d.b_sec = p.b_sec;
    d.kind = !p.in_a   ? DeltaKind::kAdded
             : !p.in_b ? DeltaKind::kRemoved
             : p.b_sec > p.a_sec ? DeltaKind::kIncreased
                                 : DeltaKind::kDecreased;
  }

  double best_regression = 0.0;
  for (const Roll& r : rolls) {
    PropertyDelta pd;
    pd.property = g.names.name(r.property);
    pd.a_total_sec = r.a;
    pd.b_total_sec = r.b;
    pd.cells_changed = r.changed;
    pd.regressed = r.b > r.a && clears_floors(r.a, r.b, opt);
    pd.improved = r.b < r.a && clears_floors(r.a, r.b, opt);
    if (pd.regressed && attributable(pd.property) &&
        pd.delta() > best_regression) {
      best_regression = pd.delta();
      out.attribution = pd.property;
    }
    if (pd.cells_changed > 0 || pd.regressed || pd.improved) {
      out.properties.push_back(std::move(pd));
    }
  }

  // Defect sets diff as exact line sets (order-insensitive).
  std::set<std::string> da(a.defects.begin(), a.defects.end());
  std::set<std::string> db(b.defects.begin(), b.defects.end());
  for (const auto& d : db) {
    if (!da.count(d)) out.defects_added.push_back(d);
  }
  for (const auto& d : da) {
    if (!db.count(d)) out.defects_removed.push_back(d);
  }
  return out;
}

// -------------------------------------------------------------- sweep diffs

std::vector<RowDelta> diff_rows(const std::vector<gen::ExperimentRow>& a,
                                const std::vector<gen::ExperimentRow>& b,
                                DiffOptions opt) {
  std::vector<RowDelta> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& row : a) {
    RowDelta d;
    d.value = row.value;
    d.a_sec = row.severity.sec();
    d.in_a = true;
    index.emplace(row.value, out.size());
    out.push_back(std::move(d));
  }
  for (const auto& row : b) {
    const auto it = index.find(row.value);
    if (it != index.end()) {
      // out[i] is a[i] for every row of A.
      RowDelta& d = out[it->second];
      d.b_sec = row.severity.sec();
      d.in_b = true;
      d.outcome_changed = a[it->second].outcome != row.outcome;
    } else {
      RowDelta d;
      d.value = row.value;
      d.b_sec = row.severity.sec();
      d.in_b = true;
      out.push_back(std::move(d));
    }
  }
  for (RowDelta& d : out) {
    d.changed = !d.in_a || !d.in_b || d.outcome_changed ||
                clears_floors(d.a_sec, d.b_sec, opt);
  }
  return out;
}

// ------------------------------------------------------------ corpus diffs

bool CorpusDiff::clean() const {
  for (const auto& e : entries) {
    if (e.missing_in_a || e.missing_in_b || !e.diff.empty()) return false;
  }
  return true;
}

bool CorpusDiff::regression() const {
  for (const auto& e : entries) {
    if (e.missing_in_a || e.missing_in_b || e.diff.regression()) return true;
  }
  return false;
}

namespace {

struct CorpusEntryFiles {
  std::string expected_a, expected_b;  ///< file paths, "" when absent
  std::string defects_a, defects_b;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void scan_corpus_dir(const std::string& dir, bool side_a,
                     std::map<std::string, CorpusEntryFiles>& entries) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) throw Error("cannot read corpus directory " + dir + ": " +
                      ec.message());
  for (const auto& de : it) {
    if (!de.is_regular_file()) continue;
    const fs::path p = de.path();
    const std::string ext = p.extension().string();
    if (ext != ".expected" && ext != ".defects") continue;
    CorpusEntryFiles& e = entries[p.stem().string()];
    std::string& slot = ext == ".expected"
                            ? (side_a ? e.expected_a : e.expected_b)
                            : (side_a ? e.defects_a : e.defects_b);
    slot = p.string();
  }
}

}  // namespace

CorpusDiff diff_corpus(const std::string& dir_a, const std::string& dir_b,
                       DiffOptions opt) {
  std::map<std::string, CorpusEntryFiles> files;
  scan_corpus_dir(dir_a, /*side_a=*/true, files);
  scan_corpus_dir(dir_b, /*side_a=*/false, files);

  CorpusDiff out;
  for (const auto& [name, f] : files) {
    CorpusEntryDiff entry;
    entry.name = name;
    const bool has_a = !f.expected_a.empty() || !f.defects_a.empty();
    const bool has_b = !f.expected_b.empty() || !f.defects_b.empty();
    entry.missing_in_a = !has_a || (f.expected_b != "" && f.expected_a == "") ||
                         (f.defects_b != "" && f.defects_a == "");
    entry.missing_in_b = !has_b || (f.expected_a != "" && f.expected_b == "") ||
                         (f.defects_a != "" && f.defects_b == "");
    Snapshot a, b;
    a.label = name + " (A)";
    b.label = name + " (B)";
    if (!f.expected_a.empty()) {
      a = Snapshot::from_severity_csv(read_file(f.expected_a));
    }
    if (!f.expected_b.empty()) {
      b = Snapshot::from_severity_csv(read_file(f.expected_b));
    }
    if (!f.defects_a.empty()) {
      a.defects = parse_defect_lines(read_file(f.defects_a));
    }
    if (!f.defects_b.empty()) {
      b.defects = parse_defect_lines(read_file(f.defects_b));
    }
    entry.diff = diff_snapshots(a, b, opt);
    ++out.entries_compared;
    out.entries.push_back(std::move(entry));
  }
  return out;
}

// ---------------------------------------------------------------- rendering

std::string render_text(const DiffResult& d, const std::string& label_a,
                        const std::string& label_b) {
  std::ostringstream os;
  os << "=== cross-run diff (A = " << label_a << ", B = " << label_b
     << ") ===\n";
  os << "cells compared: " << d.cells_compared
     << "  changed: " << d.cells.size()
     << "  floors: abs " << fmt_double(d.options.abs_floor_sec, 9)
     << "s, rel " << fmt_percent(d.options.rel_floor) << "\n";
  if (d.empty()) {
    os << "(no differences above thresholds)\n";
    return os.str();
  }
  if (!d.attribution.empty()) {
    os << "regression attributed to: " << d.attribution << "\n";
  }
  if (!d.properties.empty()) {
    os << "\n" << pad_right("property", 28) << pad_left("A total", 14)
       << pad_left("B total", 14) << pad_left("delta", 14)
       << pad_left("cells", 7) << "  verdict\n" << repeat('-', 85) << "\n";
    for (const auto& p : d.properties) {
      os << pad_right(p.property, 28)
         << pad_left(fmt_double(p.a_total_sec, 6), 14)
         << pad_left(fmt_double(p.b_total_sec, 6), 14)
         << pad_left(fmt_double(p.delta(), 6), 14)
         << pad_left(std::to_string(p.cells_changed), 7) << "  "
         << (p.regressed ? "REGRESSED" : p.improved ? "improved" : "moved")
         << "\n";
    }
  }
  if (!d.cells.empty()) {
    os << "\nchanged cells (largest first):\n";
    for (const auto& c : d.cells) {
      os << "  " << to_string(c.kind) << "  " << c.property << " | "
         << c.call_path << " | " << c.location << ": "
         << fmt_double(c.a_sec, 6) << " -> " << fmt_double(c.b_sec, 6)
         << " (" << (c.delta() >= 0 ? "+" : "") << fmt_double(c.delta(), 6)
         << "s, " << fmt_percent(c.rel()) << ")\n";
    }
  }
  for (const auto& def : d.defects_added) {
    os << "defect added: " << def << "\n";
  }
  for (const auto& def : d.defects_removed) {
    os << "defect removed: " << def << "\n";
  }
  return os.str();
}

namespace {

/// Appends the diff_csv rows of `d`, each led by `prefix`.
void append_diff_rows(std::string& out, const DiffResult& d,
                      const std::string& prefix) {
  for (const auto& c : d.cells) {
    out += prefix + c.property + "," + c.call_path + "," + c.location + "," +
           fmt_double(c.a_sec, 9) + "," + fmt_double(c.b_sec, 9) + "," +
           fmt_double(c.delta(), 9) + "," + fmt_double(c.rel(), 4) + "," +
           to_string(c.kind) + "\n";
  }
  for (const auto& def : d.defects_added) {
    out += prefix + "defect,," + def + ",0,1,1,1,added\n";
  }
  for (const auto& def : d.defects_removed) {
    out += prefix + "defect,," + def + ",1,0,-1,1,removed\n";
  }
}

}  // namespace

std::string diff_csv(const DiffResult& d) {
  std::string out = "property,call_path,location,a_sec,b_sec,delta_sec,rel,kind\n";
  append_diff_rows(out, d, "");
  return out;
}

std::string diff_xml(const DiffResult& d, const std::string& label_a,
                     const std::string& label_b) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<diff a=\"" << xml_escape(label_a) << "\" b=\""
     << xml_escape(label_b) << "\" cells_compared=\"" << d.cells_compared
     << "\" empty=\"" << (d.empty() ? 1 : 0) << "\" regression=\""
     << (d.regression() ? 1 : 0) << "\" attribution=\""
     << xml_escape(d.attribution) << "\">\n";
  os << "  <thresholds abs_floor_sec=\""
     << fmt_double(d.options.abs_floor_sec, 9) << "\" rel_floor=\""
     << fmt_double(d.options.rel_floor, 4) << "\"/>\n";
  for (const auto& p : d.properties) {
    os << "  <property name=\"" << xml_escape(p.property) << "\" a=\""
       << fmt_double(p.a_total_sec, 9) << "\" b=\""
       << fmt_double(p.b_total_sec, 9) << "\" cells_changed=\""
       << p.cells_changed << "\" verdict=\""
       << (p.regressed ? "regressed" : p.improved ? "improved" : "moved")
       << "\"/>\n";
  }
  for (const auto& c : d.cells) {
    os << "  <cell kind=\"" << to_string(c.kind) << "\" property=\""
       << xml_escape(c.property) << "\" call_path=\""
       << xml_escape(c.call_path) << "\" location=\""
       << xml_escape(c.location) << "\" a=\"" << fmt_double(c.a_sec, 9)
       << "\" b=\"" << fmt_double(c.b_sec, 9) << "\"/>\n";
  }
  for (const auto& def : d.defects_added) {
    os << "  <defect change=\"added\">" << xml_escape(def) << "</defect>\n";
  }
  for (const auto& def : d.defects_removed) {
    os << "  <defect change=\"removed\">" << xml_escape(def) << "</defect>\n";
  }
  os << "</diff>\n";
  return os.str();
}

std::string render_corpus_text(const CorpusDiff& c, const std::string& label_a,
                               const std::string& label_b) {
  std::ostringstream os;
  os << "=== corpus diff (A = " << label_a << ", B = " << label_b << ", "
     << c.entries_compared << " entries) ===\n";
  std::size_t shown = 0;
  for (const auto& e : c.entries) {
    if (e.missing_in_a) {
      os << e.name << ": MISSING in A\n";
      ++shown;
      continue;
    }
    if (e.missing_in_b) {
      os << e.name << ": MISSING in B\n";
      ++shown;
      continue;
    }
    if (e.diff.empty()) continue;
    ++shown;
    os << e.name << ": " << e.diff.cells.size() << " cell change(s)";
    if (!e.diff.attribution.empty()) {
      os << ", attributed to " << e.diff.attribution;
    }
    if (!e.diff.defects_added.empty() || !e.diff.defects_removed.empty()) {
      os << ", defects +" << e.diff.defects_added.size() << "/-"
         << e.diff.defects_removed.size();
    }
    os << "\n" << render_text(e.diff, label_a + "/" + e.name,
                              label_b + "/" + e.name);
  }
  if (shown == 0) os << "(all entries identical within thresholds)\n";
  return os.str();
}

std::string corpus_csv(const CorpusDiff& c) {
  std::string out =
      "entry,property,call_path,location,a_sec,b_sec,delta_sec,rel,kind\n";
  for (const auto& e : c.entries) {
    if (e.missing_in_a) {
      out += e.name + ",,,,0,0,0,0,missing_in_a\n";
      continue;
    }
    if (e.missing_in_b) {
      out += e.name + ",,,,0,0,0,0,missing_in_b\n";
      continue;
    }
    append_diff_rows(out, e.diff, e.name + ",");
  }
  return out;
}

std::string corpus_xml(const CorpusDiff& c, const std::string& label_a,
                       const std::string& label_b) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<corpus-diff a=\"" << xml_escape(label_a) << "\" b=\""
     << xml_escape(label_b) << "\" entries=\"" << c.entries_compared
     << "\" clean=\"" << (c.clean() ? 1 : 0) << "\">\n";
  for (const auto& e : c.entries) {
    os << "  <entry name=\"" << xml_escape(e.name) << "\" missing_in_a=\""
       << (e.missing_in_a ? 1 : 0) << "\" missing_in_b=\""
       << (e.missing_in_b ? 1 : 0) << "\" empty=\""
       << (e.diff.empty() ? 1 : 0) << "\"/>\n";
  }
  os << "</corpus-diff>\n";
  return os.str();
}

}  // namespace ats::diff
