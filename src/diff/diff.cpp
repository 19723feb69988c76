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

/// A cell's identity: its three name ids in one shared string table.
struct CellKey {
  std::uint32_t property, call_path, location;
  bool operator==(const CellKey&) const = default;
};

/// Values by cell identity, in first-insertion order.  Open addressing over
/// a power-of-two table of positions, kept at most half full for the
/// `max_cells` keys the caller may insert, so adding a cell allocates no
/// node and a lookup is a hash and a short probe.
template <class T>
class CellTable {
 public:
  explicit CellTable(std::size_t max_cells)
      : mask_(std::bit_ceil(2 * max_cells + 1) - 1), slots_(mask_ + 1, kEmpty) {
    keys_.reserve(max_cells);
    values_.reserve(max_cells);
  }

  /// The value for `key`, value-initialised on first use.
  T& operator[](const CellKey& key) {
    std::size_t i = hash(key) & mask_;
    while (slots_[i] != kEmpty && keys_[slots_[i]] != key) i = (i + 1) & mask_;
    if (slots_[i] == kEmpty) {
      slots_[i] = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
      values_.emplace_back();
    }
    return values_[slots_[i]];
  }

  std::size_t size() const { return keys_.size(); }
  const CellKey& key(std::size_t i) const { return keys_[i]; }
  const T& value(std::size_t i) const { return values_[i]; }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  static std::size_t hash(const CellKey& k) {
    std::uint64_t h = (std::uint64_t{k.property} << 32 | k.call_path) *
                      0x9E3779B97F4A7C15ull;
    h = (h ^ k.location) * 0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }

  std::size_t mask_;
  std::vector<std::uint32_t> slots_;
  std::vector<CellKey> keys_;
  std::vector<T> values_;
};

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

}  // namespace

// ---------------------------------------------------------------- Snapshot

Snapshot Snapshot::from_result(const analyze::AnalysisResult& result,
                               const trace::Trace& trace) {
  Snapshot s;
  // Intern once per distinct property, node and location, not per cell.
  std::vector<std::uint32_t> props(analyze::kPropertyCount, kNoName);
  std::vector<std::uint32_t> nodes(result.profile.node_count(), kNoName);
  std::vector<std::uint32_t> locs(result.cube.location_count(), kNoName);
  const std::vector<std::string> paths = result.profile.path_strings(trace);
  const auto id = [&s](std::vector<std::uint32_t>& ids, auto i,
                       std::string_view name) {
    std::uint32_t& slot = ids[static_cast<std::size_t>(i)];
    if (slot == kNoName) slot = s.intern(name);
    return slot;
  };
  result.cube.for_each([&](analyze::PropertyId p, analyze::NodeId n,
                           trace::LocId l, VDur d) {
    s.cells.push_back({id(props, p, analyze::property_name(p)),
                       id(nodes, n, paths[static_cast<std::size_t>(n)]),
                       id(locs, l, trace.location(l).name), d.sec()});
  });
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
    const std::string seconds = line.substr(last + 1);
    double severity_sec = 0.0;
    try {
      severity_sec = std::stod(seconds);
    } catch (const std::exception&) {
      throw UsageError("severity CSV line " + std::to_string(lineno) +
                       ": bad severity '" + seconds + "'");
    }
    const std::string_view row(line);
    s.add(row.substr(0, first), row.substr(first + 1, second_last - first - 1),
          row.substr(second_last + 1, last - second_last - 1), severity_sec);
  }
  return s;
}

std::string Snapshot::severity_csv() const {
  std::string out(kSeverityCsvHeader);
  out += '\n';
  for (const auto& c : cells) {
    append_severity_row(out, name(c.property), name(c.call_path),
                        name(c.location), c.severity_sec);
  }
  return out;
}

void Snapshot::add(std::string_view property, std::string_view call_path,
                   std::string_view location, double severity_sec) {
  const std::uint32_t p = intern(property);
  const std::uint32_t c = intern(call_path);
  cells.push_back({p, c, intern(location), severity_sec});
}

std::uint32_t Snapshot::intern(std::string_view name) {
  if (const auto it = index_.find(name); it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::uint32_t Snapshot::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kNoName : it->second;
}

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
  struct Spread {
    double min = 0.0, max = 0.0;
    std::size_t seen = 0;
  };
  // Cells pair across repeats by display triple: every repeat's names are
  // interned into one shared table first, once per distinct name.
  Snapshot shared;
  std::size_t max_cells = 0;
  for (const auto& snap : repeats) max_cells += snap.cells.size();
  CellTable<Spread> spreads(max_cells);
  for (const auto& snap : repeats) {
    std::vector<std::uint32_t> ids(snap.name_count());
    for (std::uint32_t i = 0; i < ids.size(); ++i) {
      ids[i] = shared.intern(snap.name(i));
    }
    for (const auto& c : snap.cells) {
      auto& sp = spreads[{ids[c.property], ids[c.call_path], ids[c.location]}];
      if (sp.seen == 0) {
        sp.min = sp.max = c.severity_sec;
      } else {
        sp.min = std::min(sp.min, c.severity_sec);
        sp.max = std::max(sp.max, c.severity_sec);
      }
      ++sp.seen;
    }
  }
  DiffOptions out = base;
  for (std::size_t i = 0; i < spreads.size(); ++i) {
    const Spread& sp = spreads.value(i);
    // A cell missing from some repeat flickers at its full magnitude: pure
    // noise at that absolute scale.  A cell present everywhere contributes
    // its worst relative spread instead.
    if (sp.seen < repeats.size()) {
      out.abs_floor_sec = std::max(out.abs_floor_sec, 2.0 * sp.max);
    } else if (sp.max > 0.0) {
      const double rel = (sp.max - sp.min) / sp.max;
      out.rel_floor = std::max(out.rel_floor, std::min(0.5, 2.0 * rel));
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

  // One name space for both sides: A's ids as they are, B's table remapped
  // into A's once, and names only B has numbered past the end of A's.
  const auto a_names = static_cast<std::uint32_t>(a.name_count());
  std::vector<const std::string*> b_only;
  std::vector<std::uint32_t> b_ids(b.name_count());
  for (std::uint32_t i = 0; i < b_ids.size(); ++i) {
    b_ids[i] = a.find(b.name(i));
    if (b_ids[i] != Snapshot::kNoName) continue;
    b_ids[i] = a_names + static_cast<std::uint32_t>(b_only.size());
    b_only.push_back(&b.name(i));
  }
  const auto name = [&](std::uint32_t id) -> const std::string& {
    return id < a_names ? a.name(id) : *b_only[id - a_names];
  };

  // Pair the cells by identity, preserving A's stable order with B-only
  // cells appended in B's order.  The identity is the *display* triple, and
  // distinct location ids can legally share a name (hybrid traces reuse
  // "rank R thread T" across parallel regions) — duplicates therefore
  // accumulate into one logical cell on each side.
  struct Pair {
    double a_sec = 0.0, b_sec = 0.0;
    bool in_a = false, in_b = false;
  };
  CellTable<Pair> pairs(a.cells.size() + b.cells.size());
  for (const auto& c : a.cells) {
    Pair& p = pairs[{c.property, c.call_path, c.location}];
    p.a_sec = p.in_a ? p.a_sec + c.severity_sec : c.severity_sec;
    p.in_a = true;
  }
  for (const auto& c : b.cells) {
    Pair& p = pairs[{b_ids[c.property], b_ids[c.call_path], b_ids[c.location]}];
    p.b_sec = p.in_b ? p.b_sec + c.severity_sec : c.severity_sec;
    p.in_b = true;
  }
  out.cells_compared = pairs.size();

  // Per-property roll-up over every cell, indexed by property name id in
  // first-seen order; the changed subset feeds the reported cell deltas.
  struct Roll {
    std::uint32_t property = 0;
    double a = 0.0, b = 0.0;
    std::size_t changed = 0;
  };
  std::vector<Roll> rolls;
  std::vector<std::uint32_t> roll_of(a_names + b_only.size(),
                                     Snapshot::kNoName);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const CellKey& key = pairs.key(i);
    const Pair& p = pairs.value(i);
    std::uint32_t& slot = roll_of[key.property];
    if (slot == Snapshot::kNoName) {
      slot = static_cast<std::uint32_t>(rolls.size());
      rolls.push_back({key.property});
    }
    Roll& r = rolls[slot];
    r.a += p.a_sec;
    r.b += p.b_sec;
    if (!clears_floors(p.a_sec, p.b_sec, opt)) continue;
    r.changed += 1;
    CellDelta d;
    d.property = name(key.property);
    d.call_path = name(key.call_path);
    d.location = name(key.location);
    d.a_sec = p.a_sec;
    d.b_sec = p.b_sec;
    d.kind = !p.in_a   ? DeltaKind::kAdded
             : !p.in_b ? DeltaKind::kRemoved
             : p.b_sec > p.a_sec ? DeltaKind::kIncreased
                                 : DeltaKind::kDecreased;
    out.cells.push_back(std::move(d));
  }
  std::stable_sort(out.cells.begin(), out.cells.end(),
                   [](const CellDelta& x, const CellDelta& y) {
                     return std::fabs(x.delta()) > std::fabs(y.delta());
                   });

  double best_regression = 0.0;
  for (const Roll& r : rolls) {
    PropertyDelta pd;
    pd.property = name(r.property);
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
  std::unordered_map<std::string, gen::RunOutcome> outcome_a;
  for (const auto& row : a) outcome_a.emplace(row.value, row.outcome);
  for (const auto& row : b) {
    const auto it = index.find(row.value);
    if (it != index.end()) {
      RowDelta& d = out[it->second];
      d.b_sec = row.severity.sec();
      d.in_b = true;
      const auto oa = outcome_a.find(row.value);
      d.outcome_changed = oa != outcome_a.end() && oa->second != row.outcome;
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
