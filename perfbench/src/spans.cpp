#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::size_t SpanLog::open(const char* name) {
  const std::size_t index = spans_.size();
  Span s;
  s.name = name;
  s.parent = open_;
  s.op = op_;
  spans_.push_back(s);
  open_ = static_cast<std::int64_t>(index);
  // Read the clock last so the span's own bookkeeping is outside it.
  spans_[index].start_ns = now_ns();
  return index;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_ = spans_[index].parent;
}

SpanLog*& thread_log() {
  thread_local SpanLog* log = nullptr;
  return log;
}

std::vector<Span> merge_logs(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> out;
  for (const SpanLog* log : logs) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span s : log->spans()) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::int64_t covered_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // end of the union so far
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b <= a) continue;
    covered += b - a;
    reach = b;
  }
  return covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(s.start_ns, s.end_ns, std::move(kids[i]));
  }
  return self;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name, bool setup) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if ((s.op == kSetupOp) == setup && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

namespace {

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

std::vector<StageRow> sorted_rows(const std::map<std::string, StageRow>& m,
                                  double root_ms) {
  std::vector<StageRow> rows;
  for (const auto& [name, row] : m) {
    StageRow r = row;
    r.share = root_ms > 0 ? r.self_ms / root_ms : 0.0;
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    return a.self_ms != b.self_ms ? a.self_ms > b.self_ms : a.name < b.name;
  });
  return rows;
}

}  // namespace

StageTable stage_table(const std::vector<Span>& spans,
                       const std::vector<std::int64_t>& self, bool setup) {
  StageTable t;
  std::map<std::string, StageRow> by_name;
  std::map<std::string, StageRow> by_layer;
  double covered_ms = 0.0;
  std::uint64_t covered_95 = 0;
  t.min_root_coverage = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if ((s.op == kSetupOp) != setup) continue;
    const double self_ms = static_cast<double>(self[i]) / 1e6;
    StageRow& row = by_name[s.name];
    row.name = s.name;
    ++row.calls;
    row.self_ms += self_ms;
    const std::string layer = layer_of(s.name);
    StageRow& lrow = by_layer[layer];
    lrow.name = layer + ".*";
    ++lrow.calls;
    lrow.self_ms += self_ms;
    if (s.parent < 0) {
      const double wall_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      ++t.roots;
      t.root_ms += wall_ms;
      covered_ms += wall_ms - self_ms;
      const double c = wall_ms > 0 ? (wall_ms - self_ms) / wall_ms : 1.0;
      t.min_root_coverage = std::min(t.min_root_coverage, c);
      if (c >= 0.95) ++covered_95;
    }
  }
  if (t.roots == 0) t.min_root_coverage = 0.0;
  t.coverage = t.root_ms > 0 ? covered_ms / t.root_ms : 0.0;
  t.roots_covered_95 =
      t.roots ? static_cast<double>(covered_95) / static_cast<double>(t.roots)
              : 0.0;
  t.spans = sorted_rows(by_name, t.root_ms);
  t.layers = sorted_rows(by_layer, t.root_ms);
  return t;
}

double StageTable::self_ms(const std::string& name) const {
  for (const StageRow& r : spans) {
    if (r.name == name) return r.self_ms;
  }
  return 0.0;
}

double StageTable::layer_share(const std::string& layer) const {
  for (const StageRow& r : layers) {
    if (r.name == layer + ".*") return r.share;
  }
  return 0.0;
}

std::string render_stage_table(const StageTable& t, const std::string& title) {
  std::ostringstream os;
  char line[160];
  os << title << ": " << t.roots << " roots, " << t.root_ms << " ms wall\n";
  std::snprintf(line, sizeof line, "  %-28s %10s %14s %12s %10s\n", "span",
                "calls", "self_ms", "per_root_ms", "share");
  os << line;
  const auto emit = [&](const std::vector<StageRow>& rows) {
    for (const StageRow& r : rows) {
      std::snprintf(line, sizeof line, "  %-28s %10llu %14.3f %12.4f %9.2f%%\n",
                    r.name.c_str(), static_cast<unsigned long long>(r.calls),
                    r.self_ms,
                    t.roots ? r.self_ms / static_cast<double>(t.roots) : 0.0,
                    100.0 * r.share);
      os << line;
    }
  };
  emit(t.spans);
  os << "  -- by layer\n";
  emit(t.layers);
  std::snprintf(line, sizeof line,
                "  coverage %.2f%% (min root %.2f%%, %.2f%% of roots >= 95%%)\n",
                100.0 * t.coverage, 100.0 * t.min_root_coverage,
                100.0 * t.roots_covered_95);
  os << line;
  return os.str();
}

std::string stage_table_json(const StageTable& t) {
  std::ostringstream os;
  os.precision(10);
  const auto rows = [&](const std::vector<StageRow>& v) {
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? "," : "") << "{\"name\":\"" << v[i].name
         << "\",\"calls\":" << v[i].calls << ",\"self_ms\":" << v[i].self_ms
         << ",\"share\":" << v[i].share << "}";
    }
    os << "]";
  };
  os << "{\"roots\":" << t.roots << ",\"root_ms\":" << t.root_ms
     << ",\"coverage\":" << t.coverage
     << ",\"min_root_coverage\":" << t.min_root_coverage
     << ",\"roots_covered_95\":" << t.roots_covered_95 << ",\"spans\":";
  rows(t.spans);
  os << ",\"layers\":";
  rows(t.layers);
  os << "}";
  return os.str();
}

void write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "name,start_ns,end_ns,parent,op\n";
  for (const Span& s : spans) {
    os << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
       << ',';
    if (s.op == kSetupOp) {
      os << "setup";
    } else {
      os << s.op;
    }
    os << '\n';
  }
}

}  // namespace perfbench
