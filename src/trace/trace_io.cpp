// Text (de)serialisation of traces.
//
// Format: line-oriented, whitespace-separated, names always last on the
// line (so they may contain spaces).  Header "ATS-TRACE 1".  The full
// record grammar, ordering guarantees and strict-vs-lenient parse rules are
// specified in docs/TRACE_FORMAT.md; load_trace() below implements that
// contract with per-record recovery, so a truncated or corrupted file
// degrades into diagnostics instead of aborting the whole load.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace ats::trace {

namespace {
constexpr const char* kMagic = "ATS-TRACE";
constexpr int kVersion = 1;

/// Appends whitespace-separated fields plus a newline to `out` without
/// touching the stream: number -> string conversions go through
/// std::to_string and land in one growing buffer.
void put(std::string& out) { out += '\n'; }

template <typename Head, typename... Tail>
void put(std::string& out, const Head& head, const Tail&... tail) {
  if constexpr (std::is_same_v<Head, std::string> ||
                std::is_convertible_v<Head, const char*>) {
    out += head;
  } else {
    out += std::to_string(head);
  }
  if constexpr (sizeof...(tail) > 0) out += ' ';
  put(out, tail...);
}

/// Stores `v` into field `f` of `e` at the field's width.
void set_field(Event& e, const EventField& f, std::int64_t v) {
  auto* p = reinterpret_cast<unsigned char*>(&e) + f.offset;
  if (f.kind == FieldKind::kCollOp) {
    *p = static_cast<unsigned char>(v);
  } else if (f.kind == FieldKind::kI32) {
    const auto v32 = static_cast<std::int32_t>(v);
    std::memcpy(p, &v32, sizeof v32);
  } else {
    std::memcpy(p, &v, sizeof v);
  }
}

}  // namespace

void Trace::save(std::ostream& os) const {
  // Serialise into one pre-reserved buffer and hand the stream a single
  // batched write: per-event operator<< calls (7+ per event) dominated the
  // serialisation profile.  ~48 bytes covers the longest event line.
  std::string out;
  out.reserve(64 + 48 * (regions_.size() + locations_.size() +
                         comms_.size() + event_count()));
  put(out, kMagic, kVersion);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const RegionInfo& r = regions_.info(static_cast<RegionId>(i));
    put(out, "region", r.id, to_string(r.kind), r.name);
  }
  for (const auto& l : locations_) {
    put(out, "loc", l.id, l.parent,
        l.kind == LocKind::kProcess ? "process" : "thread", l.rank, l.thread,
        l.name);
  }
  for (const auto& c : comms_) {
    out += "comm ";
    out += std::to_string(c.id);
    out += c.kind == CommKind::kMpiComm ? " mpi " : " team ";
    out += std::to_string(c.members.size());
    for (LocId m : c.members) {
      out += ' ';
      out += std::to_string(m);
    }
    out += ' ';
    out += c.name;
    out += '\n';
  }
  // for_each_chunk_of streams spilled segments back from disk in recording
  // order and hands resident/mapped buffers over directly, so the same loop
  // serialises in-memory, mmap-loaded and spilled traces.
  for (std::size_t l = 0; l < locations_.size(); ++l) {
    for_each_chunk_of(
        static_cast<LocId>(l), [&](const Event* ev, std::size_t n) {
          for (const Event* e = ev; e != ev + n; ++e) {
            const auto type = static_cast<std::size_t>(e->type);
            if (type >= std::size(kEventRecords)) {
              throw TraceError("cannot save event type byte " +
                               std::to_string(type));
            }
            const EventRecord& r = kEventRecords[type];
            out += r.keyword;
            for (std::size_t i = 0; i < r.count; ++i) {
              out += ' ';
              if (r.fields[i].kind == FieldKind::kCollOp) {
                out += to_string(e->op);
              } else {
                out += std::to_string(field_value(*e, r.fields[i]));
              }
            }
            out += '\n';
          }
        });
  }
  // Round-trip size assertion: one line per record.  Region/location/comm
  // names are the only free-form fields and they never contain newlines, so
  // a line-count mismatch means a serialisation bug that load() would
  // misparse.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n'));
  const std::size_t expected = 1 + regions_.size() + locations_.size() +
                               comms_.size() + event_count();
  if (lines != expected) {
    throw TraceError("trace serialisation produced " + std::to_string(lines) +
                     " records, expected " + std::to_string(expected));
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

const EventRecord* find_event_record(std::string_view kw) {
  for (const EventRecord& r : kEventRecords) {
    if (kw == r.keyword) return &r;
  }
  return nullptr;
}

std::string describe(EventDefect d) {
  const std::string v = std::to_string(d.value);
  if (d.field == nullptr) return "bad event type byte " + v;
  if (d.kind == DiagnosticKind::kBadEnum) {
    return std::string("bad ") + d.field->name + " byte " + v;
  }
  return d.field->name + (" " + v) + " was never declared";
}

// ----------------------------------------------------------------- loading

const char* to_string(DiagnosticKind k) {
  switch (k) {
    case DiagnosticKind::kBadHeader: return "bad-header";
    case DiagnosticKind::kUnknownRecord: return "unknown-record";
    case DiagnosticKind::kMalformedRecord: return "malformed-record";
    case DiagnosticKind::kUnknownLocation: return "unknown-location";
    case DiagnosticKind::kUnknownRegion: return "unknown-region";
    case DiagnosticKind::kUnknownComm: return "unknown-comm";
    case DiagnosticKind::kIdOrder: return "id-order";
    case DiagnosticKind::kBadEnum: return "bad-enum";
    case DiagnosticKind::kTruncated: return "truncated";
    case DiagnosticKind::kCount_: break;
  }
  return "?";
}

namespace {

/// Format-document section cited by each diagnostic kind.
const char* spec_section(DiagnosticKind k) {
  switch (k) {
    case DiagnosticKind::kBadHeader: return "§2";
    case DiagnosticKind::kUnknownRecord: return "§3";
    case DiagnosticKind::kIdOrder: return "§5";
    case DiagnosticKind::kTruncated: return "§6";
    default: return "§3-§4";
  }
}

/// Thrown internally while parsing one record; converted to a diagnostic
/// (lenient) or a TraceError (strict) by the load loop.
struct ParseFail {
  DiagnosticKind kind;
  int column;  // 1-based, 0 unknown
  std::string message;
};

/// Field cursor over one record line.  Numbers parse via from_chars so a
/// malformed field reports the exact 1-based column where parsing stopped
/// instead of an opaque stream failure.
class Fields {
 public:
  explicit Fields(const std::string& line) : s_(line) {}

  int column() const { return static_cast<int>(pos_) + 1; }

  void skip_space() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }

  template <typename T>
  T num(const char* what) {
    skip_space();
    T value{};
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || (ptr != end && *ptr != ' ')) {
      throw ParseFail{DiagnosticKind::kMalformedRecord, column(),
                      std::string("bad ") + what + " field"};
    }
    pos_ += static_cast<std::size_t>(ptr - begin);
    return value;
  }

  std::string word(const char* what) {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') ++pos_;
    if (pos_ == start) {
      throw ParseFail{DiagnosticKind::kMalformedRecord, column(),
                      std::string("missing ") + what + " field"};
    }
    return s_.substr(start, pos_ - start);
  }

  /// The rest of the line (after one separating space) as a free-form name.
  std::string rest_name() {
    if (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    return s_.substr(pos_);
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

class Loader {
 public:
  Loader(std::istream& is, const LoadOptions& opt) : is_(is), opt_(opt) {}

  LoadResult run() {
    header();
    std::string line;
    while (getline_tracked(line)) {
      ++lineno_;
      if (line.empty()) continue;
      try {
        record(line);
        ++res_.records_ok;
      } catch (const ParseFail& f) {
        // A parse failure on a final line that the stream cut short is the
        // signature of a truncated file, not of a malformed record.
        const bool truncated = last_line_incomplete_ &&
                               f.kind == DiagnosticKind::kMalformedRecord;
        fail(truncated ? DiagnosticKind::kTruncated : f.kind, f.column,
             truncated ? "stream ends inside this record" : f.message);
      } catch (const TraceError& e) {
        // Trace-model rejection (dense-id violation, kind re-intern, ...).
        fail(DiagnosticKind::kIdOrder, 0, e.what());
      }
    }
    return std::move(res_);
  }

 private:
  /// getline that also records whether the line was terminated by '\n'
  /// (a missing final newline marks a possibly truncated stream).
  bool getline_tracked(std::string& line) {
    if (!std::getline(is_, line)) return false;
    last_line_incomplete_ = is_.eof();
    return true;
  }

  [[noreturn]] void throw_strict(const ParseDiagnostic& d) {
    throw TraceError(d.str());
  }

  /// Registers a diagnostic for the current line and drops the record.
  void fail(DiagnosticKind kind, int column, std::string message) {
    ParseDiagnostic d;
    d.kind = kind;
    d.line = lineno_;
    d.column = column;
    d.message = std::move(message);
    if (opt_.strict) throw_strict(d);
    ++res_.records_dropped;
    if (res_.diagnostics.size() < opt_.max_diagnostics) {
      res_.diagnostics.push_back(std::move(d));
    }
  }

  void header() {
    std::string line;
    ++lineno_;
    if (!getline_tracked(line)) {
      fail(DiagnosticKind::kBadHeader, 0, "empty trace stream");
      return;
    }
    try {
      Fields f(line);
      const std::string magic = f.word("magic");
      const int version = f.num<int>("version");
      if (magic != kMagic || version != kVersion) {
        fail(DiagnosticKind::kBadHeader, 1,
             "bad trace header '" + line + "', expected '" +
                 std::string(kMagic) + " " + std::to_string(kVersion) + "'");
        return;
      }
      res_.header_ok = true;
    } catch (const ParseFail& f2) {
      fail(DiagnosticKind::kBadHeader, f2.column,
           "bad trace header '" + line + "'");
    }
  }

  void record(const std::string& line) {
    Fields f(line);
    const std::string kw = f.word("keyword");
    Trace& t = res_.trace;
    if (kw == "region") {
      const RegionId id = f.num<RegionId>("region id");
      const int kind_col = f.column();
      const std::string kind = f.word("region kind");
      RegionKind rk;
      try {
        rk = region_kind_from_string(kind);
      } catch (const TraceError&) {
        throw ParseFail{DiagnosticKind::kBadEnum, kind_col,
                        "unknown region kind '" + kind + "'"};
      }
      const std::string name = f.rest_name();
      const RegionId got = t.regions().intern(name, rk);
      if (got != id) {
        throw ParseFail{DiagnosticKind::kIdOrder, 1,
                        "region id " + std::to_string(id) +
                            " out of dense order (interned as " +
                            std::to_string(got) + ")"};
      }
    } else if (kw == "loc") {
      LocationInfo li;
      li.id = f.num<LocId>("location id");
      li.parent = f.num<LocId>("parent id");
      const int kind_col = f.column();
      const std::string kind = f.word("location kind");
      if (kind == "process") {
        li.kind = LocKind::kProcess;
      } else if (kind == "thread") {
        li.kind = LocKind::kThread;
      } else {
        throw ParseFail{DiagnosticKind::kBadEnum, kind_col,
                        "unknown location kind '" + kind + "'"};
      }
      li.rank = f.num<std::int32_t>("rank");
      li.thread = f.num<std::int32_t>("thread");
      li.name = f.rest_name();
      t.add_location(std::move(li));  // TraceError -> kIdOrder via run()
    } else if (kw == "comm") {
      const CommId id = f.num<CommId>("comm id");
      const int kind_col = f.column();
      const std::string kind = f.word("comm kind");
      CommKind ck;
      if (kind == "mpi") {
        ck = CommKind::kMpiComm;
      } else if (kind == "team") {
        ck = CommKind::kOmpTeam;
      } else {
        throw ParseFail{DiagnosticKind::kBadEnum, kind_col,
                        "unknown comm kind '" + kind + "'"};
      }
      const auto n = f.num<std::int64_t>("member count");
      // The member list lives on this line; a count the line cannot hold is
      // corrupt (and guards the pre-allocation against absurd sizes).
      if (n < 0 || static_cast<std::size_t>(n) > line.size()) {
        throw ParseFail{DiagnosticKind::kMalformedRecord, f.column(),
                        "implausible member count " + std::to_string(n)};
      }
      std::vector<LocId> members(static_cast<std::size_t>(n));
      for (auto& m : members) m = f.num<LocId>("member");
      for (LocId m : members) {
        if (m < 0 || static_cast<std::size_t>(m) >= t.location_count()) {
          throw ParseFail{DiagnosticKind::kUnknownLocation, kind_col,
                          "location " + std::to_string(m) +
                              " was never declared"};
        }
      }
      const std::string name = f.rest_name();
      const CommId got = t.add_comm(ck, std::move(members), name);
      if (got != id) {
        throw ParseFail{DiagnosticKind::kIdOrder, 1,
                        "comm id " + std::to_string(id) +
                            " out of dense order (added as " +
                            std::to_string(got) + ")"};
      }
    } else if (const EventRecord* r = find_event_record(kw)) {
      event(f, *r);
    } else {
      throw ParseFail{DiagnosticKind::kUnknownRecord, 1,
                      "unknown trace record '" + kw + "'"};
    }
  }

  /// Parses the fields of one event record in grammar order, then runs
  /// check_event; a defect is reported at the column of its field.
  void event(Fields& f, const EventRecord& r) {
    Event e;
    e.type = static_cast<EventType>(&r - kEventRecords);
    int columns[kMaxEventFields];
    std::string op_name;
    for (std::size_t i = 0; i < r.count; ++i) {
      const EventField& field = r.fields[i];
      columns[i] = f.column();
      std::int64_t v = 0xFF;  // an unknown op name stays out of range
      if (field.kind == FieldKind::kCollOp) {
        op_name = f.word(field.name);
        try {
          v = static_cast<std::int64_t>(coll_op_from_string(op_name));
        } catch (const TraceError&) {
        }
      } else if (field.kind == FieldKind::kI32) {
        v = f.num<std::int32_t>(field.name);
      } else {
        v = f.num<std::int64_t>(field.name);
      }
      set_field(e, field, v);
    }
    if (const EventDefect d = check_event(res_.trace, e)) {
      const auto i = static_cast<std::size_t>(d.field - r.fields);
      throw ParseFail{d.kind, columns[i],
                      d.kind == DiagnosticKind::kBadEnum
                          ? std::string("unknown ") + d.field->name + " '" +
                                op_name + "'"
                          : describe(d)};
    }
    res_.trace.append(e);
  }

  std::istream& is_;
  LoadOptions opt_;
  LoadResult res_;
  int lineno_ = 0;
  bool last_line_incomplete_ = false;
};

}  // namespace

std::string ParseDiagnostic::str() const {
  std::string out = binary ? "trace[bin]:record " : "trace:";
  out += std::to_string(line);
  if (column > 0) {
    out += ':';
    out += std::to_string(column);
  }
  out += ": ";
  out += to_string(kind);
  out += ": ";
  out += message;
  out += " (see docs/TRACE_FORMAT.md ";
  out += binary ? "§7" : spec_section(kind);
  out += ")";
  return out;
}

LoadResult load_trace(std::istream& is, const LoadOptions& options) {
  Loader loader(is, options);
  return loader.run();
}

Trace Trace::load(std::istream& is) {
  LoadOptions opt;
  opt.strict = true;
  return std::move(load_trace(is, opt).trace);
}

}  // namespace ats::trace
