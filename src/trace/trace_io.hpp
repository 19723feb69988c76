// Robust trace loading: the programmatic face of the on-disk contract.
//
// docs/TRACE_FORMAT.md specifies the text format; this header specifies how
// a reader is allowed to fail.  Every way a record can be unusable has a
// DiagnosticKind, every diagnostic carries the 1-based line (and, where
// known, column) it was raised at, and the loader runs in one of two modes:
//
//   strict  — the first diagnostic aborts the load with a TraceError whose
//             message embeds line:column and cites the format document.
//             This is what Trace::load() does.
//   lenient — unusable records are dropped, the diagnostic is collected,
//             and loading continues; the caller gets whatever survived plus
//             the full damage report.  This is what a production tool does
//             with a truncated or corrupted trace.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace ats::trace {

/// Everything that can be wrong with a trace file, per record.  The golden
/// tests in tests/trace_io_diagnostics_test.cpp exercise each kind once.
enum class DiagnosticKind : std::uint8_t {
  kBadHeader,        ///< missing/foreign magic line or unsupported version
  kUnknownRecord,    ///< line starts with an unknown keyword
  kMalformedRecord,  ///< a field failed to parse or is missing
  kUnknownLocation,  ///< record references a location never declared
  kUnknownRegion,    ///< enter/exit references a region never declared
  kUnknownComm,      ///< message/collective references an unknown comm
  kIdOrder,          ///< region/loc/comm declared out of dense id order
  kBadEnum,          ///< unknown region kind, location kind, or coll op
  kTruncated,        ///< the stream ends inside the final record
  kCount_,           // sentinel
};

inline constexpr std::size_t kDiagnosticKindCount =
    static_cast<std::size_t>(DiagnosticKind::kCount_);

const char* to_string(DiagnosticKind k);

/// One recoverable defect found while loading a trace stream.  The same
/// kinds cover both formats: for the binary container (TRACE_FORMAT.md §7)
/// `binary` is set, `line` counts *records* instead of text lines, and
/// `column` holds the byte offset of the defect when known.
struct ParseDiagnostic {
  DiagnosticKind kind = DiagnosticKind::kMalformedRecord;
  int line = 0;    ///< 1-based line (text) or record ordinal (binary)
  int column = 0;  ///< 1-based column (text) / byte offset (binary); 0 unknown
  bool binary = false;  ///< raised by the binary loader; str() cites §7
  std::string message;

  /// "trace:12:7: malformed-record: ... (see docs/TRACE_FORMAT.md §4)"
  std::string str() const;
};

struct LoadOptions {
  /// Throw TraceError at the first diagnostic instead of recovering.
  bool strict = false;
  /// Lenient mode: stop *storing* diagnostics past this count (records are
  /// still counted in LoadResult::records_dropped, so the totals stay
  /// honest on pathological inputs).
  std::size_t max_diagnostics = 256;
};

struct LoadResult {
  Trace trace;
  std::vector<ParseDiagnostic> diagnostics;
  std::size_t records_ok = 0;       ///< records applied to the trace
  std::size_t records_dropped = 0;  ///< records skipped with a diagnostic
  bool header_ok = false;

  /// True when every record of the stream was usable.
  bool ok() const { return header_ok && records_dropped == 0; }
};

/// Loads a serialised trace with per-record fault recovery.  Never throws
/// in lenient mode (the default); in strict mode throws TraceError carrying
/// the first diagnostic.
LoadResult load_trace(std::istream& is, const LoadOptions& options = {});

// ------------------------------------------------- event-record schema
// The one description of the event records (docs/TRACE_FORMAT.md §4): the
// text saver writes and the text loader parses each record by walking its
// row, and check_event below is the record check both loaders run.

/// How a field is written in the text format.
enum class FieldKind : std::uint8_t {
  kI32,     ///< decimal std::int32_t
  kI64,     ///< decimal std::int64_t
  kTime,    ///< VTime as decimal nanoseconds
  kCollOp,  ///< collective-op name (to_string(CollOp))
};

/// What check_event requires of a field, in the order it checks.
enum class FieldCheck : std::uint8_t {
  kOp,        ///< a collective op in range, else kBadEnum
  kLocation,  ///< a declared location, else kUnknownLocation
  kComm,      ///< a declared comm, else kUnknownComm
  kRegion,    ///< a declared region, else kUnknownRegion
  kUnchecked,
};

struct EventField {
  const char* name = "";  ///< diagnostic name ("bad <name> field")
  FieldKind kind = FieldKind::kI32;
  std::uint8_t offset = 0;  ///< byte offset in Event (the §7 record layout)
  FieldCheck check = FieldCheck::kUnchecked;

  EventField() = default;
  constexpr EventField(const char* n, FieldKind k, std::size_t off,
                       FieldCheck c = FieldCheck::kUnchecked)
      : name(n), kind(k), offset(static_cast<std::uint8_t>(off)), check(c) {}
};

inline constexpr std::size_t kMaxEventFields = 9;

/// One event type's record: keyword, then its fields in text order.
struct EventRecord {
  const char* keyword = "";
  std::uint8_t count = 0;
  EventField fields[kMaxEventFields] = {};

  constexpr EventRecord(const char* kw, std::initializer_list<EventField> fs)
      : keyword(kw), count(static_cast<std::uint8_t>(fs.size())) {
    std::copy(fs.begin(), fs.end(), fields);
  }

  /// Index of the field check `c` applies to; count when there is none.
  constexpr std::size_t checked(FieldCheck c) const {
    std::size_t i = 0;
    while (i < count && fields[i].check != c) ++i;
    return i;
  }
};

namespace field {
inline constexpr EventField kLoc{"location", FieldKind::kI32,
                                 offsetof(Event, loc), FieldCheck::kLocation};
inline constexpr EventField kTime{"timestamp", FieldKind::kTime,
                                  offsetof(Event, t)};
inline constexpr EventField kRegion{"region", FieldKind::kI32,
                                    offsetof(Event, region),
                                    FieldCheck::kRegion};
inline constexpr EventField kComm{"comm", FieldKind::kI32,
                                  offsetof(Event, comm), FieldCheck::kComm};
inline constexpr EventField kSeq{"seq", FieldKind::kI64, offsetof(Event, seq)};
inline constexpr EventField kOp{"collective op", FieldKind::kCollOp,
                                offsetof(Event, op), FieldCheck::kOp};
inline constexpr EventField kRoot{"root", FieldKind::kI32,
                                  offsetof(Event, root)};
inline constexpr EventField kPeer{"peer", FieldKind::kI32,
                                  offsetof(Event, peer)};
inline constexpr EventField kTag{"tag", FieldKind::kI32, offsetof(Event, tag)};
inline constexpr EventField kBytes{"bytes", FieldKind::kI64,
                                   offsetof(Event, bytes)};
inline constexpr EventField kLock{"lock id", FieldKind::kI32,
                                  offsetof(Event, peer)};
}  // namespace field

/// Indexed by EventType value.
inline constexpr EventRecord kEventRecords[] = {
    {"E", {field::kLoc, field::kTime, field::kRegion}},
    {"X", {field::kLoc, field::kTime, field::kRegion}},
    {"S", {field::kLoc, field::kTime, field::kPeer, field::kTag, field::kComm,
           field::kBytes}},
    {"R", {field::kLoc, field::kTime, field::kPeer, field::kTag, field::kComm,
           field::kBytes}},
    {"C", {field::kLoc, field::kTime,
           {"enter timestamp", FieldKind::kTime, offsetof(Event, enter_t)},
           field::kComm, field::kSeq, field::kOp, field::kRoot,
           {"bytes in", FieldKind::kI64, offsetof(Event, bytes)},
           {"bytes out", FieldKind::kI64, offsetof(Event, bytes_out)}}},
    {"LA", {field::kLoc, field::kTime, field::kLock}},
    {"LR", {field::kLoc, field::kTime, field::kLock}},
    {"B", {field::kLoc, field::kTime, field::kComm, field::kSeq, field::kOp,
           field::kRoot, {"reduce op", FieldKind::kI32, offsetof(Event, tag)},
           field::kRegion}},
};
static_assert(std::size(kEventRecords) ==
                  static_cast<std::size_t>(EventType::kCollBegin) + 1,
              "one grammar row per EventType");
static_assert(std::is_standard_layout_v<Event> && sizeof(VTime) == 8,
              "grammar fields address Event members by byte offset");

/// Field `f` of `e`, widened to int64 (a collective op as its byte).
inline std::int64_t field_value(const Event& e, const EventField& f) {
  const auto* p = reinterpret_cast<const unsigned char*>(&e) + f.offset;
  if (f.kind == FieldKind::kCollOp) return *p;
  if (f.kind == FieldKind::kI32) {
    std::int32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  std::int64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The row of keyword `kw`; nullptr when `kw` names no event record.
const EventRecord* find_event_record(std::string_view kw);

/// check_event's finding: the first defect of an event record and the
/// field it sits in, or none (false).
struct EventDefect {
  DiagnosticKind kind = DiagnosticKind::kCount_;  ///< kCount_: no defect
  const EventField* field = nullptr;  ///< nullptr: the type byte is bad
  std::int64_t value = 0;             ///< the offending id, op or type byte

  explicit operator bool() const { return kind != DiagnosticKind::kCount_; }
};

/// "region 9 was never declared", "bad collective op byte 200", ...
/// Takes the defect by value so a caller's copy can stay in registers.
std::string describe(EventDefect d);

namespace detail {

/// check_event for the records of EventType value T.  The row is a
/// compile-time constant, so a record pays only for its own checks.
template <std::size_t T>
EventDefect check_record(const Trace& t, const Event& e) {
  constexpr const EventRecord& r = kEventRecords[T];
  constexpr std::size_t op = r.checked(FieldCheck::kOp);
  constexpr std::size_t loc = r.checked(FieldCheck::kLocation);
  constexpr std::size_t comm = r.checked(FieldCheck::kComm);
  constexpr std::size_t region = r.checked(FieldCheck::kRegion);
  // Field i's value must lie in [0, bound); a negative one wraps past it.
  const auto check = [&](std::size_t i, DiagnosticKind kind,
                         std::size_t bound) {
    const std::int64_t v = field_value(e, r.fields[i]);
    return static_cast<std::uint64_t>(v) < bound
               ? EventDefect{}
               : EventDefect{kind, &r.fields[i], v};
  };
  using DK = DiagnosticKind;
  if constexpr (op < r.count) {
    const auto ops = static_cast<std::size_t>(CollOp::kOmpIBarrier) + 1;
    if (const EventDefect d = check(op, DK::kBadEnum, ops)) return d;
  }
  if constexpr (loc < r.count) {
    const auto n = t.location_count();
    if (const EventDefect d = check(loc, DK::kUnknownLocation, n)) return d;
  }
  if constexpr (comm < r.count) {
    const auto n = t.comm_count();
    if (const EventDefect d = check(comm, DK::kUnknownComm, n)) return d;
  }
  if constexpr (region < r.count) {
    const auto n = t.regions().size();
    if (const EventDefect d = check(region, DK::kUnknownRegion, n)) return d;
  }
  return {};
}

template <std::size_t... T>
EventDefect check_event(const Trace& t, const Event& e,
                        std::index_sequence<T...>) {
  const auto type = static_cast<std::size_t>(e.type);
  // Dispatch on the type byte; a byte past the table keeps this defect.
  EventDefect d{
      DiagnosticKind::kBadEnum, nullptr, static_cast<std::int64_t>(type)};
  (void)((type == T && (d = check_record<T>(t, e), true)) || ...);
  return d;
}

}  // namespace detail

/// Says whether `e` may enter `t`: its type and collective op are in range
/// and the location, comm and region it references are declared — checked
/// in that order, so a record with several defects reports the first.
/// Allocation-free; the binary loader runs it on every record.
inline EventDefect check_event(const Trace& t, const Event& e) {
  return detail::check_event(
      t, e, std::make_index_sequence<std::size(kEventRecords)>{});
}

}  // namespace ats::trace
