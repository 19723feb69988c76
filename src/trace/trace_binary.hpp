// Record-packed binary trace container (docs/TRACE_FORMAT.md §7).
//
// The binary format exists for weak-scale sweeps: at 100k locations the
// text format costs a parse per field, while the binary container stores
// event records exactly as the in-memory `Event` struct (72 bytes, little
// endian, no compiler padding — see the static_asserts in trace.hpp), so a
// loader can validate the file once and then point the analyzer's merge at
// the mapped records *in place*.  Layout:
//
//   header      magic "\x89ATSBIN\n" (8 bytes) · u32 version=1 · u32 reserved
//   regions     u64 count · per region: u8 kind · u32 name_len · name bytes
//   locations   u64 count · per location: i32 parent · u8 kind · i32 rank ·
//               i32 thread · u32 name_len · name bytes
//   comms       u64 count · per comm: u8 kind · u32 member_count ·
//               i32 members[] · u32 name_len · name bytes
//   padding     zero bytes to the next 8-byte boundary
//   events      u64 location_count · per location: u64 count ·
//               count × 72-byte Event records
//
// All integers are little-endian.  Region/location/comm ids are implicit
// (dense, in table order) — the tables *are* the string interning.  Event
// blocks stay 8-aligned because the tables are padded and 72 % 8 == 0.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace_io.hpp"

namespace ats::trace {

/// First bytes of a binary trace file.  0x89 + "ATSBIN" + newline, same
/// rationale as PNG: never valid UTF-8 text, survives accidental text-mode
/// mangling detection.
inline constexpr char kBinaryMagic[8] = {'\x89', 'A', 'T', 'S',
                                         'B',    'I', 'N', '\n'};
inline constexpr std::uint32_t kBinaryVersion = 1;

enum class TraceFormat : std::uint8_t { kText, kBinary };

/// Peeks at the first bytes of `is` (stream position is restored) and
/// classifies the container.  Anything that does not start with the binary
/// magic is treated as text — the text loader produces the diagnostics for
/// garbage input.
TraceFormat detect_trace_format(std::istream& is);

/// Loads a binary trace from a byte buffer, zero-copy: when the buffer is
/// 8-aligned and every record validates, the returned Trace's per-location
/// event spans point straight into `data` (kept alive via the shared_ptr).
/// Misaligned buffers and — in lenient mode — buffers with defective
/// records fall back to copying the surviving records.  Mirrors
/// load_trace(): lenient mode collects diagnostics, strict throws
/// TraceError at the first defect.
LoadResult load_trace_binary(std::shared_ptr<const std::string> data,
                             const LoadOptions& options = {});

/// mmaps `path` and loads it zero-copy (the mapping is owned by the
/// returned Trace).  Falls back to reading the file into memory when mmap
/// is unavailable.  Throws TraceError when the file cannot be opened.
LoadResult load_trace_binary_file(const std::string& path,
                                  const LoadOptions& options = {});

/// Convenience for tools: sniffs the magic of `path` and dispatches to the
/// binary (mmap) or text loader.  Throws TraceError when the file cannot be
/// opened.
LoadResult load_trace_auto_file(const std::string& path,
                                const LoadOptions& options = {});

}  // namespace ats::trace
