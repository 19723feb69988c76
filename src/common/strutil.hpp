// Small string helpers used by the report/gen/diff layers and the journals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ats {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Pads/truncates `s` to exactly `width` characters (left aligned).
std::string pad_right(std::string_view s, std::size_t width);

/// Pads `s` on the left to at least `width` characters.
std::string pad_left(std::string_view s, std::size_t width);

/// Appends pad_right(s, width) without the temporary.
void append_pad_right(std::string& out, std::string_view s, std::size_t width);

/// Right-aligns what was appended to `out` since offset `from` in at least
/// `width` columns, as pad_left would.
void right_align(std::string& out, std::size_t from, std::size_t width);

/// Appends `v` in printf "%.*f" notation (byte for byte, at any magnitude).
void append_fixed(std::string& out, double v, int precision);

/// printf-style double with fixed precision ("%.*f" byte for byte, at any
/// magnitude).
std::string fmt_double(double v, int precision = 3);

/// Percent rendering ("12.3%"); `frac` is a fraction of one.
std::string fmt_percent(double frac, int precision = 1);

/// The severity CSV schema (docs/DIFF.md): this header line, then one
/// append_severity_row per cell in SeverityCube::for_each order.  Its one
/// writer is diff::Snapshot::severity_csv (report::severity_csv goes
/// through it).
inline constexpr std::string_view kSeverityCsvHeader =
    "property,call_path,location,severity_sec";

/// Seconds that are a whole number of nanoseconds print from that integer
/// when |ns| is below this bound.  v = ns * 1e-9 carries a relative error
/// under 1.6 * 2^-53 (the double 1e-9 is off by 0.56 ulp, the product
/// rounds once), so below 2^51 ns v is within 0.4 ns of ns / 10^9, and
/// "%.9f" of v prints exactly the digits of ns.
inline constexpr std::int64_t kExactNsBound = std::int64_t{1} << 51;

/// Appends "property,call_path,location,<seconds to 9 decimals>\n".  The
/// seconds are "%.9f" byte for byte: from integer nanoseconds when the
/// nearest integer ns to seconds * 1e9 gives back `seconds` bit for bit as
/// ns * 1e-9 and |ns| < kExactNsBound, through append_fixed otherwise.
void append_severity_row(std::string& out, std::string_view property,
                         std::string_view call_path, std::string_view location,
                         double seconds);

/// `v` in lowercase hex without leading zeros ("0" for zero): the one
/// writer of the fingerprints and ids that journals and responses carry.
std::string hex64(std::uint64_t v);

/// Parses all of `s` as 1-16 hex digits, either case, into *out: no
/// prefix, sign or blanks.  Returns false (leaving *out untouched) for
/// anything else.
bool parse_hex64(std::string_view s, std::uint64_t* out);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// The first line of a (possibly multi-line) message, without its newline.
std::string first_line(std::string_view s);

/// Repeats character `c` `n` times.
std::string repeat(char c, std::size_t n);

/// Escapes &, <, > and " for an XML attribute or text node.
std::string xml_escape(std::string_view s);

}  // namespace ats
