// Small string helpers used by the report/gen/diff layers.
#pragma once

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

/// printf-style double with fixed precision ("%.*f" byte for byte, at any
/// magnitude).
std::string fmt_double(double v, int precision = 3);

/// Percent rendering ("12.3%"); `frac` is a fraction of one.
std::string fmt_percent(double frac, int precision = 1);

/// The severity CSV schema (docs/DIFF.md): this header line, then one
/// append_severity_row per cell in SeverityCube::for_each order.  Both
/// report::severity_csv and diff::Snapshot::severity_csv write it through
/// these two, so their bytes cannot drift apart.
inline constexpr std::string_view kSeverityCsvHeader =
    "property,call_path,location,severity_sec";

/// Appends "property,call_path,location,<seconds to 9 decimals>\n".
void append_severity_row(std::string& out, std::string_view property,
                         std::string_view call_path, std::string_view location,
                         double seconds);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Repeats character `c` `n` times.
std::string repeat(char c, std::size_t n);

/// Escapes &, <, > and " for an XML attribute or text node.
std::string xml_escape(std::string_view s);

}  // namespace ats
