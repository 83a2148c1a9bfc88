// Small string utilities: CSV encoding/decoding, join/split, formatting.

#ifndef QOX_COMMON_STRINGS_H_
#define QOX_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace qox {

/// Splits on a delimiter; preserves empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(const std::string& text, char delim);

/// Joins with a delimiter.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// Encodes one CSV cell: quotes when the cell contains comma, quote, or
/// newline; doubles embedded quotes (RFC 4180).
std::string CsvEscape(const std::string& cell);

/// Encodes a full CSV line (no trailing newline).
std::string CsvEncodeLine(const std::vector<std::string>& cells);

/// Decodes one CSV line into `*cells` (RFC 4180 quoting), replacing its
/// contents. The vector and its strings are reused, so a caller decoding
/// line after line into one vector allocates only when a cell outgrows
/// every earlier one. Malformed trailing quotes are tolerated by treating
/// the rest of the line as literal.
void CsvDecodeLine(std::string_view line, std::vector<std::string>* cells);

/// printf-style double formatting with fixed decimals ("12.35").
std::string FormatDouble(double v, int decimals);

}  // namespace qox

#endif  // QOX_COMMON_STRINGS_H_
