#include "common/strings.h"

#include <cstdio>

namespace qox {

std::vector<std::string> Split(const std::string& text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string CsvEscape(const std::string& cell) {
  const bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string CsvEncodeLine(const std::vector<std::string>& cells) {
  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvEscape(cells[i]);
  }
  return out;
}

void CsvDecodeLine(std::string_view line, std::vector<std::string>* cells) {
  const size_t n = line.size();
  size_t used = 0;
  size_t i = 0;
  while (true) {
    if (used == cells->size()) cells->emplace_back();
    std::string& cell = (*cells)[used++];
    cell.clear();
    bool in_quotes = false;
    // Copies each run of plain characters in one append; only quotes and
    // the cell-ending comma are handled one character at a time.
    while (i < n) {
      size_t end = i;
      if (in_quotes) {
        while (end < n && line[end] != '"') ++end;
        cell.append(line, i, end - i);
        if (end == n) {
          i = n;
        } else if (end + 1 < n && line[end + 1] == '"') {
          cell.push_back('"');
          i = end + 2;
        } else {
          in_quotes = false;
          i = end + 1;
        }
        continue;
      }
      while (end < n && line[end] != ',' && line[end] != '"') ++end;
      cell.append(line, i, end - i);
      i = end;
      if (i == n || line[i] == ',') break;
      in_quotes = true;
      ++i;
    }
    if (i >= n) break;
    ++i;  // the comma
  }
  cells->resize(used);
}

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace qox
