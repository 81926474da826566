#include "io/csv.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cal::io {

namespace {

/// A leading '#' is quoted so the cell cannot collide with the comment
/// syntax plan files use in their preamble.
bool needs_quotes(std::string_view cell) {
  return cell.find_first_of(",\"\n\r") != std::string_view::npos ||
         (!cell.empty() && cell.front() == '#');
}

}  // namespace

std::string csv_escape(const std::string& cell) {
  if (!needs_quotes(cell)) return cell;
  std::string out;
  append_csv_cell(out, cell);
  return out;
}

void append_csv_cell(std::string& row, std::string_view cell) {
  if (!needs_quotes(cell)) {
    row.append(cell);
    return;
  }
  row += '"';
  for (const char c : cell) {
    if (c == '"') row += '"';
    row += c;
  }
  row += '"';
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& cells) {
  std::string row;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) row += ',';
    append_csv_cell(row, cells[i]);
  }
  row += '\n';
  out << row;
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

std::vector<std::vector<std::string>> read_csv(std::istream& in) {
  std::vector<std::vector<std::string>> rows;
  std::string line;
  std::string logical;     // accumulates a record spanning physical lines
  std::size_t quotes = 0;  // running '"' count over `logical`
  std::size_t line_no = 0;       // physical line being read (1-based)
  std::size_t record_start = 0;  // physical line the pending record began on
  bool pending = false;    // logical ends inside an open quote
  bool in_preamble = true; // '#' is a comment only before the header row
  while (std::getline(in, line)) {
    ++line_no;
    // Escaped quotes are two '"' characters, so quote-count parity tells
    // whether the record is complete or continues on the next line; only
    // the newly appended segment is counted, keeping parsing linear.
    const auto line_quotes = static_cast<std::size_t>(
        std::count(line.begin(), line.end(), '"'));
    if (!pending) {
      if (line.empty()) continue;
      if (in_preamble && line[0] == '#') continue;
      logical = std::move(line);
      quotes = line_quotes;
      record_start = line_no;
    } else {
      // getline consumed the newline that belongs to the open quoted
      // cell; restore it before appending the continuation.
      logical += '\n';
      logical += line;
      quotes += line_quotes;
    }
    pending = quotes % 2 != 0;
    if (pending) continue;
    rows.push_back(parse_csv_line(logical));
    in_preamble = false;
  }
  if (pending) {
    // Typically a stray unpaired '"' in a hand-edited file: everything
    // from the named line onward was absorbed into one quoted cell.
    throw std::runtime_error(
        "csv: unterminated quoted cell (record starting at line " +
        std::to_string(record_start) + ")");
  }
  return rows;
}

std::vector<std::vector<std::string>> read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open '" + path + "'");
  return read_csv(in);
}

void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv: cannot create '" + path + "'");
  for (const auto& row : rows) write_csv_row(out, row);
}

}  // namespace cal::io
