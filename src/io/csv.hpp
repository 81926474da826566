#pragma once
// Minimal, dependency-free CSV reader/writer.
//
// Plans and raw results cross the stage boundaries of the methodology as
// CSV text files -- the same interchange the paper used between its design
// scripts, C measurement engine, and R analysis.  The dialect is RFC-4180:
// comma separated, double-quote quoting, quotes escaped by doubling.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cal::io {

/// Quotes a cell if it contains a comma, quote, or newline, or if it
/// starts with '#' (so a '#'-leading data cell can never be mistaken for
/// a metadata comment line by a reader).
std::string csv_escape(const std::string& cell);

/// Appends `cell` to a row under construction, quoted as csv_escape
/// would quote it.  Row writers build each row in one reused buffer.
void append_csv_cell(std::string& row, std::string_view cell);

/// Writes one CSV row (adds the trailing newline).
void write_csv_row(std::ostream& out, const std::vector<std::string>& cells);

/// Parses one logical CSV line into cells.  Quoted cells may contain
/// embedded '\n' (read_csv reassembles such lines before calling this).
std::vector<std::string> parse_csv_line(const std::string& line);

/// Reads a whole CSV document (vector of rows).  Skips blank lines, and
/// skips '#' comment lines only in the preamble -- i.e. before the first
/// data (header) row, where plan files keep their metadata comments.
/// Once the header has been seen, a line starting with '#' is data.
/// Physical lines ending inside an open quote are joined with the
/// following line(s), so quoted cells round-trip embedded newlines.
std::vector<std::vector<std::string>> read_csv(std::istream& in);

/// Convenience: reads a CSV file from disk.  Throws on open failure.
std::vector<std::vector<std::string>> read_csv_file(const std::string& path);

/// Convenience: writes rows to a CSV file.  Throws on open failure.
void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace cal::io
