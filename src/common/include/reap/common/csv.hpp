// Minimal CSV writer so bench output can be re-plotted externally, plus the
// matching line parser so campaign tools can read their own output back.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace reap::common {

class CsvWriter {
 public:
  // Opens `path` for writing and emits the header row. `ok()` reports
  // whether the stream is usable; writes on a failed stream are no-ops.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  bool ok() const { return static_cast<bool>(out_); }

  void add_row(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
  std::size_t ncols_;
  std::string line_;  // add_row's buffer, kept across rows
};

// Canonical cell quoting: bare unless the cell contains , " or a newline,
// in which case RFC-4180 double-quoting. Because quoting is a pure function
// of the cell bytes, parse_csv_line followed by re-escaping reproduces a
// CsvWriter line byte-for-byte -- the property shard merging relies on.
std::string csv_escape(const std::string& cell);

// Parses one line previously produced by CsvWriter (cells contain no
// embedded newlines). Returns nullopt on malformed quoting (unterminated
// quote, text after a closing quote).
std::optional<std::vector<std::string>> parse_csv_line(
    const std::string& line);

}  // namespace reap::common
