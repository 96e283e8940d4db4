#include "reap/common/csv.hpp"

#include <algorithm>

#include "reap/common/assert.hpp"

namespace reap::common {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), ncols_(header.size()) {
  REAP_EXPECTS(ncols_ > 0);
  if (out_) add_row(header);
}

namespace {

// One pass over the cell (find_first_of would run a memchr over the
// three specials for every byte).
bool needs_quoting(const std::string& cell) {
  return std::any_of(cell.begin(), cell.end(), [](char c) {
    return c == ',' || c == '"' || c == '\n';
  });
}

void append_quoted(std::string& out, const std::string& cell) {
  out += '"';
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

}  // namespace

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  REAP_EXPECTS(cells.size() == ncols_);
  if (!out_) return;
  // The line is assembled in a reused buffer and written once; a cell
  // that needs no quoting (nearly all of them) is appended as is.
  line_.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line_ += ',';
    if (needs_quoting(cells[i]))
      append_quoted(line_, cells[i]);
    else
      line_ += cells[i];
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

bool CsvWriter::close() {
  if (out_.is_open()) out_.close();
  return !out_.fail();
}

std::string csv_escape(const std::string& cell) {
  if (!needs_quoting(cell)) return cell;
  std::string quoted;
  append_quoted(quoted, cell);
  return quoted;
}

std::optional<std::vector<std::string>> parse_csv_line(
    const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (true) {
    cell.clear();
    if (i < n && line[i] == '"') {
      ++i;  // opening quote
      bool closed = false;
      while (i < n) {
        if (line[i] == '"') {
          if (i + 1 < n && line[i + 1] == '"') {  // escaped quote
            cell += '"';
            i += 2;
          } else {
            ++i;  // closing quote
            closed = true;
            break;
          }
        } else {
          cell += line[i++];
        }
      }
      if (!closed) return std::nullopt;
      if (i < n && line[i] != ',') return std::nullopt;
    } else {
      while (i < n && line[i] != ',') {
        if (line[i] == '"') return std::nullopt;  // quote inside bare cell
        cell += line[i++];
      }
    }
    cells.push_back(cell);
    if (i >= n) break;
    ++i;  // the comma
    if (i == n) {  // trailing comma: final empty cell
      cells.emplace_back();
      break;
    }
  }
  return cells;
}

}  // namespace reap::common
