#include "reap/common/csv.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "reap/common/assert.hpp"

namespace reap::common {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), ncols_(header.size()) {
  REAP_EXPECTS(ncols_ > 0);
  if (out_) add_row(header);
}

CsvWriter::~CsvWriter() { close(); }

namespace {

// One pass over the cell (find_first_of would run a memchr over the
// three specials for every byte).
bool needs_quoting(std::string_view cell) {
  return std::any_of(cell.begin(), cell.end(), [](char c) {
    return c == ',' || c == '"' || c == '\n';
  });
}

void append_quoted(std::string& out, std::string_view cell) {
  out += '"';
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

// Rows gather in the writer's buffer and reach the stream in pieces of
// about this size, each a single write.
constexpr std::size_t kWriteChunk = std::size_t{1} << 18;

}  // namespace

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  REAP_EXPECTS(cells.size() == ncols_);
  if (!out_) return;
  // The cells are appended as they are, and the line is checked once
  // where it landed: with no quote or newline and exactly one comma per
  // separator, no cell needs quoting (nearly every row). Otherwise the
  // line is rebuilt cell by cell.
  const std::size_t at = buf_.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) buf_ += ',';
    buf_ += cells[i];
  }
  const char* line = buf_.data() + at;
  const std::size_t n = buf_.size() - at;
  if (static_cast<std::size_t>(std::count(line, line + n, ',')) + 1 !=
          ncols_ ||
      std::memchr(line, '"', n) || std::memchr(line, '\n', n)) {
    buf_.resize(at);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) buf_ += ',';
      if (needs_quoting(cells[i]))
        append_quoted(buf_, cells[i]);
      else
        buf_ += cells[i];
    }
  }
  buf_ += '\n';
  if (buf_.size() >= kWriteChunk) flush();
}

void CsvWriter::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

bool CsvWriter::close() {
  if (out_.is_open()) {
    if (out_) flush();
    out_.close();
  }
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
