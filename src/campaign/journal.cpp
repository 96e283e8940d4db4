#include "reap/campaign/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "reap/common/crc32c.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/file.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"

namespace reap::campaign {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

// Parses the header object of line 1. The journal is self-describing: all
// fields are flat scalars so the shared JSONL-subset parser handles it.
bool parse_header(const std::string& line, JournalHeader& h,
                  std::string* error) {
  const auto fields = common::parse_jsonl_line(line);
  if (!fields) return fail(error, "journal: malformed header line");
  bool saw_format = false;
  for (const auto& [key, value] : *fields) {
    if (key == "format") {
      h.format = value;
      saw_format = true;
    } else if (key == "name") {
      h.name = value;
    } else if (key == "spec_hash") {
      if (!common::parse_hex64(value, h.spec_hash))
        return fail(error, "journal: bad spec_hash: " + value);
    } else if (key == "points") {
      if (!common::parse_u64(value, h.points))
        return fail(error, "journal: bad points: " + value);
    } else if (key == "shard_index") {
      if (!common::parse_u64(value, h.shard_index))
        return fail(error, "journal: bad shard_index: " + value);
    } else if (key == "shard_count") {
      if (!common::parse_u64(value, h.shard_count))
        return fail(error, "journal: bad shard_count: " + value);
    } else if (key == "columns") {
      h.columns = common::split(value, ',');
    }
    // Unknown header fields are ignored: newer writers may add metadata.
  }
  if (!saw_format ||
      (h.format != "reap-journal-v1" && h.format != "reap-journal-v2"))
    return fail(error, "journal: not a reap-journal file");
  if (h.columns.empty()) return fail(error, "journal: header lists no columns");
  return true;
}

// Owns an open file descriptor.
struct Fd {
  explicit Fd(int fd) : fd(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
};

// The checksum suffix of a v2 row: `,"crc":"xxxxxxxx"}` closes the line.
// The CRC covers the row body -- the line with that suffix removed and the
// closing brace restored, i.e. exactly the v1 serialization of the row.
constexpr std::string_view kCrcSuffix = ",\"crc\":\"";

}  // namespace

RowVerdict JournalRowParser::scan(std::string_view line) {
  fields_.clear();
  // A line ending in the checksum suffix is a v2 row; anything else is
  // read as a v1 row, which simply has no checksum to verify.
  bool has_crc = false;
  if (const auto pos = line.rfind(kCrcSuffix); pos != std::string_view::npos) {
    const auto tail = line.substr(pos + kCrcSuffix.size());
    if (tail.size() == 10 && tail.substr(8) == "\"}") {
      std::uint32_t stored = 0;
      if (!common::parse_hex32(tail.substr(0, 8), stored))
        return RowVerdict::malformed;
      if (common::crc32c(line.substr(0, pos), "}") != stored)
        return RowVerdict::bad_crc;
      has_crc = true;
    }
  }
  if (!common::scan_jsonl_line(line, fields_)) return RowVerdict::malformed;
  // The whole line parses exactly when its body does, and then its last
  // field is the checksum: the suffix's quote after a comma cannot sit
  // inside a string or a raw token of a line that parses.
  if (has_crc) fields_.pop_back();
  return RowVerdict::ok;
}

bool JournalRowParser::to_row(const std::vector<std::string>& columns,
                              JournalRow& row) const {
  // Column 0 is the grid index by construction of result_header().
  if (columns.empty() || columns[0] != "index") return false;
  if (fields_.size() != columns.size() + 1 || !has_key()) return false;
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (!fields_[i + 1].name_is(columns[i])) return false;
  fields_[0].value_to(row.key);
  row.cells.resize(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i)
    fields_[i + 1].value_to(row.cells[i]);
  return common::parse_u64(row.cells[0], row.index);
}

RowVerdict JournalRowParser::parse(std::string_view line,
                                   const std::vector<std::string>& columns,
                                   JournalRow& row) {
  const RowVerdict v = scan(line);
  if (v != RowVerdict::ok) return v;
  return to_row(columns, row) ? RowVerdict::ok : RowVerdict::malformed;
}

JournalHeader JournalHeader::for_run(const CampaignSpec& spec,
                                     std::size_t n_points,
                                     std::size_t shard_index,
                                     std::size_t shard_count) {
  JournalHeader h;
  h.name = spec.name;
  h.spec_hash = campaign::spec_hash(spec);
  h.points = n_points;
  h.shard_index = shard_index;
  h.shard_count = shard_count;
  h.columns = result_header();
  return h;
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header)
    : out_(path, std::ios::trunc), columns_(header.columns) {
  if (!out_) return;
  header_line_ =
      "{\"format\":\"" + common::json_escape(header.format) +
      "\",\"name\":\"" + common::json_escape(header.name) +
      "\",\"spec_hash\":\"" + common::fmt_hex64(header.spec_hash) +
      "\",\"points\":" + std::to_string(header.points) +
      ",\"shard_index\":" + std::to_string(header.shard_index) +
      ",\"shard_count\":" + std::to_string(header.shard_count) +
      ",\"columns\":\"" + common::json_escape(join(header.columns, ',')) +
      "\"}";
  out_ << header_line_ << '\n';
  out_.flush();
}

JournalWriter::JournalWriter(const std::string& path)
    : out_(path, std::ios::app), columns_(result_header()) {}

bool JournalWriter::ok() const { return static_cast<bool>(out_); }

void JournalWriter::set_mirror(std::function<void(const std::string&)> fn) {
  mirror_ = std::move(fn);
  // The receiver rebuilds the journal from the stream, so it needs the
  // header first, exactly as a reader of the file would see it.
  if (mirror_ && !header_line_.empty() && static_cast<bool>(out_))
    mirror_(header_line_);
}

std::string JournalWriter::render(const std::string& key,
                                  const std::vector<std::string>& cells) const {
  std::string line = "{\"key\":\"" + common::json_escape(key) + "\",";
  line += jsonl_fields(columns_, cells);
  // The row body is the line so far plus the closing brace.
  const std::uint32_t crc = common::crc32c(line, "}");
  line += kCrcSuffix;
  line += common::fmt_hex32(crc);
  line += "\"}\n";
  return line;
}

void JournalWriter::add(const std::string& key,
                        const std::vector<std::string>& cells) {
  append(key, render(key, cells));
}

void JournalWriter::append(const std::string& key, const std::string& line) {
  // Sticky after the first failure: appending past an error would put
  // rows after a hole and break "journal = durable prefix of the run".
  if (!out_ || io_errno_ != 0) return;

  if (const auto f = common::fault::hit("journal.write", key)) {
    if (f->kind == common::fault::Kind::torn_write) {
      // A mid-write kill: some prefix of the line lands, then the
      // process dies. Exactly what read_journal's torn-tail path heals.
      const auto n = f->param ? std::min<std::size_t>(f->param, line.size())
                              : line.size() / 2;
      out_.write(line.data(), static_cast<std::streamsize>(n));
      out_.flush();
      std::_Exit(common::fault::kCrashExit);
    }
    io_errno_ = f->kind == common::fault::Kind::enospc ? ENOSPC : EIO;
    return;
  }

  errno = 0;
  out_ << line;
  out_.flush();
  if (const auto f = common::fault::hit("journal.fsync", key))
    io_errno_ = f->kind == common::fault::Kind::enospc ? ENOSPC : EIO;
  if (!out_ && io_errno_ == 0) io_errno_ = errno != 0 ? errno : EIO;
  if (io_errno_ == 0 && mirror_)
    mirror_(line.substr(0, line.size() - 1));  // without the '\n'
}

std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error) {
  const auto text = common::read_file(path);
  if (!text) {
    fail(error, "cannot open journal: " + path);
    return std::nullopt;
  }
  // Non-empty lines as views into the one read; line numbers count them.
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text->size();) {
    const auto nl = std::min(text->find('\n', pos), text->size());
    if (nl > pos) lines.emplace_back(text->data() + pos, nl - pos);
    pos = nl + 1;
  }
  if (lines.empty()) {
    fail(error, "journal is empty: " + path);
    return std::nullopt;
  }

  Journal j;
  if (!parse_header(std::string(lines[0]), j.header, error))
    return std::nullopt;
  j.rows.reserve(lines.size() - 1);
  JournalRowParser parser;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    JournalRow row;
    switch (parser.parse(lines[i], j.header.columns, row)) {
      case RowVerdict::ok:
        j.rows.push_back(std::move(row));
        break;
      case RowVerdict::malformed:
        if (i + 1 == lines.size()) {
          // A torn final line is the expected signature of a mid-write
          // kill; the row it carried simply re-runs on resume.
          j.truncated_tail = true;
        } else {
          j.corrupt.push_back({i + 1, "malformed row"});
        }
        break;
      case RowVerdict::bad_crc:
        // A complete line whose checksum fails is damage, not a tear --
        // even on the last line.
        j.corrupt.push_back({i + 1, "CRC mismatch"});
        break;
    }
  }
  return j;
}

std::optional<JournalHeader> read_journal_header(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open journal: " + path);
    return std::nullopt;
  }
  std::string line;
  if (!std::getline(in, line) || line.empty()) {
    fail(error, "journal is empty: " + path);
    return std::nullopt;
  }
  JournalHeader h;
  if (!parse_header(line, h, error)) return std::nullopt;
  return h;
}

bool rewrite_journal(const std::string& path, const Journal& j,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    // Only parsed rows are re-serialized, so a rewrite heals corrupt
    // lines along with the torn tail -- and upgrades v1 files to v2,
    // since the writer always emits checksummed rows.
    JournalHeader header = j.header;
    header.format = "reap-journal-v2";
    JournalWriter writer(tmp, header);
    for (const auto& row : j.rows) writer.add(row.key, row.cells);
    if (!writer.ok()) return fail(error, "cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    return fail(error, "cannot replace " + path + ": " + ec.message());
  return true;
}

bool journal_compatible(const JournalHeader& header, const CampaignSpec& spec,
                        std::size_t n_points, std::size_t shard_index,
                        std::size_t shard_count, std::string* why) {
  const auto mismatch = [&](const std::string& what) {
    if (why) *why = "journal " + what;
    return false;
  };
  if (header.spec_hash != campaign::spec_hash(spec))
    return mismatch("was recorded for a different spec (spec hash " +
                    common::fmt_hex64(header.spec_hash) + " != " +
                    common::fmt_hex64(campaign::spec_hash(spec)) + ")");
  if (header.points != n_points)
    return mismatch("grid size mismatch (" + std::to_string(header.points) +
                    " != " + std::to_string(n_points) + ")");
  if (header.shard_index != shard_index || header.shard_count != shard_count)
    return mismatch("shard mismatch (" + std::to_string(header.shard_index) +
                    "/" + std::to_string(header.shard_count) + " != " +
                    std::to_string(shard_index) + "/" +
                    std::to_string(shard_count) + ")");
  if (header.columns != result_header())
    return mismatch("column schema differs from this binary's");
  return true;
}

JournalTailer::JournalTailer(std::string path) : path_(std::move(path)) {}

std::vector<std::string> JournalTailer::poll() {
  std::vector<std::string> fresh;
  // An injected read fault models a flaky shared filesystem: the poll
  // sees nothing this round and simply retries later.
  if (common::fault::hit("tailer.read", path_)) return fresh;
  const Fd file(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.fd < 0) return fresh;  // not created yet (worker still starting)
  // Size and identity of the file actually opened, so a rename landing
  // between the checks and the read cannot mix two files.
  struct stat st {};
  if (::fstat(file.fd, &st) != 0) return fresh;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // A different file at the path, or a shorter one, is resume's atomic
  // rewrite landing: the bytes at our offset are no longer the bytes we
  // consumed, so rescan from the start. `seen_` keeps rescanned rows from
  // being re-reported.
  const auto dev = static_cast<std::uint64_t>(st.st_dev);
  const auto ino = static_cast<std::uint64_t>(st.st_ino);
  if (dev != dev_ || ino != ino_ || size < offset_) offset_ = 0;
  dev_ = dev;
  ino_ = ino;
  if (size == offset_) return fresh;

  std::string appended(static_cast<std::size_t>(size - offset_), '\0');
  std::size_t got = 0;
  while (got < appended.size()) {
    const auto n = ::pread(file.fd, appended.data() + got,
                           appended.size() - got,
                           static_cast<off_t>(offset_ + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  appended.resize(got);

  // Consume only through the last newline: everything after it is a line
  // still being written.
  const auto last_nl = appended.rfind('\n');
  if (last_nl == std::string::npos) return fresh;
  const std::string_view text(appended.data(), last_nl + 1);
  for (std::size_t pos = 0; pos < text.size();) {
    const auto nl = text.find('\n', pos);
    const auto line = text.substr(pos, nl - pos);
    pos = nl + 1;
    // Rows lead with a "key" field; the header line (and any malformed
    // mid-flight content) does not and is skipped. A checksummed row
    // that fails to verify is damage, not progress: skip it unseen so
    // the supervisor still counts that point as outstanding.
    if (line.empty() || parser_.scan(line) != RowVerdict::ok ||
        !parser_.has_key())
      continue;
    auto key = parser_.fields()[0].value_text();
    if (seen_.insert(key).second) fresh.push_back(std::move(key));
  }
  offset_ += last_nl + 1;
  return fresh;
}

std::vector<JournalRow> merge_journal_rows(std::vector<JournalRow> a,
                                           std::vector<JournalRow> b) {
  std::vector<JournalRow> all = std::move(a);
  all.insert(all.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
  // Keys are viewed where they sit, so no row moves until every
  // duplicate is known.
  std::vector<bool> first(all.size());
  {
    std::unordered_set<std::string_view> seen;
    seen.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
      first[i] = seen.insert(all[i].key).second;
  }
  std::vector<JournalRow> unique;
  unique.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (first[i]) unique.push_back(std::move(all[i]));
  std::stable_sort(unique.begin(), unique.end(),
                   [](const JournalRow& x, const JournalRow& y) {
                     return x.index < y.index;
                   });
  return unique;
}

void emit_rows(const std::vector<JournalRow>& rows, ResultSink& sink) {
  for (const auto& row : rows) sink.add_cells(row.cells);
}

}  // namespace reap::campaign
