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
#include <utility>

#include "reap/common/crc32c.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/file.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"

namespace reap::campaign {
namespace {

using common::fail;

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

// The checksum suffix of a row: `,"crc":"xxxxxxxx"}` closes the line. The
// CRC covers the row body -- the line with that suffix removed and the
// closing brace restored.
constexpr std::string_view kCrcSuffix = ",\"crc\":\"";

// Why the reader refuses a row, in load_rows' words.
constexpr char kMalformed[] = "malformed JSONL";
constexpr char kCrcMismatch[] = "row CRC mismatch";
constexpr char kNoCrc[] = "row without CRC";
constexpr char kBadColumns[] = "inconsistent columns";

// Reads line 1 of a journal through `reader`: true on a journal header,
// otherwise false with why it is none in the journal readers' words.
bool read_header_line(JsonlRowReader& reader, std::string_view line,
                      std::string* error) {
  switch (reader.add(line)) {
    case JsonlRowReader::Line::header:
      return true;
    case JsonlRowReader::Line::bad_header:
      return fail(error, reader.what());
    case JsonlRowReader::Line::torn:
      return fail(error, "journal: malformed header line");
    default:
      return fail(error, "journal: not a reap-journal file");
  }
}

}  // namespace

JsonlRowReader::Line JsonlRowReader::add(std::string_view line) {
  const auto refuse = [this](Line verdict, const char* what) {
    what_ = what;
    return verdict;
  };
  const bool first = std::exchange(first_, false);
  sound_ = false;
  // A line ending in the checksum suffix is a journal row; anything else
  // has no checksum to verify.
  has_crc_ = false;
  if (const auto pos = line.rfind(kCrcSuffix); pos != std::string_view::npos) {
    const auto tail = line.substr(pos + kCrcSuffix.size());
    if (tail.size() == 10 && tail.substr(8) == "\"}") {
      std::uint32_t stored = 0;
      if (!common::parse_hex32(tail.substr(0, 8), stored))
        return refuse(Line::torn, kMalformed);
      has_crc_ = true;
      if (common::crc32c(line.substr(0, pos), "}") != stored)
        return refuse(Line::damaged, kCrcMismatch);
    }
  }
  if (!common::scan_jsonl_line(line, fields_))
    return refuse(Line::torn, kMalformed);
  // The whole line parses exactly when its body does, and then its last
  // field is the checksum: the suffix's quote after a comma cannot sit
  // inside a string or a raw token of a line that parses.
  if (has_crc_) fields_.pop_back();
  sound_ = true;
  if (first)
    for (const auto& f : fields_)
      if (f.name_is("format")) return read_header();
  // In a journal every other line is a row: a row without its checksum
  // is damage; the wrong shape is a malformed row, which on the last
  // line is a torn tail.
  if (journal_) {
    if (!has_crc_) return refuse(Line::damaged, kNoCrc);
    if (!read_journal_row()) return refuse(Line::torn, kBadColumns);
    return Line::row;
  }
  // Sink rows: the first one names the columns. Journal rows lead with
  // their key, which is not a column.
  const std::size_t begin = !fields_.empty() && fields_[0].name_is("key");
  if (table_.header.empty())
    for (std::size_t i = begin; i < fields_.size(); ++i)
      table_.header.push_back(fields_[i].name_text());
  if (fields_.size() - begin != table_.header.size())
    return refuse(Line::damaged, kBadColumns);
  std::vector<std::string> cells;
  cells.reserve(table_.header.size());
  for (std::size_t i = begin; i < fields_.size(); ++i) {
    if (!fields_[i].name_is(table_.header[i - begin]))
      return refuse(Line::damaged, kBadColumns);
    cells.push_back(fields_[i].value_text());
  }
  table_.rows.push_back(std::move(cells));
  return Line::row;
}

// The one journal header parser. All fields are flat scalars, in any
// order; unknown ones are ignored, since newer writers may add metadata.
JsonlRowReader::Line JsonlRowReader::read_header() {
  const auto refuse = [this](std::string why) {
    what_ = std::move(why);
    return Line::bad_header;
  };
  JournalHeader& h = header_;
  bool saw_points = false;
  for (const auto& f : fields_) {
    const auto value = f.value_text();
    if (f.name_is("format")) {
      h.format = value;
    } else if (f.name_is("name")) {
      h.name = value;
    } else if (f.name_is("spec_hash")) {
      if (!common::parse_hex64(value, h.spec_hash))
        return refuse("journal: bad spec_hash: " + value);
    } else if (f.name_is("points")) {
      if (!common::parse_u64(value, h.points))
        return refuse("journal: bad points: " + value);
      saw_points = true;
    } else if (f.name_is("shard_index")) {
      if (!common::parse_u64(value, h.shard_index))
        return refuse("journal: bad shard_index: " + value);
    } else if (f.name_is("shard_count")) {
      if (!common::parse_u64(value, h.shard_count))
        return refuse("journal: bad shard_count: " + value);
    } else if (f.name_is("columns")) {
      h.columns = common::split(value, ',');
    }
  }
  if (h.format != kJournalFormat)
    return refuse("journal: unsupported format " + h.format +
                  " (this build reads " + kJournalFormat + ")");
  // The grid size is what lets a report tell a dense prefix of the grid
  // from the whole of it.
  if (!saw_points) return refuse("journal: header has no points");
  if (h.columns.empty()) return refuse("journal: header lists no columns");
  journal_ = true;
  table_.header = h.columns;
  table_.expected_points = h.points;
  return Line::header;
}

// The shape check on a journal row: "key", then exactly the header's
// columns by name, with a numeric grid index in column 0 ("index").
// Appends the row's cells to the table.
bool JsonlRowReader::read_journal_row() {
  const auto& columns = table_.header;
  // Column 0 is the grid index by construction of result_header().
  if (columns[0] != "index") return false;
  if (fields_.size() != columns.size() + 1 || !fields_[0].name_is("key"))
    return false;
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (!fields_[i + 1].name_is(columns[i])) return false;
  std::vector<std::string> cells(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i)
    fields_[i + 1].value_to(cells[i]);
  std::uint64_t index = 0;
  if (!common::parse_u64(cells[0], index)) return false;
  table_.rows.push_back(std::move(cells));
  return true;
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
      ",\"columns\":\"" +
      common::json_escape(common::join(header.columns, ',')) + "\"}";
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

  JsonlRowReader reader;
  if (!read_header_line(reader, lines[0], error)) return std::nullopt;
  Journal j;
  j.header = reader.header();
  j.rows.reserve(lines.size() - 1);
  auto& cells = reader.table().rows;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    switch (reader.add(lines[i])) {
      case JsonlRowReader::Line::row: {
        JournalRow row{reader.key()->value_text(), 0, std::move(cells.back())};
        cells.pop_back();
        common::parse_u64(row.cells[0], row.index);
        j.rows.push_back(std::move(row));
        break;
      }
      case JsonlRowReader::Line::torn:
        if (i + 1 == lines.size()) {
          // A torn final line is the expected signature of a mid-write
          // kill; the row it carried simply re-runs on resume.
          j.truncated_tail = true;
        } else {
          j.corrupt.push_back({i + 1, "malformed row"});
        }
        break;
      default:
        // A complete line whose checksum fails (or is missing) is
        // damage, not a tear -- even on the last line.
        j.corrupt.push_back(
            {i + 1, reader.what() == kNoCrc ? "missing CRC" : "CRC mismatch"});
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
  JsonlRowReader reader;
  if (!read_header_line(reader, line, error)) return std::nullopt;
  return reader.header();
}

bool rewrite_journal(const std::string& path, const Journal& j,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    // Only parsed rows are re-serialized, so a rewrite heals corrupt
    // lines along with the torn tail.
    JournalWriter writer(tmp, j.header);
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
  if (dev != dev_ || ino != ino_ || size < offset_) {
    // The rows kept so far came from the old file.
    if (opened_) intact_ = false;
    offset_ = 0;
  }
  opened_ = true;
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
    if (line.empty()) continue;
    const auto read = reader_.add(line);
    if (read != JsonlRowReader::Line::header &&
        read != JsonlRowReader::Line::row)
      intact_ = false;
    // Rows lead with a "key" field; the header line (and any malformed
    // mid-flight content) does not and is skipped. A row whose checksum
    // fails or is missing is damage, not progress: skip it unseen so the
    // supervisor still counts that point as outstanding.
    const auto* key = reader_.key();
    if (!key) continue;
    auto text = key->value_text();
    if (seen_.insert(text).second) fresh.push_back(std::move(text));
  }
  offset_ += last_nl + 1;
  return fresh;
}

std::optional<RowTable> JournalTailer::take_rows() {
  if (!intact_ || !opened_) return std::nullopt;
  struct stat st {};
  if (::stat(path_.c_str(), &st) != 0 ||
      static_cast<std::uint64_t>(st.st_dev) != dev_ ||
      static_cast<std::uint64_t>(st.st_ino) != ino_ ||
      static_cast<std::uint64_t>(st.st_size) != offset_)
    return std::nullopt;
  auto& table = reader_.table();
  if (table.header.empty() || table.rows.empty()) return std::nullopt;
  return std::move(table);
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
