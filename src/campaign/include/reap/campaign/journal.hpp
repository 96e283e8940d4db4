// Execution journal: completion-order durability for campaign rows.
//
// A journal is a JSONL file. Line 1 is a header object recording what ran
// (spec hash, point count, shard) and the column schema; every following
// line is one completed row -- the JSONL sink's field set prefixed with the
// point's stable row key -- flushed as soon as the experiment finishes.
// Kill the process at any moment and the journal loses at most the line
// being written; read_journal tolerates exactly that torn tail, so
// `--resume` can skip every completed row and continue. A final merge step
// (merge_journal_rows + emit_rows) replays the rows in grid-index order
// into the ordinary sinks, producing output byte-identical to an
// uninterrupted run.
//
// Format v2 ("reap-journal-v2") suffixes every row with a CRC32C over the
// row body (the line up to but excluding the `,"crc":"..."` suffix, with
// the closing brace restored), so a reader can tell three states apart:
//   ok      the row parses and its checksum matches (v1 rows, which carry
//           no checksum, parse-check only);
//   torn    the *final* line is an unparseable prefix -- the signature of a
//           mid-write kill; the row re-runs on resume;
//   corrupt anything else -- an unparseable line before the tail, or a
//           parseable row whose checksum does not match (bit rot, partial
//           overwrite). Corrupt rows are reported, skipped, and healed by
//           the next rewrite; they never abort a read.
// Readers accept v1 and v2 files, and mixed rows: each row is
// self-describing by the presence of its "crc" field.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/jsonl.hpp"

namespace reap::campaign {

struct JournalHeader {
  std::string format = "reap-journal-v2";
  std::string name;                 // campaign name
  std::uint64_t spec_hash = 0;      // campaign::spec_hash of the spec
  std::uint64_t points = 0;         // full-grid point count
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::vector<std::string> columns;  // result_header() at write time

  static JournalHeader for_run(const CampaignSpec& spec,
                               std::size_t n_points,
                               std::size_t shard_index,
                               std::size_t shard_count);
};

// One journaled row: the point's stable key plus its rendered cells
// (aligned with the header's columns).
struct JournalRow {
  std::string key;
  std::uint64_t index = 0;
  std::vector<std::string> cells;
};

// How one line fares as a journal row.
enum class RowVerdict {
  ok,         // parses, and its checksum (when it carries one) matches
  malformed,  // does not parse: a torn tail when it is the last line,
              // corruption anywhere else
  bad_crc,    // carries a checksum suffix that does not match its body:
              // corruption wherever it sits
};

// The one journal-row parser. read_journal, JournalTailer::poll and
// load_rows (reap_report, merge_dispatch_journals) all classify lines with
// it, so they cannot disagree on a line. It works in place: fields are
// views into the line, the checksum is computed over the line's bytes
// (common::crc32c's two-piece form supplies the restored closing brace)
// and column names are compared where they sit.
class JournalRowParser {
 public:
  // Classifies `line`. The checksum suffix is checked first: a complete
  // line whose checksum fails is bad_crc even when its body would not
  // parse. On ok, fields() views the line's fields without the checksum
  // field; the views stay valid while `line` does.
  RowVerdict scan(std::string_view line);
  const std::vector<common::JsonlField>& fields() const { return fields_; }

  // Whether the scanned line leads with a "key" field -- a row rather
  // than a header line.
  bool has_key() const {
    return !fields_.empty() && fields_[0].name_is("key");
  }

  // The shape check on a scanned line: "key", then exactly `columns` by
  // name, with a numeric grid index in column 0 ("index"). Fills `row`.
  bool to_row(const std::vector<std::string>& columns, JournalRow& row) const;

  // scan + to_row: read_journal's verdict on a row line (a line of the
  // wrong shape is malformed).
  RowVerdict parse(std::string_view line,
                   const std::vector<std::string>& columns, JournalRow& row);

 private:
  std::vector<common::JsonlField> fields_;
};

// One line read_journal could not accept as a row: where and why. Corrupt
// lines are data already lost on disk -- the reader's job is to contain
// the damage (skip, report, re-run that point), not to refuse the file.
struct CorruptLine {
  std::size_t line_no = 0;  // 1-based line number in the file
  std::string reason;       // "malformed row" / "CRC mismatch (...)"
};

struct Journal {
  JournalHeader header;
  std::vector<JournalRow> rows;      // completion order
  bool truncated_tail = false;       // last line was torn (mid-write kill)
  std::vector<CorruptLine> corrupt;  // damaged lines before the tail
};

// Appends rows to a journal file, flushing after every line so a killed
// run loses at most the row being written.
class JournalWriter {
 public:
  // Creates/truncates `path` and writes the header line.
  JournalWriter(const std::string& path, const JournalHeader& header);

  // Opens `path` for append (resume; the header line must already exist).
  explicit JournalWriter(const std::string& path);

  bool ok() const;

  // render then append, in one call: callers that already serialize
  // their rows (the runner's on_result) use this.
  void add(const std::string& key, const std::vector<std::string>& cells);

  // The finished journal line of one row -- body, CRC32C suffix and
  // newline -- without touching the file. Reads only the column list, so
  // runner threads may render rows concurrently while one thread appends.
  std::string render(const std::string& key,
                     const std::vector<std::string>& cells) const;

  // Lands one line from render() for row `key` (the key names the row to
  // the journal.write / journal.fsync fault sites). Not thread-safe:
  // appends must be serialized.
  void append(const std::string& key, const std::string& line);

  // Mirrors every line this writer lands durably -- the header (replayed
  // immediately when one was written by this writer) and then each row,
  // without the trailing newline -- to `fn`. --journal-stdout feeds this
  // into the CRC32C stream framing; a line that failed to append locally
  // is never mirrored, so the stream can't claim rows the disk lost.
  void set_mirror(std::function<void(const std::string&)> fn);

  // 0 while appends are landing; the errno (EIO, ENOSPC, ...) of the
  // first failed append otherwise. Once set, further appends are
  // no-ops: the journal ends cleanly at the last durable row and the
  // caller should stop the run (reap_campaign exits kExitJournalIo) so
  // --resume can continue from exactly that boundary.
  int io_errno() const { return io_errno_; }

 private:
  std::ofstream out_;
  std::vector<std::string> columns_;
  std::string header_line_;  // set by the truncate ctor, for the mirror
  std::function<void(const std::string&)> mirror_;
  int io_errno_ = 0;
};

// Reads a journal back. A torn final line (the signature of a mid-write
// kill) is dropped and flagged, and damaged lines before the tail are
// collected in `corrupt` (the rows they carried re-run on resume);
// neither aborts the read. Returns nullopt and sets `error` only when
// the file itself is unusable: unopenable, empty, or a bad header line.
std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error = nullptr);

// Reads only the header line -- O(1) regardless of journal size. What
// the dispatcher's work-dir scan uses to learn a journal's spec hash and
// shard split without parsing every row.
std::optional<JournalHeader> read_journal_header(const std::string& path,
                                                 std::string* error = nullptr);

// Atomically replaces `path` with a clean serialization of `j` (temp file
// + rename). Resume uses this to drop a torn tail before appending -- new
// rows written after an unterminated line would corrupt both.
bool rewrite_journal(const std::string& path, const Journal& j,
                     std::string* error = nullptr);

// Whether a journal recorded the same campaign this process is about to
// run: same spec hash, grid size, shard assignment, and column schema.
// On mismatch returns false and, if `why` is non-null, names the first
// differing field.
bool journal_compatible(const JournalHeader& header, const CampaignSpec& spec,
                        std::size_t n_points, std::size_t shard_index,
                        std::size_t shard_count, std::string* why = nullptr);

// Incrementally tails a journal that another process is appending to --
// the live-progress primitive of reap_dispatch. Each poll() scans only
// the bytes appended since the previous poll and reports the keys of
// newly completed rows. Tolerant of everything a live worker journal
// does: the file not existing yet (worker still starting), a torn tail
// (the in-flight line stays unreported until its '\n' lands), and the
// file being *replaced* (a resumed worker's atomic rewrite, which drops a
// torn tail or corrupt rows). A replacement is noticed by file identity
// (device and inode) or, failing that, by the file shrinking; either
// restarts the scan from byte 0, and the per-key dedupe set keeps
// already-reported rows from being counted twice. Identity matters: a
// rewrite that dropped a corrupt row can grow back past the old offset
// before the next poll, and resuming at that offset would skip the rows
// in between.
class JournalTailer {
 public:
  explicit JournalTailer(std::string path);

  // Returns the keys of rows completed since the last poll (possibly
  // empty). Malformed complete lines and rows whose CRC does not verify
  // are skipped, not fatal: a live file is allowed to be mid-anything.
  std::vector<std::string> poll();

  // Distinct row keys observed so far (header line excluded).
  std::size_t rows_seen() const { return seen_.size(); }

  // Bytes consumed through the last complete line. The dispatcher's
  // watchdog uses this as a worker heartbeat: an offset that stops
  // moving is a worker that stopped writing.
  std::uint64_t offset() const { return offset_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;  // bytes consumed through the last complete line
  std::uint64_t dev_ = 0;     // identity of the file offset_ refers to
  std::uint64_t ino_ = 0;
  std::unordered_set<std::string> seen_;
  JournalRowParser parser_;
};

// Concatenates completion-order row batches, drops duplicate keys (first
// occurrence wins), and sorts by grid index: the merge step that turns a
// journal back into index-ordered sink input.
std::vector<JournalRow> merge_journal_rows(std::vector<JournalRow> a,
                                           std::vector<JournalRow> b);

// Streams merged rows into a sink (rows must already be index-ordered).
void emit_rows(const std::vector<JournalRow>& rows, ResultSink& sink);

}  // namespace reap::campaign
