// Execution journal: round trip, torn-tail tolerance, per-row CRC
// classification (torn vs corrupt, missing CRC), v1 refusal, append/rewrite,
// compatibility checks, row merging, rendering rows apart from appending
// them (also across threads and through the CLI), live tailing, the one
// reader against the readers it replaced, every reader's verdict on a
// mutated header, and the progress line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <thread>

#include "reap/campaign/journal.hpp"
#include "reap/campaign/progress.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/crc32c.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/file.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/subprocess.hpp"
#include "reap/core/config_kv.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap};
  spec.seeds = {0, 1};
  return spec;
}

// A rendered row does not need a real experiment: any cell vector aligned
// with result_header() journals fine. Cell 0 must be the grid index.
std::vector<std::string> fake_cells(std::size_t index) {
  std::vector<std::string> cells(result_header().size(), "0");
  cells[0] = std::to_string(index);
  cells[1] = "mcf";                        // workload
  cells.back() = "workload=mcf seed=" + std::to_string(index);  // config
  return cells;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << "\n";
}

TEST(Journal, HeaderAndRowsRoundTrip) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_roundtrip.jsonl");
  const auto header = JournalHeader::for_run(spec, 8, 1, 2);
  {
    JournalWriter writer(path, header);
    ASSERT_TRUE(writer.ok());
    writer.add("mcf/reap/t1/sc-/rr-/s0", fake_cells(4));
    writer.add("mcf/reap/t1/sc-/rr-/s1", fake_cells(6));
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_EQ(journal->header.name, spec.name);
  EXPECT_EQ(journal->header.spec_hash, spec_hash(spec));
  EXPECT_EQ(journal->header.points, 8u);
  EXPECT_EQ(journal->header.shard_index, 1u);
  EXPECT_EQ(journal->header.shard_count, 2u);
  EXPECT_EQ(journal->header.columns, result_header());
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "mcf/reap/t1/sc-/rr-/s0");
  EXPECT_EQ(journal->rows[0].index, 4u);
  EXPECT_EQ(journal->rows[0].cells, fake_cells(4));
  EXPECT_EQ(journal->rows[1].index, 6u);
  std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalLine) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_torn.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  {
    // A mid-write kill leaves an unterminated fragment.
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"k2\",\"index\":2,\"work";
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k1");
}

// Mid-file damage no longer poisons the whole journal: the reader
// classifies each row and reports the damaged lines so resume can heal
// them and re-run exactly the lost rows.
TEST(Journal, ClassifiesMidFileGarbageAsCorruptAndKeepsGoodRows) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_corrupt.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage mid-file\n";
  }
  {
    JournalWriter writer(path);  // append a valid row after the damage
    writer.add("k1", fake_cells(1));
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "k0");
  EXPECT_EQ(journal->rows[1].key, "k1");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);  // header=1, k0=2
  EXPECT_EQ(journal->corrupt[0].reason, "malformed row");

  // Healing drops the damaged line for good.
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  const auto healed = read_journal(path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_TRUE(healed->corrupt.empty());
  EXPECT_EQ(healed->rows.size(), 2u);
  std::remove(path.c_str());
}

// Every v2 row carries a CRC32C suffix; a single flipped bit inside a
// structurally valid row is caught by the checksum, not mistaken for a
// torn tail -- even when it is the final line.
TEST(Journal, BitFlippedRowFailsItsChecksumAndIsReported) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_bitflip.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    writer.add("k2", fake_cells(2));
  }
  auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  // The on-disk format pin: rows end with the checksum suffix.
  EXPECT_NE(lines[2].rfind(",\"crc\":\""), std::string::npos) << lines[2];
  // Flip one payload byte of row k1: still perfectly valid JSON.
  const auto at = lines[2].find("mcf");
  ASSERT_NE(at, std::string::npos);
  lines[2].replace(at, 3, "mcg");
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "k0");
  EXPECT_EQ(journal->rows[1].key, "k2");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);
  EXPECT_EQ(journal->corrupt[0].reason, "CRC mismatch");

  // Same damage on the *last* line (k1 is still damaged too):
  // corruption, not a tear, even at the tail.
  lines = file_lines(path);
  {
    const auto pos = lines.back().find("mcf");
    ASSERT_NE(pos, std::string::npos);
    lines.back().replace(pos, 3, "mcg");
  }
  write_lines(path, lines);
  const auto again = read_journal(path, &error);
  ASSERT_TRUE(again) << error;
  EXPECT_FALSE(again->truncated_tail);
  ASSERT_EQ(again->corrupt.size(), 2u);
  EXPECT_EQ(again->corrupt[1].line_no, 4u);
  EXPECT_EQ(again->corrupt[1].reason, "CRC mismatch");
  std::remove(path.c_str());
}

// A row truncated in the *middle* of the file (a partial overwrite, not
// a mid-write kill) is corruption; only a torn FINAL line is a tail.
TEST(Journal, TruncatedMiddleRowIsCorruptNotATornTail) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_midtrunc.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    writer.add("k2", fake_cells(2));
  }
  auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  lines[2] = lines[2].substr(0, lines[2].size() / 2);
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k2");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);
  std::remove(path.c_str());
}

// A duplicated row (a replayed write, a copy-paste repair) parses fine;
// dedup is the merge layer's job, and it keeps the first occurrence.
TEST(Journal, DuplicatedRowIsDedupedByTheMergeNotTheReader) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_dup.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  auto lines = file_lines(path);
  lines.push_back(lines[2]);  // duplicate k0, checksum intact
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->corrupt.empty());
  ASSERT_EQ(journal->rows.size(), 3u);  // the reader reports what is there
  const auto merged = merge_journal_rows(journal->rows, {});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "k0");
  EXPECT_EQ(merged[1].key, "k1");
  std::remove(path.c_str());
}

// The checksum-less v1 format is refused by every reader, with the
// format named, rather than read without its rows' protection.
TEST(Journal, V1HeaderIsRefusedByEveryReader) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_v1.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  auto lines = file_lines(path);
  const auto tag = lines[0].find(kJournalFormat);
  ASSERT_NE(tag, std::string::npos);
  lines[0].replace(tag, 15, "reap-journal-v1");
  write_lines(path, lines);

  std::string error;
  EXPECT_FALSE(read_journal(path, &error));
  EXPECT_NE(error.find("unsupported format reap-journal-v1"),
            std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(read_journal_header(path, &error));
  EXPECT_NE(error.find("reap-journal-v1"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(load_rows(path, &error));
  EXPECT_NE(error.find("unsupported journal format"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

// Inside a journal every row carries its checksum, so a complete row
// without one is damage wherever it sits -- never a torn tail, since a
// torn write leaves a prefix that does not parse. read_journal reports
// it and drops it (the rewrite heals it out, so resume re-runs the row),
// the tailer does not count it, and a report refuses the file. JSONL
// sink output, which never carries checksums, still loads.
TEST(Journal, RowWithoutCrcIsCorruptAndReruns) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_nocrc.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    writer.add("k2", fake_cells(2));
  }
  const auto strip = [](std::string& line) {
    const auto crc = line.rfind(",\"crc\":\"");
    ASSERT_NE(crc, std::string::npos);
    line = line.substr(0, crc) + "}";
  };
  auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  strip(lines[2]);  // k1, mid-file
  strip(lines[3]);  // k2, the last line
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 1u);
  EXPECT_EQ(journal->rows[0].key, "k0");
  ASSERT_EQ(journal->corrupt.size(), 2u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);
  EXPECT_EQ(journal->corrupt[0].reason, "missing CRC");
  EXPECT_EQ(journal->corrupt[1].line_no, 4u);
  EXPECT_EQ(journal->corrupt[1].reason, "missing CRC");

  JournalTailer tailer(path);
  EXPECT_EQ(tailer.poll(), std::vector<std::string>{"k0"});

  EXPECT_FALSE(load_rows(path, &error));
  EXPECT_NE(error.find(":3: row without CRC"), std::string::npos) << error;

  // The rewrite resume performs keeps only k0: k1 and k2 run again.
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  const auto healed = read_journal(path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_TRUE(healed->corrupt.empty());
  ASSERT_EQ(healed->rows.size(), 1u);
  EXPECT_EQ(healed->rows[0].key, "k0");

  const auto sink_path = temp_path("journal_nocrc_sink.jsonl");
  {
    JsonlResultSink sink(sink_path);
    for (std::size_t i = 0; i < 3; ++i) sink.add_cells(fake_cells(i));
  }
  const auto table = load_rows(sink_path, &error);
  ASSERT_TRUE(table) << error;
  EXPECT_EQ(table->rows.size(), 3u);
  EXPECT_EQ(table->rows[1], fake_cells(1));
  std::remove(path.c_str());
  std::remove(sink_path.c_str());
}

// Injected journal I/O faults surface as a sticky errno: the first
// failed append records the cause and every later add() is a no-op, so
// the on-disk journal stays a clean durable prefix.
TEST(Journal, InjectedIoFaultMakesTheWriterStickyWithItsErrno) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_eio.jsonl");
  common::fault::disarm();
  ASSERT_TRUE(common::fault::arm("journal.write:eio:2"));
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    EXPECT_EQ(writer.io_errno(), 0);
    writer.add("k1", fake_cells(1));  // injected EIO: row not written
    EXPECT_EQ(writer.io_errno(), EIO);
    writer.add("k2", fake_cells(2));  // sticky: no-op
    EXPECT_EQ(writer.io_errno(), EIO);
  }
  common::fault::disarm();
  const auto journal = read_journal(path);
  ASSERT_TRUE(journal);
  EXPECT_TRUE(journal->corrupt.empty());
  ASSERT_EQ(journal->rows.size(), 1u);
  EXPECT_EQ(journal->rows[0].key, "k0");

  ASSERT_TRUE(common::fault::arm("journal.fsync:enospc:1"));
  {
    JournalWriter writer(path);
    writer.add("k1", fake_cells(1));  // lands, then the flush "fails"
    EXPECT_EQ(writer.io_errno(), ENOSPC);
  }
  common::fault::disarm();
  std::remove(path.c_str());
}

TEST(Journal, AppendModeContinuesAnExistingFile) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_append.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    JournalWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.add("k1", fake_cells(1));
  }
  const auto journal = read_journal(path);
  ASSERT_TRUE(journal);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k1");
  std::remove(path.c_str());
}

TEST(Journal, RewriteDropsTornTailSoAppendsStayClean) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_rewrite.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"torn";  // no newline
  }
  auto journal = read_journal(path);
  ASSERT_TRUE(journal && journal->truncated_tail);
  std::string error;
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  {
    JournalWriter writer(path);  // appending after rewrite must be safe
    writer.add("k1", fake_cells(1));
  }
  const auto again = read_journal(path, &error);
  ASSERT_TRUE(again) << error;
  EXPECT_FALSE(again->truncated_tail);
  ASSERT_EQ(again->rows.size(), 2u);
  EXPECT_EQ(again->rows[0].key, "k0");
  EXPECT_EQ(again->rows[1].key, "k1");
  std::remove(path.c_str());
}

TEST(Journal, CompatibilityRefusesADifferentCampaign) {
  const auto spec = small_spec();
  const auto header = JournalHeader::for_run(spec, 8, 1, 2);
  std::string why;
  EXPECT_TRUE(journal_compatible(header, spec, 8, 1, 2, &why)) << why;

  auto grown = spec;
  grown.seeds = {0, 1, 2};  // different grid
  EXPECT_FALSE(journal_compatible(header, grown, 12, 1, 2, &why));
  EXPECT_NE(why.find("different spec"), std::string::npos);

  auto reseeded = spec;
  reseeded.campaign_seed ^= 1;  // same shape, different traces
  EXPECT_FALSE(journal_compatible(header, reseeded, 8, 1, 2, &why));

  auto retuned = spec;
  retuned.base.instructions += 1;  // binary-relevant base config
  EXPECT_FALSE(journal_compatible(header, retuned, 8, 1, 2, &why));

  EXPECT_FALSE(journal_compatible(header, spec, 8, 0, 2, &why));
  EXPECT_NE(why.find("shard"), std::string::npos);
  EXPECT_FALSE(journal_compatible(header, spec, 8, 1, 4, &why));
}

TEST(Journal, MergeRowsDedupesByKeyAndSortsByIndex) {
  std::vector<JournalRow> a = {{"k5", 5, fake_cells(5)},
                               {"k1", 1, fake_cells(1)}};
  std::vector<JournalRow> b = {{"k1", 1, fake_cells(999)},  // dup key: dropped
                               {"k3", 3, fake_cells(3)}};
  const auto merged = merge_journal_rows(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].index, 1u);
  EXPECT_EQ(merged[0].cells, fake_cells(1));  // first occurrence won
  EXPECT_EQ(merged[1].index, 3u);
  EXPECT_EQ(merged[2].index, 5u);
}

// render + append is add in two steps: the same bytes, also when the
// lines are rendered on several threads at once and appended in order --
// how reap_campaign journals rows its runner threads rendered.
TEST(Journal, RowsRenderedOnManyThreadsAppendAsAddWritesThem) {
  const auto header = JournalHeader::for_run(small_spec(), 64, 0, 1);
  const auto key = [](std::size_t i) {
    return "k\"" + std::to_string(i);  // the quote must be escaped
  };
  const auto by_add = temp_path("reap_journal_add.journal");
  const auto by_parts = temp_path("reap_journal_parts.journal");
  {
    JournalWriter w(by_add, header);
    for (std::size_t i = 0; i < 64; ++i) w.add(key(i), fake_cells(i));
  }
  {
    JournalWriter w(by_parts, header);
    std::vector<std::string> lines(64);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < lines.size(); i += 4)
          lines[i] = w.render(key(i), fake_cells(i));
      });
    for (auto& th : threads) th.join();
    for (std::size_t i = 0; i < lines.size(); ++i) w.append(key(i), lines[i]);
  }
  const auto add_bytes = common::read_file(by_add);
  ASSERT_TRUE(add_bytes);
  EXPECT_EQ(common::read_file(by_parts), add_bytes);
  const auto j = read_journal(by_parts);
  ASSERT_TRUE(j);
  EXPECT_EQ(j->rows.size(), 64u);
  EXPECT_TRUE(j->corrupt.empty());
  EXPECT_FALSE(j->truncated_tail);
  EXPECT_EQ(j->rows[7].key, key(7));
}

// reap_campaign renders rows on the runner threads that ran them, so a
// journaled run on four threads must journal the rows of a one-thread run
// (in another order) and write the same CSV byte for byte.
TEST(JournalCli, FourThreadsJournalTheRowsAndCsvOfOneThread) {
  struct Run {
    std::string header;
    std::vector<std::string> rows;  // sorted journal row lines
    std::string csv;
  };
  const auto run = [](unsigned threads) {
    const std::string tag = "reap_journal_cli_t" + std::to_string(threads);
    const auto journal = temp_path((tag + ".journal").c_str());
    const auto csv = temp_path((tag + ".csv").c_str());
    std::remove(journal.c_str());
    const std::vector<std::string> argv = {
        REAP_CAMPAIGN_BIN, "--workloads=all", "--policies=all", "--ecc=1,2",
        "--seeds=0,1,2,3,4,5,6,7", "--instructions=1000", "--warmup=100",
        "--threads=" + std::to_string(threads), "--journal=" + journal,
        "--csv=" + csv, "--quiet"};
    Run out;
    std::string error;
    auto child =
        common::Child::spawn(argv, temp_path((tag + ".log").c_str()), &error);
    EXPECT_TRUE(child) << error;
    if (!child) return out;
    EXPECT_TRUE(child->wait().success());
    auto lines = file_lines(journal);
    EXPECT_FALSE(lines.empty());
    if (lines.empty()) return out;
    out.header = lines.front();
    out.rows.assign(lines.begin() + 1, lines.end());
    std::sort(out.rows.begin(), out.rows.end());
    out.csv = common::read_file(csv).value_or("");
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);
  EXPECT_EQ(one.rows.size(), 28u * 5u * 2u * 8u);
  EXPECT_EQ(four.header, one.header);
  EXPECT_TRUE(four.rows == one.rows);
  EXPECT_FALSE(one.csv.empty());
  EXPECT_TRUE(four.csv == one.csv);
}

TEST(JournalTailer, ReportsRowsIncrementallyAndHoldsBackTornTail) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail.jsonl");
  std::remove(path.c_str());

  JournalTailer tailer(path);
  EXPECT_TRUE(tailer.poll().empty());  // no file yet
  EXPECT_EQ(tailer.rows_seen(), 0u);

  JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
  EXPECT_TRUE(tailer.poll().empty());  // header only: no rows
  writer.add("k0", fake_cells(0));
  writer.add("k1", fake_cells(1));
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k0", "k1"}));
  EXPECT_TRUE(tailer.poll().empty());  // nothing new

  const auto k2 = writer.render("k2", fake_cells(2));
  {
    std::ofstream torn(path, std::ios::app);
    torn << k2.substr(0, 20);  // in-flight line, no newline yet
  }
  EXPECT_TRUE(tailer.poll().empty());  // torn tail is not a row yet
  {
    std::ofstream torn(path, std::ios::app);
    torn << k2.substr(20);  // the rest of the line lands
  }
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k2"}));
  EXPECT_EQ(tailer.rows_seen(), 3u);
  std::remove(path.c_str());
}

// The live tailer applies the same checksum discipline as the reader: a
// damaged row is not progress, and a duplicated row counts once.
TEST(JournalTailer, SkipsChecksumFailuresAndCountsDuplicatesOnce) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail_crc.jsonl");
  std::remove(path.c_str());
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  auto lines = file_lines(path);
  {
    const auto at = lines[1].find("mcf");  // flip a byte of k0's row
    ASSERT_NE(at, std::string::npos);
    lines[1].replace(at, 3, "mcg");
  }
  lines.push_back(lines[2]);  // and duplicate k1's row verbatim
  write_lines(path, lines);

  JournalTailer tailer(path);
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k1"}));
  EXPECT_EQ(tailer.rows_seen(), 1u);
  std::remove(path.c_str());
}

TEST(JournalTailer, SurvivesResumeStyleShrinkWithoutDoubleCounting) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail_shrink.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    std::ofstream torn(path, std::ios::app);
    torn << "{\"key\":\"torn";
  }
  JournalTailer tailer(path);
  EXPECT_EQ(tailer.poll().size(), 2u);

  // A resuming worker rewrites the journal without the torn tail (the
  // file shrinks), then appends fresh rows.
  auto journal = read_journal(path);
  ASSERT_TRUE(journal && journal->truncated_tail);
  std::string error;
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  {
    JournalWriter writer(path);
    writer.add("k2", fake_cells(2));
  }
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k2"}));
  EXPECT_EQ(tailer.rows_seen(), 3u);
  std::remove(path.c_str());
}

// A resume that drops a corrupt middle row rewrites the journal, and the
// resumed worker's appends can grow it back past the tailer's old offset
// before the next poll. Only the file's identity says it was replaced;
// resuming at the old offset would start mid-line and lose the rows in
// between, and the dispatcher would count those points as not done.
TEST(JournalTailer, NoticesAReplacedJournalThatGrewPastTheOldOffset) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail_replaced.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    for (std::size_t i = 0; i < 5; ++i)
      writer.add("k" + std::to_string(i), fake_cells(i));
  }
  auto lines = file_lines(path);
  {
    const auto at = lines[3].find("mcf");  // damage k2's row
    ASSERT_NE(at, std::string::npos);
    lines[3].replace(at, 3, "mcg");
  }
  write_lines(path, lines);

  JournalTailer tailer(path);
  EXPECT_EQ(tailer.poll(),
            (std::vector<std::string>{"k0", "k1", "k3", "k4"}));

  // Resume: drop the corrupt row, rewrite, re-run k2, carry on.
  auto journal = read_journal(path);
  ASSERT_TRUE(journal);
  ASSERT_EQ(journal->corrupt.size(), 1u);
  std::string error;
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  {
    JournalWriter writer(path);
    for (const std::size_t i : {2, 5, 6})
      writer.add("k" + std::to_string(i), fake_cells(i));
  }
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k2", "k5", "k6"}));
  EXPECT_EQ(tailer.rows_seen(), 7u);
  std::remove(path.c_str());
}

// The rows a tailer keeps are the table load_rows reads from the same
// bytes -- columns, cells, grid size -- however the polls cut the file,
// an in-flight line included.
TEST(JournalTailer, KeptRowsAreTheTableLoadRowsReads) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail_keep.jsonl");
  std::remove(path.c_str());
  JournalTailer tailer(path);
  EXPECT_TRUE(tailer.poll().empty());  // no file yet
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    for (std::size_t i = 0; i < 7; ++i) {
      writer.add("k" + std::to_string(i), fake_cells(i));
      if (i % 3 == 0) tailer.poll();
    }
    const auto last = writer.render("k7", fake_cells(7));
    std::ofstream(path, std::ios::app) << last.substr(0, 30);
    tailer.poll();  // reads up to the in-flight line
    std::ofstream(path, std::ios::app) << last.substr(30);
  }
  EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k7"}));

  std::string error;
  const auto loaded = load_rows(path, &error);
  ASSERT_TRUE(loaded) << error;
  const auto kept = tailer.take_rows();
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept->header, loaded->header);
  EXPECT_EQ(kept->rows, loaded->rows);
  EXPECT_EQ(kept->expected_points, loaded->expected_points);
  EXPECT_EQ(kept->truncated_tail, loaded->truncated_tail);
  EXPECT_EQ(kept->rows.size(), 8u);
  std::remove(path.c_str());
}

// take_rows answers only when the kept rows are certainly the file's. A
// torn tail, a damaged row, a resume's rewrite, or bytes the tailer has
// not read each leave the caller to load the file -- and so to get
// load_rows' own table or error for it.
TEST(JournalTailer, KeepsNoRowsForATornDamagedReplacedOrUnreadJournal) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_tail_fallback.jsonl");
  const auto write_clean = [&] {
    std::remove(path.c_str());
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    for (std::size_t i = 0; i < 4; ++i)
      writer.add("k" + std::to_string(i), fake_cells(i));
  };
  const auto append = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::app) << bytes;
  };
  const auto tailed = [&] {
    JournalTailer tailer(path);
    tailer.poll();
    return tailer.take_rows();
  };

  write_clean();  // the control: nothing wrong, rows kept
  EXPECT_TRUE(tailed());

  write_clean();  // a torn tail: bytes past the last newline
  append("{\"key\":\"k4\",\"index\":4,\"work");
  EXPECT_FALSE(tailed()) << "torn tail";

  write_clean();  // a complete last line that does not parse
  append("{\"key\":\"k4\",\"index\"\n");
  EXPECT_FALSE(tailed()) << "malformed last line";

  write_clean();  // a row whose checksum fails
  {
    auto lines = file_lines(path);
    const auto at = lines[2].find("mcf");
    ASSERT_NE(at, std::string::npos);
    lines[2].replace(at, 3, "mcg");
    write_lines(path, lines);
  }
  EXPECT_FALSE(tailed()) << "corrupt row";

  write_clean();  // resume: the torn tail is healed by a rewrite
  append("{\"key\":\"torn");
  {
    JournalTailer tailer(path);
    EXPECT_EQ(tailer.poll().size(), 4u);
    auto journal = read_journal(path);
    ASSERT_TRUE(journal);
    std::string error;
    ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
    JournalWriter(path).add("k4", fake_cells(4));
    EXPECT_EQ(tailer.poll(), (std::vector<std::string>{"k4"}));
    EXPECT_FALSE(tailer.take_rows()) << "rewritten journal";
  }

  write_clean();  // rows landed after the last poll
  {
    JournalTailer tailer(path);
    tailer.poll();
    JournalWriter(path).add("k4", fake_cells(4));
    EXPECT_FALSE(tailer.take_rows()) << "unread rows";
  }

  std::remove(path.c_str());  // no journal at all
  EXPECT_FALSE(tailed()) << "missing journal";
}

// ---------------------------------------------------------------------
// The one reader, checked against the readers it replaced.

// Today's reading of a journal line, kept verbatim as the reference: the
// copying JSONL parser and the split-then-parse CRC check.
std::optional<common::JsonlFields> reference_jsonl(const std::string& line) {
  const auto parse_string = [&line](std::size_t& i, std::string& out) {
    ++i;
    out.clear();
    while (i < line.size()) {
      const char c = line[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        if (i + 1 >= line.size()) return false;
        switch (line[i + 1]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return false;
        }
        i += 2;
      } else {
        out += c;
        ++i;
      }
    }
    return false;
  };
  common::JsonlFields fields;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto at_end = [&] {
    ++i;
    skip_ws();
    return i == line.size() ? std::optional(fields) : std::nullopt;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return std::nullopt;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return at_end();
  while (true) {
    skip_ws();
    if (i >= line.size() || line[i] != '"') return std::nullopt;
    std::string key;
    if (!parse_string(i, key)) return std::nullopt;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return std::nullopt;
    ++i;
    skip_ws();
    if (i >= line.size()) return std::nullopt;
    std::string value;
    if (line[i] == '"') {
      if (!parse_string(i, value)) return std::nullopt;
    } else {
      const auto end = line.find_first_of(",}", i);
      if (end == std::string::npos || end == i) return std::nullopt;
      value = line.substr(i, end - i);
      if (value.find_first_of("{[\"") != std::string::npos)
        return std::nullopt;
      i = end;
    }
    fields.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i >= line.size()) return std::nullopt;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') return at_end();
    return std::nullopt;
  }
}

// How one line fares as a journal row.
enum class Verdict {
  ok,         // parses, and its checksum matches
  malformed,  // does not parse, or has the wrong shape: a torn tail when
              // it is the last line, corruption anywhere else
  bad_crc,    // carries a checksum suffix that does not match its body,
              // or carries none: corruption wherever it sits
};

struct RefRow {
  Verdict verdict = Verdict::malformed;
  bool parses = false;  // the body is well-formed flat JSONL
  bool has_crc = false;  // the line ends in a well-formed checksum suffix
  std::optional<std::string> key;  // first field's value, if named "key"
  JournalRow row;
};

RefRow reference_row(const std::string& line,
                     const std::vector<std::string>& columns) {
  RefRow ref;
  std::string body = line;
  const auto pos = line.rfind(",\"crc\":\"");
  if (pos != std::string::npos) {
    const auto tail = line.substr(pos + 8);
    if (tail.size() == 10 && tail.substr(8) == "\"}") {
      std::uint32_t stored = 0;
      if (!common::parse_hex32(tail.substr(0, 8), stored)) return ref;
      ref.has_crc = true;
      body = line.substr(0, pos) + "}";
      if (common::crc32c(body) != stored) {
        ref.verdict = Verdict::bad_crc;
        return ref;
      }
    }
  }
  const auto fields = reference_jsonl(body);
  if (!fields) return ref;
  ref.parses = true;
  if (!fields->empty() && (*fields)[0].first == "key")
    ref.key = (*fields)[0].second;
  // A journal row must carry its checksum.
  if (!ref.has_crc) {
    ref.verdict = Verdict::bad_crc;
    return ref;
  }
  if (fields->size() != columns.size() + 1 || !ref.key) return ref;
  ref.row.key = *ref.key;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if ((*fields)[i + 1].first != columns[i]) return ref;
    ref.row.cells.push_back((*fields)[i + 1].second);
  }
  if (columns.empty() || columns[0] != "index" ||
      !common::parse_u64(ref.row.cells[0], ref.row.index))
    return ref;
  ref.verdict = Verdict::ok;
  return ref;
}

// Rows of real experiments (tiny windows), two of them with quotes and
// backslashes in the string cells, as JournalWriter serializes them
// (through a temporary file named after the calling test: ctest runs the
// tests of this file in parallel processes).
std::vector<std::string> real_row_lines() {
  auto spec = small_spec();
  spec.base.instructions = 2000;
  spec.base.warmup_instructions = 200;
  const auto points = expand(spec);
  const auto path =
      temp_path(::testing::UnitTest::GetInstance()->current_test_info()->name());
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, points.size(),
                                                      0, 1));
    for (const auto& p : points) {
      auto cells = result_cells(p, core::run_experiment(p.config));
      if (p.index == 1) {
        cells[1] = "mc\"f\\";                             // workload
        cells.back() = "workload=\"a b\" path=C:\\x\\ \\\""; // config
      }
      if (p.index == 2) cells.back() += " note=\\\"quoted\\\"";
      writer.add(p.key, cells);
    }
  }
  auto lines = file_lines(path);
  std::remove(path.c_str());
  lines.erase(lines.begin());  // the header
  return lines;
}

// A row line without its checksum suffix: the body the checksum covers.
std::string body_of(const std::string& line) {
  return line.substr(0, line.rfind(",\"crc\":\"")) + "}";
}

// A body with a fresh checksum suffix, as JournalWriter would close it.
std::string with_crc(const std::string& body) {
  return body.substr(0, body.size() - 1) + ",\"crc\":\"" +
         common::fmt_hex32(common::crc32c(body)) + "\"}";
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size()))
    s.replace(at, from.size(), to);
  return s;
}

// Every line the differential tests feed through the readers.
std::vector<std::string> mutated_lines() {
  const auto rows = real_row_lines();
  std::vector<std::string> out;
  for (const auto& line : rows) {
    out.push_back(line);
    out.push_back(body_of(line));
  }
  // Every single-byte flip of a plain row and of an escaped one, and
  // truncation at every length.
  for (const auto* line : {&rows[0], &rows[1]}) {
    for (std::size_t i = 0; i < line->size(); ++i) {
      for (const unsigned char mask : {0x01, 0x02, 0x20, 0x80}) {
        std::string flipped = *line;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        out.push_back(flipped);
      }
      out.push_back(line->substr(0, i));
    }
  }
  // Whitespace around ':' and ',' and around the object, under a stale
  // checksum, a recomputed one, and none, for every row.
  for (const auto& line : rows) {
    const auto body = body_of(line);
    for (const auto& spaced :
         {replace_all(body, "\":", "\" :\t"), replace_all(body, ",\"", " ,  \""),
          replace_all(replace_all(body, ":", ": "), ",", "\t, "),
          " \t" + body + "  ", "{ " + body.substr(1)}) {
      out.push_back(spaced);
      out.push_back(with_crc(spaced));
      out.push_back(spaced.substr(0, spaced.size() - 1) +
                    line.substr(line.rfind(",\"crc\":\"")));
    }
  }
  // Missing, extra and reordered fields, with and without a checksum.
  {
    const auto body = body_of(rows[0]);
    std::vector<std::string> fields;  // the body's `"name":value` pieces
    const auto inner = body.substr(1, body.size() - 2);
    std::size_t start = 0;
    for (std::size_t i = 0; i <= inner.size(); ++i) {
      if (i == inner.size() || (inner[i] == ',' && inner[i + 1] == '"')) {
        fields.push_back(inner.substr(start, i - start));
        start = i + 1;
      }
    }
    const auto join = [](const std::vector<std::string>& parts) {
      std::string s = "{";
      for (std::size_t i = 0; i < parts.size(); ++i)
        s += (i ? "," : "") + parts[i];
      return s + "}";
    };
    for (std::size_t i = 0; i < fields.size(); ++i) {
      auto missing = fields;
      missing.erase(missing.begin() + static_cast<long>(i));
      auto extra = fields;
      extra.insert(extra.begin() + static_cast<long>(i), "\"extra\":1");
      auto swapped = fields;
      std::swap(swapped[i], swapped[(i + 1) % fields.size()]);
      auto renamed = fields;
      renamed[i] = "\"renamed\"" + renamed[i].substr(renamed[i].find(':'));
      for (const auto& parts : {missing, extra, swapped, renamed}) {
        out.push_back(join(parts));
        out.push_back(with_crc(join(parts)));
      }
    }
    out.push_back("{}");
    out.push_back(with_crc("{}"));
    out.push_back(with_crc("{\"key\":\"k\"}"));
  }
  // Suffix look-alikes: a crc field of the wrong length, a second crc
  // field, uppercase hex, and a raw-token checksum.
  {
    const auto body = body_of(rows[0]);
    const auto open = body.substr(0, body.size() - 1);
    out.push_back(open + ",\"crc\":\"abc\"}");
    out.push_back(open + ",\"crc\":\"0123456789\"}");
    out.push_back(with_crc(body) + "\n");
    out.push_back(with_crc(body + " "));
    out.push_back(with_crc(with_crc(body)));
    std::string upper = with_crc(body);
    for (auto i = upper.size() - 10; i < upper.size() - 2; ++i)
      upper[i] = static_cast<char>(std::toupper(upper[i]));
    out.push_back(upper);
    out.push_back(open + ",\"crc\":12345678}");
  }
  return out;
}

// The reader's verdict on a journal row line, as the reference states it.
Verdict verdict_of(JsonlRowReader::Line line) {
  switch (line) {
    case JsonlRowReader::Line::row:
      return Verdict::ok;
    case JsonlRowReader::Line::damaged:
      return Verdict::bad_crc;
    default:
      return Verdict::malformed;
  }
}

// A journal header line for result_header()'s columns.
std::string journal_header_line() {
  const auto path = temp_path(
      (std::string(
           ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       ".header")
          .c_str());
  JournalWriter(path, JournalHeader::for_run(small_spec(), 8, 0, 1));
  const auto lines = file_lines(path);
  std::remove(path.c_str());
  return lines.at(0);
}

TEST(JsonlRowReader, MatchesTheReadersItReplacedOnEveryMutation) {
  const auto columns = result_header();
  const auto lines = mutated_lines();
  ASSERT_GT(lines.size(), 1000u);
  std::size_t ok = 0, bad_crc = 0, malformed = 0;
  JsonlRowReader reader;
  ASSERT_EQ(reader.add(journal_header_line()), JsonlRowReader::Line::header);
  for (const auto& line : lines) {
    SCOPED_TRACE(line);
    const auto ref = reference_row(line, columns);
    const auto rows = reader.table().rows.size();
    const auto verdict = verdict_of(reader.add(line));
    ASSERT_EQ(verdict, ref.verdict);
    ASSERT_EQ(reader.table().rows.size(), rows + (verdict == Verdict::ok));
    if (verdict == Verdict::ok) {
      EXPECT_EQ(reader.key()->value_text(), ref.row.key);
      const auto& cells = reader.table().rows.back();
      std::uint64_t index = 0;
      EXPECT_TRUE(common::parse_u64(cells[0], index));
      EXPECT_EQ(index, ref.row.index);
      EXPECT_EQ(cells, ref.row.cells);
    }
    if (verdict == Verdict::bad_crc) {
      EXPECT_EQ(reader.what(),
                ref.has_crc ? "row CRC mismatch" : "row without CRC");
    }
    // The tailer's weaker question, "a sound checksummed line leading
    // with a key?", gets the reference's answer too.
    EXPECT_EQ(reader.key() != nullptr,
              ref.parses && ref.has_crc && ref.key.has_value());
    if (reader.key()) {
      EXPECT_EQ(reader.key()->value_text(), *ref.key);
    }
    ok += verdict == Verdict::ok;
    bad_crc += verdict == Verdict::bad_crc;
    malformed += verdict == Verdict::malformed;
  }
  // The corpus exercises every verdict, not just the rejections.
  EXPECT_GT(ok, 20u);
  EXPECT_GT(bad_crc, 100u);
  EXPECT_GT(malformed, 100u);
}

// read_journal, JournalTailer::poll and load_rows (what reap_report and
// the dispatcher's merge read) share the reader, so they agree on every
// line: a row one accepts, the others accept with the same cells; a line
// one rejects for its checksum or syntax, all reject. The tailer only
// counts keys, so it alone accepts a sound keyed line of the wrong shape.
TEST(JsonlRowReader, EveryReaderAgreesOnEveryLine) {
  const auto spec = small_spec();
  const auto columns = result_header();
  const auto path = temp_path("journal_agree.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("good", fake_cells(7));
  }
  auto base = file_lines(path);
  ASSERT_EQ(base.size(), 2u);

  for (const auto& line : mutated_lines()) {
    if (line.empty() || line.find('\n') != std::string::npos) continue;
    SCOPED_TRACE(line);
    const auto ref = reference_row(line, columns);
    for (const bool last : {false, true}) {
      write_lines(path, last ? std::vector{base[0], base[1], line}
                             : std::vector{base[0], line, base[1]});
      const auto journal = read_journal(path);
      ASSERT_TRUE(journal);
      const bool accepted = journal->rows.size() == 2;
      EXPECT_EQ(accepted, ref.verdict == Verdict::ok);
      EXPECT_EQ(journal->truncated_tail,
                last && ref.verdict == Verdict::malformed);

      std::string error;
      const auto table = load_rows(path, &error);
      // A report refuses damage; only a torn last line is tolerated.
      const bool torn_tail = last && ref.verdict == Verdict::malformed;
      EXPECT_EQ(table.has_value(), accepted || torn_tail) << error;
      if (table && accepted) {
        ASSERT_EQ(table->rows.size(), 2u);
        const auto& cells = journal->rows[last ? 1 : 0].cells;
        EXPECT_EQ(table->rows[last ? 1 : 0], cells);
        EXPECT_EQ(cells, ref.row.cells);
      }

      JournalTailer tailer(path);
      const auto keys = tailer.poll();
      std::vector<std::string> expected = {"good"};
      if (ref.parses && ref.has_crc && ref.key && *ref.key != "good")
        expected.insert(last ? expected.end() : expected.begin(), *ref.key);
      EXPECT_EQ(keys, expected);
      if (accepted) {
        EXPECT_EQ(keys.size(), 2u);
      }
    }
  }
  std::remove(path.c_str());
}

// Every reader parses a journal's header through the one reader, so a
// mutated header gets one verdict: read_journal (resume),
// read_journal_header (the dispatcher's work-dir scan), load_rows
// (reap_report, the dispatcher's merge) and a tailer's kept rows all
// accept it or all refuse it. An accepted header means the same campaign
// to each of them.
TEST(JournalHeader, EveryReaderGivesEachMutationOneVerdict) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_header_mutations.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 1, 2));
    for (std::size_t i = 0; i < 5; ++i)
      writer.add("k" + std::to_string(i), fake_cells(i));
  }
  const auto base = file_lines(path);
  ASSERT_EQ(base.size(), 6u);
  const auto& header = base[0];
  // The header's `"name":value` pieces, in the writer's order.
  std::vector<std::string> fields;
  {
    const auto inner = header.substr(1, header.size() - 2);
    std::size_t start = 0;
    for (std::size_t i = 0; i <= inner.size(); ++i) {
      if (i == inner.size() || (inner[i] == ',' && inner[i + 1] == '"')) {
        fields.push_back(inner.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  ASSERT_EQ(fields.size(), 7u);
  const auto join = [](const std::vector<std::string>& parts) {
    std::string s = "{";
    for (std::size_t i = 0; i < parts.size(); ++i)
      s += (i ? "," : "") + parts[i];
    return s + "}";
  };
  const auto field = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < fields.size(); ++i)
      if (fields[i].rfind("\"" + name + "\":", 0) == 0) return i;
    ADD_FAILURE() << "no header field " << name;
    return 0;
  };
  const auto without = [&](const std::string& name) {
    auto parts = fields;
    parts.erase(parts.begin() + static_cast<long>(field(name)));
    return join(parts);
  };
  const auto with_value = [&](const std::string& name,
                              const std::string& value) {
    auto parts = fields;
    parts[field(name)] = "\"" + name + "\":" + value;
    return join(parts);
  };
  const auto reordered = [&](std::vector<std::string> parts) {
    std::reverse(parts.begin(), parts.end());
    return join(parts);
  };
  auto format_last = fields;
  std::rotate(format_last.begin(), format_last.begin() + 1, format_last.end());
  auto extra_first = fields;
  extra_first.insert(extra_first.begin(), "\"host\":\"node7\"");
  auto extra_last = fields;
  extra_last.push_back("\"writer_version\":3");

  struct Mutation {
    const char* what;
    std::string line;
    bool accepted;
  };
  const std::vector<Mutation> mutations = {
      {"intact", header, true},
      {"reversed field order", reordered(fields), true},
      {"format last", join(format_last), true},
      {"unknown field first", join(extra_first), true},
      {"unknown field last", join(extra_last), true},
      {"spaced", replace_all(replace_all(header, "\":", "\" : "), ",\"",
                             ", \""),
       true},
      {"points quoted", with_value("points", "\"8\""), true},
      {"points 8x", with_value("points", "8x"), false},
      {"points with a space", with_value("points", "8 "), false},
      {"points negative", with_value("points", "-8"), false},
      {"points fractional", with_value("points", "8.5"), false},
      {"points missing", without("points"), false},
      {"columns missing", without("columns"), false},
      {"format missing", without("format"), false},
      {"format v1", with_value("format", "\"reap-journal-v1\""), false},
      {"format v3", with_value("format", "\"reap-journal-v3\""), false},
      {"format empty", with_value("format", "\"\""), false},
      {"spec_hash damaged", with_value("spec_hash", "\"zz\""), false},
      {"shard_index damaged", with_value("shard_index", "1x"), false},
      {"shard_count damaged", with_value("shard_count", "x"), false},
      {"header cut short", header.substr(0, header.size() / 2), false},
  };
  for (const auto& m : mutations) {
    SCOPED_TRACE(m.what);
    auto lines = base;
    lines[0] = m.line;
    write_lines(path, lines);

    std::string error;
    const auto journal = read_journal(path, &error);
    EXPECT_EQ(journal.has_value(), m.accepted) << "read_journal: " << error;
    error.clear();
    const auto header_only = read_journal_header(path, &error);
    EXPECT_EQ(header_only.has_value(), m.accepted)
        << "read_journal_header: " << error;
    error.clear();
    const auto table = load_rows(path, &error);
    EXPECT_EQ(table.has_value(), m.accepted) << "load_rows: " << error;
    // A refused header is named by its line. (Without a format field
    // line 1 is a sink row, and the file fails on the row after it.)
    if (!m.accepted && m.line.find("\"format\"") != std::string::npos) {
      EXPECT_EQ(error.rfind(path + ":1: ", 0), 0u) << error;
    }
    JournalTailer tailer(path);
    tailer.poll();
    const auto kept = tailer.take_rows();
    EXPECT_EQ(kept.has_value(), m.accepted) << "JournalTailer::take_rows";

    if (!journal || !header_only || !table || !kept) continue;
    EXPECT_EQ(journal->header.spec_hash, spec_hash(spec));
    EXPECT_EQ(journal->header.points, 8u);
    EXPECT_EQ(journal->header.shard_index, 1u);
    EXPECT_EQ(journal->header.shard_count, 2u);
    EXPECT_EQ(journal->header.columns, result_header());
    EXPECT_EQ(header_only->spec_hash, journal->header.spec_hash);
    EXPECT_EQ(header_only->points, journal->header.points);
    EXPECT_EQ(header_only->shard_index, journal->header.shard_index);
    EXPECT_EQ(header_only->shard_count, journal->header.shard_count);
    EXPECT_EQ(header_only->columns, journal->header.columns);
    EXPECT_EQ(journal->rows.size(), 5u);
    EXPECT_TRUE(journal->corrupt.empty());
    EXPECT_EQ(table->header, result_header());
    EXPECT_EQ(table->expected_points, std::optional<std::uint64_t>(8));
    EXPECT_EQ(table->rows.size(), 5u);
    EXPECT_EQ(kept->header, table->header);
    EXPECT_EQ(kept->rows, table->rows);
    EXPECT_EQ(kept->expected_points, table->expected_points);
  }
  std::remove(path.c_str());
}

// The aggregate's partner key, built in place, against the kv_parse form
// it replaced: real config strings, and crafted ones with repeated keys,
// bare keys, empty values and odd whitespace.
TEST(PartnerKey, MatchesTheKvParseForm) {
  const auto reference = [](const std::string& config) {
    auto kv = core::kv_parse(config);
    kv.erase("policy");
    std::string out;
    for (const auto& [k, v] : kv) {
      if (!out.empty()) out += ' ';
      out += k + "=" + v;
    }
    return out;
  };
  auto spec = small_spec();
  spec.ecc_ts = {1, 2};
  spec.read_ratios = {0.5, 0.693};
  std::vector<std::string> configs;
  for (const auto& p : expand(spec))
    configs.push_back(core::to_kv_string(p.config));
  for (const char* crafted :
       {"", "   ", "policy=reap", "a=1  b=2", " policy=reap a=1 a=2 ",
        "b=1 a=2 b=3 policy=x policy=y", "x y=  z=3\t\tw=\n", "=v k",
        "k==v k=", "a=1\r\vb=2\fc=3", "workload=mcf policy=reap workload=lbm",
        "ü=1 a=2", "policy"})
    configs.emplace_back(crafted);
  // Real configs with their tokens shuffled, with a key repeated (the last
  // value counts), and with the policy token dropped or repeated. One
  // variant follows another, so the key sequence changes from call to
  // call and the order the builder reuses is checked with the one it
  // works out afresh.
  std::mt19937 rng(23);
  for (const auto& p : expand(spec)) {
    const auto config = core::to_kv_string(p.config);
    auto tokens = common::split(config, ' ');
    std::shuffle(tokens.begin(), tokens.end(), rng);
    const auto shuffled = common::join(tokens, ' ');
    std::vector<std::string> others;
    for (const auto& t : tokens)
      if (t.rfind("policy=", 0) != 0) others.push_back(t);
    for (const auto& variant :
         {config, shuffled, "seed=1 ecc_t=7 " + shuffled,
          config + " ecc_t=7 mtj=x", common::join(others, ' '),
          config + " policy=reap", "policy=x " + shuffled + " policy",
          config})
      configs.push_back(variant);
  }
  for (const auto& config : configs)
    EXPECT_EQ(partner_key(config), reference(config)) << config;
}

TEST(Progress, ReportsRateElapsedAndEta) {
  const auto path = temp_path("progress_out.txt");
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  {
    ProgressReporter progress(out);
    progress(1, 2);
    progress(2, 2);  // final update always prints
  }
  std::fclose(out);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("rows/s"), std::string::npos);
  EXPECT_NE(text.find("elapsed"), std::string::npos);
  EXPECT_NE(text.find("eta"), std::string::npos);
  EXPECT_NE(text.find("2/2 (100%)"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reap::campaign
