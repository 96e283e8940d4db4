// Result rows: header/cell alignment, sink output, and the config kv
// round-trip that makes every row self-describing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/core/config_kv.hpp"

namespace reap::campaign {
namespace {

CampaignPoint sample_point() {
  CampaignPoint pt;
  pt.index = 3;
  const auto cfg = core::config_from_kv(
      "workload=mcf policy=reap ecc_t=2 instructions=1234 seed=77");
  EXPECT_TRUE(cfg);
  pt.config = *cfg;
  return pt;
}

core::ExperimentResult sample_result() {
  core::ExperimentResult r;
  r.workload = "mcf";
  r.policy = core::PolicyKind::reap;
  r.instructions = 1234;
  r.cycles = 4321;
  r.ipc = 0.2856;
  r.sim_seconds = 2.1605e-6;
  r.mttf.mttf_seconds = 3.7e11;
  r.energy.ecc_decode_j = 1.25e-7;
  r.p_rd = 1e-8;
  return r;
}

TEST(ResultRow, HeaderAndCellsAlign) {
  const auto header = result_header();
  const auto cells = result_cells(sample_point(), sample_result());
  EXPECT_EQ(header.size(), cells.size());
  EXPECT_EQ(header.front(), "index");
  EXPECT_EQ(header.back(), "config");
  EXPECT_EQ(cells[0], "3");
  EXPECT_EQ(cells[1], "mcf");
  EXPECT_EQ(cells[2], "reap");
}

TEST(ResultRow, ConfigColumnRoundTrips) {
  const auto pt = sample_point();
  const auto cells = result_cells(pt, sample_result());
  std::string error;
  const auto cfg = core::config_from_kv(cells.back(), &error);
  ASSERT_TRUE(cfg) << error;
  EXPECT_EQ(cfg->workload.name, pt.config.workload.name);
  EXPECT_EQ(cfg->workload.seed, pt.config.workload.seed);
  EXPECT_EQ(cfg->policy, pt.config.policy);
  EXPECT_EQ(cfg->ecc_t, pt.config.ecc_t);
  EXPECT_EQ(cfg->instructions, pt.config.instructions);
  EXPECT_EQ(cfg->seed, pt.config.seed);
  // And the re-serialized form is byte-identical (a fixed point).
  EXPECT_EQ(core::to_kv_string(*cfg), cells.back());
}

TEST(ConfigKv, DefaultConfigRoundTripsBitForBit) {
  core::ExperimentConfig cfg;
  const auto wl = core::config_from_kv("workload=perlbench");
  ASSERT_TRUE(wl);
  cfg = *wl;
  cfg.policy = core::PolicyKind::scrub_piggyback;
  cfg.ecc_t = 3;
  cfg.clock_ghz = 3.7;
  cfg.scrub_every = 17;
  cfg.check_on_dirty_eviction = true;
  cfg.hierarchy.l2.ways = 16;
  cfg.mtj = mtj::with_read_ratio(0.75);

  const std::string kv = core::to_kv_string(cfg);
  std::string error;
  const auto back = core::config_from_kv(kv, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(core::to_kv_string(*back), kv);
  EXPECT_EQ(back->policy, cfg.policy);
  EXPECT_EQ(back->ecc_t, cfg.ecc_t);
  EXPECT_DOUBLE_EQ(back->clock_ghz, cfg.clock_ghz);
  EXPECT_EQ(back->scrub_every, cfg.scrub_every);
  EXPECT_EQ(back->check_on_dirty_eviction, cfg.check_on_dirty_eviction);
  EXPECT_EQ(back->hierarchy.l2.ways, cfg.hierarchy.l2.ways);
  EXPECT_DOUBLE_EQ(back->mtj.read_current.value, cfg.mtj.read_current.value);
}

TEST(ConfigKv, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(core::config_from_kv("", &error));
  EXPECT_FALSE(core::config_from_kv("policy=reap", &error))
      << "workload is mandatory";
  EXPECT_FALSE(core::config_from_kv("workload=nope", &error));
  EXPECT_FALSE(core::config_from_kv("workload=mcf policy=bogus", &error));
  EXPECT_FALSE(core::config_from_kv("workload=mcf ecc_t=abc", &error));
  EXPECT_FALSE(core::config_from_kv("workload=mcf surprise=1", &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(CsvSink, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/reap_sink_test.csv";
  {
    CsvResultSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.add(sample_point(), sample_result());
  }
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(header.rfind("index,workload,policy", 0), 0u);
  EXPECT_EQ(row.rfind("3,mcf,reap", 0), 0u);
  std::remove(path.c_str());
}

TEST(JsonlSink, WritesOneObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/reap_sink_test.jsonl";
  {
    JsonlResultSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.add(sample_point(), sample_result());
    sink.add(sample_point(), sample_result());
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"workload\":\"mcf\""), std::string::npos);
    EXPECT_NE(line.find("\"config\":\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(JsonlSink, QuotesNonFiniteAndBigIntValues) {
  const std::string path = ::testing::TempDir() + "/reap_sink_inf.jsonl";
  {
    JsonlResultSink sink(path);
    ASSERT_TRUE(sink.ok());
    auto pt = sample_point();
    pt.config.seed = 13354106692959041800ULL;  // > 2^53
    auto r = sample_result();
    r.mttf.mttf_seconds =
        std::numeric_limits<double>::infinity();  // no failure mass
    sink.add(pt, r);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // Bare inf is invalid JSON; it must be quoted.
  EXPECT_EQ(line.find("\"mttf_seconds\":inf"), std::string::npos);
  EXPECT_NE(line.find("\"mttf_seconds\":\"inf\""), std::string::npos);
  // 64-bit seeds exceed 2^53 and would be rounded by double-based JSON
  // parsers; they must be quoted too.
  EXPECT_NE(line.find("\"seed\":\"13354106692959041800\""),
            std::string::npos);
  std::remove(path.c_str());
}

// --- The fast paths of row output, pinned to the definitions they
// replaced.

// The grid perfbench's fleet_tiny workload runs -- every workload and
// policy, two ECC strengths, 1k instructions -- on fewer seeds.
struct RenderedGrid {
  std::vector<CampaignPoint> points;
  std::vector<std::vector<std::string>> rows;
};

const RenderedGrid& fleet_tiny_shaped_grid() {
  static const RenderedGrid grid = [] {
    const auto spec = CampaignSpec::from_kv(
        {{"workloads", "all"}, {"policies", "all"}, {"ecc", "1,2"},
         {"seeds", "0,1,2"}, {"instructions", "1000"}, {"warmup", "100"}});
    EXPECT_TRUE(spec);
    RenderedGrid g;
    g.points = expand(*spec);
    RunnerOptions opts;
    opts.threads = 2;
    const auto results = CampaignRunner(opts).run(g.points);
    for (std::size_t i = 0; i < g.points.size(); ++i)
      g.rows.push_back(result_cells(g.points[i], results[i]));
    return g;
  }();
  return grid;
}

// emit_unquoted as it was before its from_chars fast path: strtod reads
// the whole cell as a finite number, and an integer fits in 2^53.
bool unquoted_by_strtod(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (!end || *end != '\0' || !std::isfinite(d)) return false;
  if (s.find_first_of(".eE") == std::string::npos) {
    std::uint64_t u = 0;
    if (!common::parse_u64(s, u)) return false;
    if (u > (1ULL << 53)) return false;
  }
  return true;
}

// The JSONL field one cell becomes, by the strtod definition.
std::string field_by_strtod(const std::string& cell) {
  return unquoted_by_strtod(cell)
             ? "\"v\":" + cell
             : "\"v\":\"" + common::json_escape(cell) + "\"";
}

void expect_parse_double_matches_strtod(const std::string& s) {
  double fast = 0.0;
  const bool fast_ok = common::parse_double(s, fast);
  char* end = nullptr;
  const double slow = std::strtod(s.c_str(), &end);
  ASSERT_EQ(fast_ok, !s.empty() && end && *end == '\0') << '"' << s << '"';
  if (fast_ok) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fast),
              std::bit_cast<std::uint64_t>(slow))
        << '"' << s << '"';
  }
}

TEST(RowOutput, EveryRenderedCellQuotesAndParsesAsStrtodDecides) {
  const auto& grid = fleet_tiny_shaped_grid();
  ASSERT_EQ(grid.rows.size(), 28u * 5u * 2u * 3u);
  for (const auto& row : grid.rows)
    for (const auto& cell : row) {
      ASSERT_EQ(jsonl_fields({"v"}, {cell}), field_by_strtod(cell)) << cell;
      expect_parse_double_matches_strtod(cell);
    }
}

TEST(RowOutput, AdversarialCellsQuoteAndParseAsStrtodDecides) {
  for (const std::string cell :
       {" 1", "+1", "0x10", "1e999", "-1e999", "1e-999", "-0", "0", "nan",
        "-nan", "nan(1)", "inf", "-inf", "infinity", "9007199254740992",
        "9007199254740993", "18446744073709551616", "-5", "-1.5", " 1.5",
        "1.", ".5", "1e", "1e5", "1E5", "4.9e-324", "2.4e-324", "1,5",
        "mcf", "", "1 ", "1\n", "\"1\"", "workload=mcf policy=reap"}) {
    EXPECT_EQ(jsonl_fields({"v"}, {cell}), field_by_strtod(cell))
        << '"' << cell << '"';
    expect_parse_double_matches_strtod(cell);
  }
}

// to_kv_string as it was before it appended directly: an ostringstream.
std::string kv_string_by_stream(const core::ExperimentConfig& cfg) {
  std::ostringstream out;
  out << "workload=" << cfg.workload.name
      << " policy=" << core::to_string(cfg.policy) << " ecc_t=" << cfg.ecc_t
      << " mtj=" << cfg.mtj.name << " mtj_read_ratio="
      << common::fmt_double(cfg.mtj.read_current.value /
                            cfg.mtj.critical_current.value)
      << " instructions=" << cfg.instructions
      << " warmup=" << cfg.warmup_instructions
      << " clock_ghz=" << common::fmt_double(cfg.clock_ghz)
      << " seed=" << cfg.seed << " workload_seed=" << cfg.workload.seed
      << " scrub_every=" << cfg.scrub_every
      << " dirty_check=" << (cfg.check_on_dirty_eviction ? 1 : 0)
      << " l2_kb=" << cfg.hierarchy.l2.capacity_bytes / 1024
      << " l2_ways=" << cfg.hierarchy.l2.ways
      << " block_bytes=" << cfg.hierarchy.l2.block_bytes;
  return out.str();
}

TEST(RowOutput, KvStringMatchesTheStreamForm) {
  for (const auto& pt : fleet_tiny_shaped_grid().points)
    ASSERT_EQ(core::to_kv_string(pt.config), kv_string_by_stream(pt.config));
  core::ExperimentConfig cfg = *core::config_from_kv("workload=perlbench");
  cfg.ecc_t = 3;
  cfg.clock_ghz = 3.7;
  cfg.scrub_every = 17;
  cfg.check_on_dirty_eviction = true;
  cfg.hierarchy.l2.ways = 16;
  cfg.seed = ~0ULL;
  cfg.mtj = mtj::with_read_ratio(0.75);
  EXPECT_EQ(core::to_kv_string(cfg), kv_string_by_stream(cfg));
}

TEST(MultiSink, FansOut) {
  const std::string p1 = ::testing::TempDir() + "/reap_multi1.csv";
  const std::string p2 = ::testing::TempDir() + "/reap_multi2.jsonl";
  {
    CsvResultSink csv(p1);
    JsonlResultSink jsonl(p2);
    MultiSink multi;
    multi.attach(&csv);
    multi.attach(&jsonl);
    multi.attach(nullptr);  // ignored
    multi.add(sample_point(), sample_result());
  }
  std::ifstream a(p1), b(p2);
  std::string line;
  std::size_t a_lines = 0, b_lines = 0;
  while (std::getline(a, line)) ++a_lines;
  while (std::getline(b, line)) ++b_lines;
  EXPECT_EQ(a_lines, 2u);  // header + row
  EXPECT_EQ(b_lines, 1u);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

}  // namespace
}  // namespace reap::campaign
