// Multi-host dispatch, driven end to end against the real reap_campaign
// binary with tools/fake_ssh.sh standing in for ssh: a two-transport
// fleet merges byte-identical to a single-process run; a host killed
// mid-campaign (dropped stream, injected at transport.stream) is
// quarantined and its shards redistribute, with the run exiting as
// host_lost but the merge still byte-identical; a garbled frame and a
// stalled stream recover through the ordinary restart machinery; a
// reconnect after a drop never duplicates a journal row; the handshake
// refuses a mismatched worker build outright and degrades past an
// unreachable host; a missing remote trace store is a one-note fallback,
// not a divergence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/transport.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/frame.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::events_of;
using testutil::file_bytes;
using testutil::temp_path;

constexpr char kFakeSsh[] = REAP_SOURCE_DIR "/tools/fake_ssh.sh";

// Disarms on scope exit so an armed fault cannot leak into later tests.
struct ArmedFault {
  explicit ArmedFault(const std::string& spec) {
    std::string error;
    EXPECT_TRUE(common::fault::arm(spec, &error)) << error;
  }
  ~ArmedFault() { common::fault::disarm(); }
};

std::map<std::string, std::string> spec_kv(std::uint64_t instructions) {
  return {{"name", "transport-test"},
          {"workloads", "mcf,h264ref"},
          {"policies", "conventional,reap"},
          {"seeds", "0,1"},
          {"instructions", std::to_string(instructions)},
          {"warmup", "2000"}};
}

std::string fresh_dir(const char* name) {
  const auto dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string reference_csv(const std::map<std::string, std::string>& kv,
                          const char* name) {
  const auto csv = temp_path(name);
  std::vector<std::string> argv = {REAP_CAMPAIGN_BIN};
  for (const auto& [k, v] : kv) argv.push_back("--" + k + "=" + v);
  argv.push_back("--threads=2");
  argv.push_back("--csv=" + csv);
  argv.push_back("--baseline=none");
  argv.push_back("--quiet");
  auto child = common::Child::spawn(argv, "");
  EXPECT_TRUE(child);
  if (child) {
    EXPECT_TRUE(child->wait().success());
  }
  return csv;
}

HostSpec stub_host(const std::string& work_dir) {
  HostSpec h;
  h.name = "stub-b";
  h.slots = 1;
  h.remote_binary = REAP_CAMPAIGN_BIN;
  h.remote_dir = work_dir + "/remote-stub-b";
  h.ssh_command = kFakeSsh;
  return h;
}

// A local slot plus one stub-ssh slot: the smallest real fleet.
DispatchOptions fleet_opts(const std::string& work_dir) {
  DispatchOptions opts;
  opts.campaign_binary = REAP_CAMPAIGN_BIN;
  opts.work_dir = work_dir;
  opts.poll_interval = std::chrono::milliseconds(5);
  opts.backoff_base = std::chrono::milliseconds(10);
  opts.transports.push_back(
      std::make_shared<LocalTransport>(REAP_CAMPAIGN_BIN, 1));
  opts.transports.push_back(std::make_shared<SshTransport>(stub_host(work_dir)));
  return opts;
}

// Runs `kv` over `opts` and checks that the recorded event stream reports
// exactly the hosts the result lists as lost, in order, each with a
// reason.
DispatchResult run_checking_host_events(
    const std::map<std::string, std::string>& kv, DispatchOptions opts) {
  std::vector<DispatchEvent> events;
  opts.on_event = [&events](const DispatchEvent& e) { events.push_back(e); };
  auto result = Dispatcher(kv, opts).run();
  std::vector<std::string> lost;
  for (const auto& e : events_of(events, DispatchEvent::Kind::host_lost)) {
    lost.push_back(e.host);
    EXPECT_FALSE(e.text.empty()) << e.host;
  }
  EXPECT_EQ(lost, result.lost_hosts);
  return result;
}

std::string merged_csv_of(const DispatchResult& result, const char* name) {
  std::string error;
  const auto merged = merge_dispatch_journals(result.journal_paths(), &error);
  EXPECT_TRUE(merged) << error;
  EXPECT_TRUE(covers_all_indices(*merged));
  const auto path = temp_path(name);
  CsvResultSink csv(path);
  for (const auto& row : merged->rows) csv.add_cells(row);
  return path;
}

// Row keys duplicated inside any one shard journal would merge away
// silently (the merge dedupes); assert the journals never contain them.
void expect_no_duplicate_rows(const DispatchResult& result) {
  for (const auto& path : result.journal_paths()) {
    std::ifstream in(path);
    std::set<std::string> keys;
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find("\"key\":\"");
      if (pos == std::string::npos) continue;  // header
      const auto start = pos + 7;
      const auto end = line.find('"', start);
      ASSERT_NE(end, std::string::npos);
      const auto key = line.substr(start, end - start);
      EXPECT_TRUE(keys.insert(key).second)
          << path << " journals row '" << key << "' twice";
    }
  }
}

TEST(HostsFile, ParsesSlotsOptionsAndComments) {
  const auto hosts = parse_hosts(
      "# fleet\n"
      "local 2\n"
      "fast-a 4 binary=/opt/reap_campaign dir=/scratch/reap  # big box\n"
      "slow-b ssh=/usr/bin/ssh\n"
      "\n");
  ASSERT_TRUE(hosts);
  ASSERT_EQ(hosts->size(), 3u);
  EXPECT_EQ((*hosts)[0].name, "local");
  EXPECT_EQ((*hosts)[0].slots, 2u);
  EXPECT_EQ((*hosts)[1].name, "fast-a");
  EXPECT_EQ((*hosts)[1].slots, 4u);
  EXPECT_EQ((*hosts)[1].remote_binary, "/opt/reap_campaign");
  EXPECT_EQ((*hosts)[1].remote_dir, "/scratch/reap");
  EXPECT_EQ((*hosts)[2].name, "slow-b");
  EXPECT_EQ((*hosts)[2].slots, 1u);
  EXPECT_EQ((*hosts)[2].ssh_command, "/usr/bin/ssh");
}

TEST(HostsFile, RejectsBadGrammarWithLineNumbers) {
  const struct {
    const char* text;
    const char* want;
  } cases[] = {
      {"hosta 0\n", "bad slot count"},
      {"hosta nope=1\n", "unknown option"},
      {"hosta binary\n", "bad slot count"},
      {"hosta\nhosta\n", "line 2"},
      {"# only comments\n", "no hosts"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_hosts(c.text, &error)) << c.text;
    EXPECT_NE(error.find(c.want), std::string::npos)
        << "'" << c.text << "' -> '" << error << "'";
  }
}

TEST(Transport, VersionFlagPrintsTheHandshakeLine) {
  const struct {
    const char* bin;
    const char* tool;
  } tools[] = {{REAP_CAMPAIGN_BIN, "reap_campaign"},
               {REAP_DISPATCH_BIN, "reap_dispatch"},
               {REAP_REPORT_BIN, "reap_report"},
               {REAP_TRACE_BIN, "reap_trace"}};
  for (const auto& t : tools) {
    const auto out = temp_path("version_out.txt");
    std::filesystem::remove(out);
    auto child = common::Child::spawn({t.bin, "--version"}, out);
    ASSERT_TRUE(child) << t.tool;
    EXPECT_TRUE(child->wait().success()) << t.tool;
    EXPECT_EQ(file_bytes(out), build_info_line(t.tool) + "\n") << t.tool;
  }
}

TEST(Transport, JournalStdoutMirrorsEveryJournalLineFramed) {
  // Run a worker with --journal-stdout and capture stdout alone: the
  // framed stream must decode to exactly the journal file's bytes.
  const auto dir = fresh_dir("journal_stdout");
  std::filesystem::create_directories(dir);
  const auto journal = dir + "/w.journal";
  const auto stdout_path = dir + "/w.stdout";
  std::string cmd = std::string(REAP_CAMPAIGN_BIN) +
                    " --name=transport-test --workloads=mcf --policies=reap"
                    " --seeds=0,1 --instructions=20000 --warmup=2000"
                    " --baseline=none --quiet --journal=" +
                    journal + " --journal-stdout > " + stdout_path;
  auto child = common::Child::spawn({"/bin/sh", "-c", cmd}, dir + "/w.log");
  ASSERT_TRUE(child);
  EXPECT_TRUE(child->wait().success());

  common::FrameParser parser;
  parser.feed(file_bytes(stdout_path));
  const auto payloads = parser.take_payloads();
  EXPECT_EQ(parser.frames_corrupt(), 0u);
  EXPECT_EQ(parser.buffered(), 0u);
  std::string reassembled;
  for (const auto& p : payloads) reassembled += p + "\n";
  EXPECT_EQ(reassembled, file_bytes(journal));
  ASSERT_GE(payloads.size(), 3u);  // header + 2 rows
  EXPECT_EQ(payloads[0].rfind("{\"format\":", 0), 0u);
}

TEST(Transport, JournalStdoutRequiresJournal) {
  auto child = common::Child::spawn(
      {REAP_CAMPAIGN_BIN, "--workloads=mcf", "--policies=reap", "--seeds=0",
       "--instructions=2000", "--journal-stdout", "--quiet"},
      temp_path("js_requires.log"));
  ASSERT_TRUE(child);
  const auto status = child->wait();
  ASSERT_TRUE(status.exited);
  EXPECT_EQ(status.code, 1);
}

TEST(Transport, TwoTransportFleetMatchesSingleProcessRun) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "fleet_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_ok"));
  opts.jobs = 2;
  const auto result = Dispatcher(kv, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::ok);
  EXPECT_TRUE(result.lost_hosts.empty());
  EXPECT_EQ(result.points, 8u);
  EXPECT_EQ(file_bytes(ref), file_bytes(merged_csv_of(result, "fleet_m.csv")));
}

TEST(Transport, HostKilledMidCampaignDegradesAndMergeIsByteIdentical) {
  // Every stream pump on stub-b severs the connection: the host dies on
  // its first tick, fails its budget, and is drained; the local slot
  // picks up its shards. The run must still complete every row, report
  // the loss, and merge byte-identical. Budget 1 so the loss does not
  // race the shard migrating to the local slot.
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "lost_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_lost"));
  opts.jobs = 2;
  opts.host_max_failures = 1;
  ArmedFault fault("transport.stream:drop:*:key=stub-b");
  const auto result = run_checking_host_events(kv, opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::host_lost);
  ASSERT_EQ(result.lost_hosts.size(), 1u);
  EXPECT_EQ(result.lost_hosts[0], "stub-b");
  EXPECT_GE(result.restarts, 1u);
  EXPECT_EQ(file_bytes(ref), file_bytes(merged_csv_of(result, "lost_m.csv")));
}

TEST(Transport, UnreachableHostAtHandshakeDegradesPastIt) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "unreach_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_unreach"));
  opts.jobs = 2;
  ArmedFault fault("transport.connect:drop:*:key=stub-b");
  const auto result = run_checking_host_events(kv, opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::host_lost);
  ASSERT_EQ(result.lost_hosts.size(), 1u);
  EXPECT_EQ(result.lost_hosts[0], "stub-b");
  EXPECT_EQ(file_bytes(ref),
            file_bytes(merged_csv_of(result, "unreach_m.csv")));
}

TEST(Transport, GarbledFrameIsDroppedAndRowRerun) {
  // One corrupted chunk on the wire: the frame fails its CRC, the row is
  // never written locally, and the ordinary relaunch re-runs it. The
  // host survives (corruption is not a machine failure).
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "garble_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_garble"));
  opts.jobs = 2;
  ArmedFault fault("transport.stream:garble:1:key=stub-b");
  const auto result = run_checking_host_events(kv, opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::ok);
  EXPECT_TRUE(result.lost_hosts.empty());
  expect_no_duplicate_rows(result);
  EXPECT_EQ(file_bytes(ref),
            file_bytes(merged_csv_of(result, "garble_m.csv")));
}

TEST(Transport, StalledStreamCountsAsHostFailureAndRecovers) {
  // The stream freezes open (bytes stop, nothing closes): when the
  // worker exits, the stalled stream marks the attempt a host failure
  // and the shard relaunches. One stall is under the host budget, so the
  // host stays in the pool and the run ends clean.
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "stall_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_stall"));
  opts.jobs = 2;
  ArmedFault fault("transport.stream:stall:1:key=stub-b");
  const auto result = run_checking_host_events(kv, opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, DispatchStatus::ok);
  EXPECT_TRUE(result.lost_hosts.empty());
  EXPECT_GE(result.restarts, 1u);
  EXPECT_EQ(file_bytes(ref), file_bytes(merged_csv_of(result, "stall_m.csv")));
}

TEST(Transport, ReconnectAfterDropNeverDuplicatesRows) {
  // Sever the stream on its Nth pump, after rows have already landed in
  // the local journal: the relaunch must skip exactly those rows (the
  // fresh remote attempt is told them via --skip-rows) and the journals
  // must contain each key once.
  const auto kv = spec_kv(600000);  // ~45 ms per point: rows land mid-stream
  const auto ref = reference_csv(kv, "reconn_ref.csv");
  auto opts = fleet_opts(fresh_dir("fleet_reconn"));
  opts.jobs = 2;
  ArmedFault fault("transport.stream:drop:20:key=stub-b");
  const auto result = Dispatcher(kv, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.lost_hosts.empty());
  EXPECT_GE(result.restarts, 1u);
  expect_no_duplicate_rows(result);
  EXPECT_EQ(file_bytes(ref),
            file_bytes(merged_csv_of(result, "reconn_m.csv")));
}

TEST(Transport, HandshakeRefusesMismatchedWorkerBuild) {
  // A host running a different build answers --version with a different
  // line: fleet skew would corrupt the byte-identical merge, so this is
  // a hard error, never a degrade.
  auto spec = stub_host(fresh_dir("hs_mismatch"));
  spec.remote_binary = "/bin/echo";  // prints its args, not our line
  SshTransport transport(spec);
  std::string error, note;
  EXPECT_EQ(transport.handshake("", &error, &note),
            HandshakeStatus::mismatch);
  EXPECT_NE(error.find("version skew"), std::string::npos) << error;

  // And through the dispatcher: the whole run refuses to start.
  auto opts = fleet_opts(fresh_dir("hs_mismatch_run"));
  auto bad = stub_host(opts.work_dir);
  bad.remote_binary = "/bin/echo";
  opts.transports[1] = std::make_shared<SshTransport>(bad);
  const auto result = Dispatcher(spec_kv(2000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("version skew"), std::string::npos)
      << result.error;
}

TEST(Transport, UnreachableSshCommandReportsUnreachable) {
  auto spec = stub_host(fresh_dir("hs_unreach"));
  spec.ssh_command = "/nonexistent/ssh-binary";
  SshTransport transport(spec);
  std::string error, note;
  EXPECT_EQ(transport.handshake("", &error, &note),
            HandshakeStatus::unreachable);
  EXPECT_FALSE(error.empty());
}

TEST(Transport, MissingRemoteTraceStoreFallsBackWithOneNote) {
  auto spec = stub_host(fresh_dir("hs_tracedir"));
  SshTransport transport(spec);
  std::string error, note;
  EXPECT_EQ(transport.handshake("/nonexistent-trace-store", &error, &note),
            HandshakeStatus::ok);
  EXPECT_NE(note.find("stub-b"), std::string::npos) << note;
  EXPECT_NE(note.find("fall back"), std::string::npos) << note;

  // A present trace dir probes clean: no note.
  const auto present = fresh_dir("hs_tracedir_ok");
  std::filesystem::create_directories(present);
  SshTransport transport2(stub_host(present));
  note.clear();
  EXPECT_EQ(transport2.handshake(present, &error, &note),
            HandshakeStatus::ok);
  EXPECT_TRUE(note.empty()) << note;
}

}  // namespace
}  // namespace reap::campaign
