// Child-process helper: exit/signal decoding, log redirection, exec
// failure reporting, kill, and the parse_shard CLI helper it ships with.
#include <gtest/gtest.h>
#include <poll.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "reap/common/cli.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::common {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Subprocess, ReportsExitCodes) {
  auto ok = Child::spawn({"/bin/true"});
  ASSERT_TRUE(ok);
  const auto s = ok->wait();
  EXPECT_TRUE(s.exited);
  EXPECT_EQ(s.code, 0);
  EXPECT_TRUE(s.success());
  EXPECT_EQ(s.describe(), "exit 0");

  auto bad = Child::spawn({"/bin/false"});
  ASSERT_TRUE(bad);
  const auto f = bad->wait();
  EXPECT_TRUE(f.exited);
  EXPECT_NE(f.code, 0);
  EXPECT_FALSE(f.success());
}

TEST(Subprocess, RedirectsOutputToLog) {
  const auto log = temp_path("subprocess_log.txt");
  std::remove(log.c_str());
  auto child = Child::spawn({"/bin/sh", "-c", "echo out; echo err >&2"}, log);
  ASSERT_TRUE(child);
  EXPECT_TRUE(child->wait().success());
  std::ifstream in(log);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_NE(bytes.find("out"), std::string::npos);
  EXPECT_NE(bytes.find("err"), std::string::npos);
  std::remove(log.c_str());
}

TEST(Subprocess, MissingBinaryIsASpawnError) {
  std::string error;
  auto child = Child::spawn({"/no/such/binary-xyz"}, "", &error);
  EXPECT_FALSE(child);
  EXPECT_NE(error.find("cannot exec"), std::string::npos) << error;
}

TEST(Subprocess, KillReportsTheSignal) {
  auto child = Child::spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(child);
  EXPECT_FALSE(child->poll());  // still running
  EXPECT_TRUE(child->kill(SIGKILL));
  const auto s = child->wait();
  EXPECT_FALSE(s.exited);
  EXPECT_EQ(s.signal, SIGKILL);
  EXPECT_EQ(s.describe(), "signal 9");
  // poll() after reaping keeps returning the cached status.
  ASSERT_TRUE(child->poll());
  EXPECT_EQ(child->poll()->signal, SIGKILL);
}

// The exit descriptor is what a supervisor blocks on: quiet while the
// child runs, readable once it has exited, and the status is then there
// to collect without blocking.
TEST(Subprocess, ExitFdTurnsReadableWhenTheChildExits) {
  auto child = Child::spawn({"sleep", "30"});
  ASSERT_TRUE(child);
  if (child->exit_fd() < 0) GTEST_SKIP() << "no pidfd_open on this kernel";
  pollfd pfd{child->exit_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 50), 0);  // still sleeping
  child->kill(SIGTERM);
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  const auto status = child->poll();
  ASSERT_TRUE(status);
  EXPECT_EQ(status->signal, SIGTERM);
}

TEST(ParseShard, AcceptsIOfNAndRejectsGarbage) {
  std::size_t i = 99, n = 99;
  EXPECT_TRUE(parse_shard("0/1", i, n));
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(parse_shard("2/8", i, n));
  EXPECT_EQ(i, 2u);
  EXPECT_EQ(n, 8u);
  for (const char* bad : {"", "3", "1/0", "2/2", "3/2", "a/b", "1/2/3"})
    EXPECT_FALSE(parse_shard(bad, i, n)) << bad;
}

}  // namespace
}  // namespace reap::common
