#include "reap/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace reap::trace {
namespace {

std::vector<MemOp> sample_ops() {
  return {
      {OpType::inst_fetch, 0x400000},
      {OpType::load, 0x10000040},
      {OpType::store, 0x10000080},
      {OpType::inst_fetch, 0x400004},
      {OpType::load, 0xdeadbeef},
  };
}

TEST(VectorTraceSource, YieldsInOrderAndEnds) {
  VectorTraceSource src(sample_ops());
  MemOp op;
  ASSERT_TRUE(src.next(op));
  EXPECT_EQ(op.type, OpType::inst_fetch);
  EXPECT_EQ(op.addr, 0x400000u);
  int count = 1;
  while (src.next(op)) ++count;
  EXPECT_EQ(count, 5);
  EXPECT_FALSE(src.next(op));
}

TEST(VectorTraceSource, ResetRestarts) {
  VectorTraceSource src(sample_ops());
  MemOp op;
  while (src.next(op)) {
  }
  src.reset();
  ASSERT_TRUE(src.next(op));
  EXPECT_EQ(op.addr, 0x400000u);
}

TEST(TextTrace, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/reap_trace.txt";
  VectorTraceSource src(sample_ops());
  ASSERT_TRUE(write_text_trace(path, src, 1000));

  TextTraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  MemOp op;
  for (const MemOp& want : sample_ops()) {
    ASSERT_TRUE(rd.next(op));
    EXPECT_EQ(op.type, want.type);
    EXPECT_EQ(op.addr, want.addr);
  }
  EXPECT_FALSE(rd.next(op));
  std::remove(path.c_str());
}

TEST(TextTrace, ReaderResetRewinds) {
  const std::string path = ::testing::TempDir() + "/reap_trace2.txt";
  VectorTraceSource src(sample_ops());
  ASSERT_TRUE(write_text_trace(path, src, 1000));
  TextTraceReader rd(path);
  MemOp op;
  ASSERT_TRUE(rd.next(op));
  rd.reset();
  MemOp op2;
  ASSERT_TRUE(rd.next(op2));
  EXPECT_EQ(op.addr, op2.addr);
  std::remove(path.c_str());
}

TEST(TextTrace, CommentsSkipped) {
  const std::string path = ::testing::TempDir() + "/reap_trace3.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header comment\nI 400000\n# mid comment\nL 10\n", f);
  std::fclose(f);
  TextTraceReader rd(path);
  MemOp op;
  ASSERT_TRUE(rd.next(op));
  EXPECT_EQ(op.type, OpType::inst_fetch);
  ASSERT_TRUE(rd.next(op));
  EXPECT_EQ(op.type, OpType::load);
  EXPECT_EQ(op.addr, 0x10u);
  EXPECT_FALSE(rd.next(op));
  std::remove(path.c_str());
}

TEST(TextTrace, MissingFileReportsError) {
  TextTraceReader rd("/nonexistent/path/trace.txt");
  EXPECT_FALSE(rd.ok());
  MemOp op;
  EXPECT_FALSE(rd.next(op));
  EXPECT_FALSE(rd.error().empty());
}

// next() returns false at both clean EOF and parse error; a caller that
// never checks error() cannot tell a complete trace from one truncated by
// a garbage tail. The cases below pin the contract: error() empty iff the
// stream ended cleanly, and a set error latches until reset().

TEST(TextTrace, CommentOnlyFileIsCleanEof) {
  const std::string path = ::testing::TempDir() + "/reap_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# only\n# comments\n# here\n", f);
  std::fclose(f);
  TextTraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  MemOp op;
  EXPECT_FALSE(rd.next(op));
  EXPECT_TRUE(rd.error().empty());  // EOF, not an error
  std::remove(path.c_str());
}

TEST(TextTrace, TrailingGarbageSetsErrorAndLatches) {
  const std::string path = ::testing::TempDir() + "/reap_garbage.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("I 400000\nL 10\nI zzz_not_hex\nS 20\n", f);
  std::fclose(f);
  TextTraceReader rd(path);
  MemOp op;
  ASSERT_TRUE(rd.next(op));
  ASSERT_TRUE(rd.next(op));
  EXPECT_FALSE(rd.next(op));  // the garbage line
  EXPECT_NE(rd.error().find("parse error"), std::string::npos);
  // Latched: the reader must not resume mid-garbage and serve "S 20" as
  // if the trace were intact.
  EXPECT_FALSE(rd.next(op));
  EXPECT_FALSE(rd.next(op));
  EXPECT_NE(rd.error().find("parse error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TextTrace, UnknownOpKindSetsError) {
  const std::string path = ::testing::TempDir() + "/reap_unknown.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("I 400000\nQ 1234\n", f);
  std::fclose(f);
  TextTraceReader rd(path);
  MemOp op;
  ASSERT_TRUE(rd.next(op));
  EXPECT_FALSE(rd.next(op));
  EXPECT_NE(rd.error().find("unknown op kind"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TextTrace, ResetClearsALatchedError) {
  const std::string path = ::testing::TempDir() + "/reap_reset_err.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("I 400000\nnot a line\n", f);
  std::fclose(f);
  TextTraceReader rd(path);
  MemOp op;
  ASSERT_TRUE(rd.next(op));
  EXPECT_FALSE(rd.next(op));
  EXPECT_FALSE(rd.error().empty());
  rd.reset();
  EXPECT_TRUE(rd.error().empty());
  ASSERT_TRUE(rd.next(op));  // reads from the top again
  EXPECT_EQ(op.addr, 0x400000u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reap::trace
