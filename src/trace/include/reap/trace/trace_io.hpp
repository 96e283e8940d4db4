// The text trace format: users can bring externally-captured traces (e.g.
// from a real gem5 run) instead of the synthetic generators.
//
// Text format, one op per line:   I|L|S <hex-or-dec address>
//
// The checked binary format is the .reaptrace store (trace_store.hpp):
// a versioned header and CRC32Cs over header and body, replayed through
// MappedTraceFile and ReplayTraceSource. examples/trace_tools writes and
// replays both.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "reap/trace/record.hpp"

namespace reap::trace {

// In-memory trace; also the unit-test workhorse.
class VectorTraceSource final : public TraceSource {
 public:
  VectorTraceSource() = default;
  explicit VectorTraceSource(std::vector<MemOp> ops) : ops_(std::move(ops)) {}

  void push(MemOp op) { ops_.push_back(op); }
  std::size_t size() const { return ops_.size(); }

  bool next(MemOp& op) override;
  void reset() override { pos_ = 0; }

 private:
  std::vector<MemOp> ops_;
  std::size_t pos_ = 0;
};

// Reads the text format. next() returns false at both clean EOF and
// parse error, so a caller that stops there and never looks further
// cannot tell a complete trace from one truncated by a garbage tail:
// check error() after the stream ends (empty = clean EOF). Once an error
// is set it latches -- further next() calls return false without reading
// on -- until reset() rewinds and clears it.
class TextTraceReader final : public TraceSource {
 public:
  explicit TextTraceReader(std::string path);
  ~TextTraceReader() override;

  TextTraceReader(const TextTraceReader&) = delete;
  TextTraceReader& operator=(const TextTraceReader&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& error() const { return error_; }

  bool next(MemOp& op) override;
  void reset() override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string error_;
};

// Writes at most `max_ops` ops of `source` in the text format. Returns
// false on IO failure.
bool write_text_trace(const std::string& path, TraceSource& source,
                      std::uint64_t max_ops);
}  // namespace reap::trace
