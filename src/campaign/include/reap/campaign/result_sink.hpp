// ResultSink: streams per-experiment rows to durable formats.
//
// Sinks consume *rendered* rows (the cell vector of result_cells), so the
// same bytes flow whether a row arrives straight from the runner or is
// replayed from a journal / merged from shard outputs -- the byte-identical
// merge guarantee rests on this. Rows must be fed in grid-index order, and
// every row ends with the full config_kv string, so each line of output is
// independently reproducible: paste the kv string back into
// `reap_campaign --config="..."` (or core::config_from_kv) to re-run
// exactly that point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign {

// Column names of the flattened per-experiment row.
std::vector<std::string> result_header();

// One row; cells align 1:1 with result_header(). Numeric formatting is
// deterministic (shortest round-trip form), which the byte-identical
// determinism guarantee depends on.
std::vector<std::string> result_cells(const CampaignPoint& point,
                                      const core::ExperimentResult& r);

// The comma-joined `"key":value` field list of one JSONL object (no
// braces): plain finite numbers go out unquoted, everything else as an
// escaped JSON string. Shared by the JSONL sink and the execution journal
// so their lines parse back identically.
std::string jsonl_fields(const std::vector<std::string>& header,
                         const std::vector<std::string>& cells);

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Streams one already-rendered row; cells align with result_header().
  virtual void add_cells(const std::vector<std::string>& cells) = 0;

  // Convenience: renders and streams (point, result).
  void add(const CampaignPoint& point, const core::ExperimentResult& r) {
    add_cells(result_cells(point, r));
  }
};

// CSV file with result_header() columns. ok() turns false when the open
// or a write fails (a full disk shows when a buffer flushes), and rows
// after that are dropped; close() flushes and says whether every row
// landed. A sink destroyed unclosed closes unchecked.
class CsvResultSink final : public ResultSink {
 public:
  explicit CsvResultSink(const std::string& path);
  ~CsvResultSink() override;
  bool ok() const;
  void add_cells(const std::vector<std::string>& cells) override;
  bool close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// One JSON object per line (JSONL); keys are result_header() names.
// ok() and close() as CsvResultSink's.
class JsonlResultSink final : public ResultSink {
 public:
  explicit JsonlResultSink(const std::string& path);
  ~JsonlResultSink() override;
  bool ok() const;
  void add_cells(const std::vector<std::string>& cells) override;
  bool close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: streams every (point, result) pair into `sink` in index
// order.
void emit_all(const std::vector<CampaignPoint>& points,
              const std::vector<core::ExperimentResult>& results,
              ResultSink& sink);

}  // namespace reap::campaign
