// CampaignRunner: shards expanded grid points across worker threads, one
// simulation pass at a time.
//
// A pass is the unit of work: the points of one trace group (equal
// group_key, by default CampaignPoint::trace_key) that pairwise
// core::shares_pass, simulated together by core::run_experiments -- one op
// stream, one L1 -> L2 walk, one reliability lane per point. Work
// distribution is a bounded-range work-stealing scheme over passes: the
// pass list is pre-split into one contiguous shard per worker; a worker
// pops from the front of its own shard and, when empty, steals the back
// half of the largest remaining shard. Experiments are pure functions of
// their config (whatever shares their pass) and every result is written
// to results[point.index], so the output -- and any aggregate computed
// from it in index order -- is bit-identical for any thread count,
// including 1 (the determinism contract tested in
// tests/campaign/test_runner_determinism.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign {

// The points of one simulation pass (see RunnerOptions::group_key).
using Pass = std::vector<const CampaignPoint*>;

struct RunnerOptions {
  // 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;

  // Called after each finished experiment with (done, total). Invoked from
  // worker threads under a mutex; keep it cheap. A pass reports its
  // points together, after the whole pass ran.
  std::function<void(std::size_t done, std::size_t total)> on_progress;

  // Streaming hook: called with each finished (point, result) in
  // *completion* order, serialized under the same mutex as on_progress
  // (and before it, so a progress line never precedes its row). This is
  // what the execution journal hangs off: rows become durable the moment
  // their pass finishes, independent of the index-ordered vector returned
  // at the end.
  std::function<void(const CampaignPoint& point,
                     const core::ExperimentResult& result)>
      on_result;

  // Runs one pass: `pass` lists its points in schedule order, and the
  // results come back in the same order. Defaults to run_pass below.
  std::function<std::vector<core::ExperimentResult>(const Pass& pass)>
      run_pass_fn;

  // Per-point test seams: when set (and run_pass_fn is not), a pass runs
  // its points one by one through them, and without a group_key every
  // point is a pass of its own, visited in input order. run_point_fn
  // receives the whole grid point and wins over run_fn when both are set.
  std::function<core::ExperimentResult(const core::ExperimentConfig&)> run_fn;
  std::function<core::ExperimentResult(const CampaignPoint&)> run_point_fn;

  // Early-stop predicate, checked by each worker between passes. When it
  // returns true workers finish the pass in hand and stop claiming new
  // ones, so run() returns with some results still default-constructed --
  // the caller is expected to consult its journal (which has exactly the
  // completed rows) rather than the return value. This is how SIGTERM and
  // journal I/O errors end a run at a row boundary instead of mid-write.
  std::function<bool()> should_stop;

  // Trace-group key; defaults to CampaignPoint::trace_key (except under
  // the per-point seams, see above). Points with
  // equal key that share a pass run as one; a key's passes (several only
  // when least-error-rate replacement or differing configs split it) are
  // scheduled back to back, keys in order of the smallest input position
  // they contain and points within a pass in input order, so a per-group
  // resource -- a materialized trace -- is produced once and stays hot
  // while its group runs. Results remain positionally aligned with the
  // input (results[i] belongs to points[i]) and index-ordered emission is
  // untouched; only the *completion* order seen by on_result/on_progress
  // changes, which the journal/merge path is already indifferent to (rows
  // are re-sorted by grid index on merge).
  std::function<std::string(const CampaignPoint&)> group_key;
};

// The default pass: core::run_experiments over the points' configs, ops
// from `source` when given (see core::run_experiments).
std::vector<core::ExperimentResult> run_pass(
    const Pass& pass, trace::TraceSource* source = nullptr);

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions opts = {});

  // Runs every point; returns results positionally aligned with `points`
  // (results[i] belongs to points[i]). For a full expansion position and
  // CampaignPoint::index coincide; for a shard/resume subset they do not.
  std::vector<core::ExperimentResult> run(
      const std::vector<CampaignPoint>& points) const;

  unsigned effective_threads(std::size_t n_points) const;

 private:
  RunnerOptions opts_;
  bool one_point_passes_ = false;
};

}  // namespace reap::campaign
