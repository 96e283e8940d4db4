#include "reap/campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>

#include "reap/common/assert.hpp"
#include "reap/common/fault.hpp"

namespace reap::campaign {
namespace {

// A contiguous, mutex-guarded range of pass indices. Owners pop from the
// front; thieves take the back half. Each pop corresponds to one whole
// pass (milliseconds to seconds of work), so the lock is cold.
class Shard {
 public:
  void assign(std::size_t begin, std::size_t end) {
    std::lock_guard lock(mu_);
    begin_ = begin;
    end_ = end;
  }

  bool pop(std::size_t& idx) {
    std::lock_guard lock(mu_);
    if (begin_ >= end_) return false;
    idx = begin_++;
    return true;
  }

  // Removes the back half (at least one element) of the range; returns
  // false if fewer than two elements remain (stealing a lone element from
  // a worker that is about to pop it would just bounce work around).
  bool steal(std::size_t& begin, std::size_t& end) {
    std::lock_guard lock(mu_);
    const std::size_t remaining = end_ - begin_;
    if (remaining < 2) return false;
    const std::size_t take = remaining / 2;
    begin = end_ - take;
    end = end_;
    end_ -= take;
    return true;
  }

  std::size_t remaining() {
    std::lock_guard lock(mu_);
    return end_ - begin_;
  }

 private:
  std::mutex mu_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

// The passes of a run, in visiting order: positions into `points`,
// grouped by key, each group split into passes by core::shares_pass. A
// point joins the first of its key's passes whose first point it shares a
// pass with, so a pass's points stay in input order. Keys are ordered by
// the smallest input position they contain and a key's passes stay back
// to back, so a 1-thread run visits every group en bloc and
// deterministically.
std::vector<std::vector<std::size_t>> plan_passes(
    const std::vector<CampaignPoint>& points,
    const std::function<std::string(const CampaignPoint&)>& group_key,
    bool one_point_passes) {
  if (one_point_passes) {
    std::vector<std::vector<std::size_t>> passes(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) passes[i] = {i};
    return passes;
  }
  struct Group {
    std::size_t rank;
    std::vector<std::size_t> passes;  // into `passes` below
  };
  std::unordered_map<std::string, Group> groups;
  groups.reserve(points.size());
  std::vector<std::vector<std::size_t>> passes;
  std::vector<std::size_t> pass_rank;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string key =
        group_key ? group_key(points[i]) : points[i].trace_key;
    Group& g = groups.try_emplace(key, Group{groups.size(), {}}).first->second;
    const auto joined =
        std::find_if(g.passes.begin(), g.passes.end(), [&](std::size_t p) {
          return core::shares_pass(points[passes[p].front()].config,
                                   points[i].config);
        });
    if (joined != g.passes.end()) {
      passes[*joined].push_back(i);
    } else {
      g.passes.push_back(passes.size());
      passes.push_back({i});
      pass_rank.push_back(g.rank);
    }
  }
  std::vector<std::size_t> order(passes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pass_rank[a] < pass_rank[b];
                   });
  std::vector<std::vector<std::size_t>> ordered;
  ordered.reserve(passes.size());
  for (const std::size_t p : order) ordered.push_back(std::move(passes[p]));
  return ordered;
}

}  // namespace

std::vector<core::ExperimentResult> run_pass(const Pass& pass,
                                             trace::TraceSource* source) {
  std::vector<core::ExperimentConfig> cfgs;
  cfgs.reserve(pass.size());
  for (const CampaignPoint* pt : pass) cfgs.push_back(pt->config);
  return core::run_experiments(cfgs, source);
}

CampaignRunner::CampaignRunner(RunnerOptions opts) : opts_(std::move(opts)) {
  if (opts_.run_pass_fn) return;
  if (!opts_.run_point_fn && !opts_.run_fn) {
    opts_.run_pass_fn = [](const Pass& pass) { return run_pass(pass); };
    return;
  }
  // A per-point seam gains nothing from a shared pass: unless a group_key
  // asks for grouping, its points run one per pass, in input order.
  one_point_passes_ = !opts_.group_key;
  opts_.run_pass_fn = [point_fn = opts_.run_point_fn,
                       run_fn = opts_.run_fn](const Pass& pass) {
    std::vector<core::ExperimentResult> out;
    out.reserve(pass.size());
    for (const CampaignPoint* pt : pass)
      out.push_back(point_fn ? point_fn(*pt) : run_fn(pt->config));
    return out;
  };
}

unsigned CampaignRunner::effective_threads(std::size_t n_points) const {
  unsigned n = opts_.threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(n, std::max<std::size_t>(1, n_points)));
}

std::vector<core::ExperimentResult> CampaignRunner::run(
    const std::vector<CampaignPoint>& points) const {
  const std::size_t total = points.size();
  std::vector<core::ExperimentResult> results(total);
  if (total == 0) return results;

  const std::vector<std::vector<std::size_t>> passes =
      plan_passes(points, opts_.group_key, one_point_passes_);
  const unsigned n_threads = effective_threads(passes.size());

  // Pre-split the pass list into one contiguous shard per worker. Passes
  // hold input positions, so results stay positionally aligned.
  std::vector<Shard> shards(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) {
    const std::size_t begin = passes.size() * t / n_threads;
    const std::size_t end = passes.size() * (t + 1) / n_threads;
    shards[t].assign(begin, end);
  }

  std::size_t done = 0;  // guarded by progress_mu
  // Exact termination: a stolen range is briefly invisible between the
  // victim's steal() and the thief's assign(), so scanning shard sizes can
  // transiently read zero while work remains. `unclaimed` counts passes
  // not yet popped anywhere and is decremented only at pop time, making
  // "nothing left" an exact condition.
  std::atomic<std::size_t> unclaimed{passes.size()};
  std::mutex progress_mu;

  const auto run_one = [&](std::size_t p) {
    unclaimed.fetch_sub(1, std::memory_order_relaxed);
    const std::vector<std::size_t>& members = passes[p];
    Pass pass;
    pass.reserve(members.size());
    for (const std::size_t idx : members) {
      // The per-point fault site, matched on the row key: this is where an
      // injected crash/hang lands to model an experiment taking the whole
      // process down, deterministically, at one named grid point. Every
      // point of the pass passes it before the pass runs, so a poisoned
      // point takes its pass down before any of its rows is delivered.
      common::fault::hit("runner.point", points[idx].key);
      pass.push_back(&points[idx]);
    }
    std::vector<core::ExperimentResult> out = opts_.run_pass_fn(pass);
    REAP_EXPECTS(out.size() == members.size());
    for (std::size_t k = 0; k < members.size(); ++k)
      results[members[k]] = std::move(out[k]);
    std::lock_guard lock(progress_mu);
    for (const std::size_t idx : members) {
      ++done;
      if (opts_.on_result) opts_.on_result(points[idx], results[idx]);
      if (opts_.on_progress) opts_.on_progress(done, total);
    }
  };

  const auto worker = [&](unsigned self) {
    for (;;) {
      if (opts_.should_stop && opts_.should_stop())
        return;  // stop claiming; the pass in hand already finished
      std::size_t pos;
      if (shards[self].pop(pos)) {
        run_one(pos);
        continue;
      }
      // Own shard drained: steal the back half of the fullest victim, or
      // take its lone element directly when halving is not worthwhile.
      std::size_t best = 0, best_remaining = 0;
      for (unsigned v = 0; v < n_threads; ++v) {
        if (v == self) continue;
        const std::size_t r = shards[v].remaining();
        if (r > best_remaining) {
          best_remaining = r;
          best = v;
        }
      }
      if (best_remaining == 0) {
        if (unclaimed.load(std::memory_order_relaxed) == 0)
          return;  // every pass has been popped somewhere
        std::this_thread::yield();  // a steal is mid-flight; rescan
        continue;
      }
      std::size_t b, e;
      if (best_remaining >= 2 && shards[best].steal(b, e)) {
        shards[self].assign(b, e);
      } else if (shards[best].pop(pos)) {
        run_one(pos);
      } else {
        std::this_thread::yield();  // lost a race; rescan
      }
    }
  };

  if (n_threads == 1) {
    worker(0);
    return results;
  }

  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  return results;
}

}  // namespace reap::campaign
