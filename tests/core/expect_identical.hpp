// Field-by-field ExperimentResult comparisons, shared by the suites that
// pin the engine against the reference model or one execution order
// against another.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <thread>

#include "reap/core/experiment.hpp"
#include "reference_model.hpp"

namespace reap::core::testutil {

inline void expect_same_cache_stats(const sim::CacheStats& x,
                                    const sim::CacheStats& y,
                                    const char* which) {
  EXPECT_EQ(x.read_lookups, y.read_lookups) << which;
  EXPECT_EQ(x.read_hits, y.read_hits) << which;
  EXPECT_EQ(x.write_lookups, y.write_lookups) << which;
  EXPECT_EQ(x.write_hits, y.write_hits) << which;
  EXPECT_EQ(x.fills, y.fills) << which;
  EXPECT_EQ(x.evictions, y.evictions) << which;
  EXPECT_EQ(x.dirty_evictions, y.dirty_evictions) << which;
}

// Exact comparison on every stat the result carries. EXPECT_EQ on doubles
// is deliberate: both paths must run the same arithmetic in the same
// order, so even the last ulp has to match.
inline void expect_identical(const ExperimentResult& a,
                             const ExperimentResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);

  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);

  expect_same_cache_stats(a.hier.l1i, b.hier.l1i, "l1i");
  expect_same_cache_stats(a.hier.l1d, b.hier.l1d, "l1d");
  expect_same_cache_stats(a.hier.l2, b.hier.l2, "l2");
  EXPECT_EQ(a.hier.mem_reads, b.hier.mem_reads);
  EXPECT_EQ(a.hier.mem_writes, b.hier.mem_writes);

  EXPECT_EQ(a.mttf.failure_prob_sum, b.mttf.failure_prob_sum);
  EXPECT_EQ(a.mttf.failure_rate_per_s, b.mttf.failure_rate_per_s);
  EXPECT_EQ(a.mttf.mttf_seconds, b.mttf.mttf_seconds);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.max_concealed, b.max_concealed);

  // Fig. 3 histogram: same bins, same counts, same weights.
  EXPECT_EQ(a.concealed.total_count(), b.concealed.total_count());
  EXPECT_EQ(a.concealed.total_weight(), b.concealed.total_weight());
  EXPECT_EQ(a.concealed.max_sample(), b.concealed.max_sample());
  const auto bins_a = a.concealed.nonempty_bins();
  const auto bins_b = b.concealed.nonempty_bins();
  ASSERT_EQ(bins_a.size(), bins_b.size());
  for (std::size_t i = 0; i < bins_a.size(); ++i) {
    EXPECT_EQ(bins_a[i].lo, bins_b[i].lo);
    EXPECT_EQ(bins_a[i].count, bins_b[i].count);
    EXPECT_EQ(bins_a[i].weight, bins_b[i].weight);
  }

  EXPECT_EQ(a.events.lookups, b.events.lookups);
  EXPECT_EQ(a.events.way_data_reads, b.events.way_data_reads);
  EXPECT_EQ(a.events.way_data_writes, b.events.way_data_writes);
  EXPECT_EQ(a.events.tag_reads, b.events.tag_reads);
  EXPECT_EQ(a.events.tag_writes, b.events.tag_writes);
  EXPECT_EQ(a.events.ecc_decodes, b.events.ecc_decodes);
  EXPECT_EQ(a.events.ecc_encodes, b.events.ecc_encodes);

  EXPECT_EQ(a.energy.dynamic_total_j(), b.energy.dynamic_total_j());
  EXPECT_EQ(a.p_rd, b.p_rd);
}

// `cfg` run alone on a new thread, whose thread_local experiment rig is
// freshly built: the baseline the rig-reuse and group-pass suites compare
// reused rigs and shared passes against.
inline ExperimentResult run_on_fresh_rig(const ExperimentConfig& cfg) {
  ExperimentResult r;
  std::thread([&] { r = run_experiment(cfg); }).join();
  return r;
}

// The relative tolerance on ledger sums against the reference model. Both
// sides add the same probabilities in the same order, so in practice they
// agree to the last bit; the tolerance only admits a different but
// equally exact evaluation of a binomial tail.
inline constexpr double kLedgerRelTol = 1e-9;

inline void expect_close(double engine, double reference, const char* what) {
  EXPECT_LE(std::fabs(engine - reference),
            kLedgerRelTol * std::max(std::fabs(engine), std::fabs(reference)))
      << what << ": engine " << engine << " reference " << reference;
}

// `r` against lane `lane` of a reference pass that has run: exact on
// instructions, cycles, every hierarchy counter, checks, the concealed
// histogram's bins and counts, max_concealed and the energy events;
// within kLedgerRelTol on the ledger sum and the histogram's weights.
inline void expect_matches_reference(const ExperimentResult& r,
                                     const testref::ReferenceModel& ref,
                                     std::size_t lane) {
  const testref::RefLaneResult& want = ref.lane(lane);
  EXPECT_EQ(r.instructions, ref.instructions());
  EXPECT_EQ(r.cycles, want.cycles);

  const sim::HierarchyStats hier = ref.stats();
  expect_same_cache_stats(r.hier.l1i, hier.l1i, "l1i");
  expect_same_cache_stats(r.hier.l1d, hier.l1d, "l1d");
  expect_same_cache_stats(r.hier.l2, hier.l2, "l2");
  EXPECT_EQ(r.hier.mem_reads, hier.mem_reads);
  EXPECT_EQ(r.hier.mem_writes, hier.mem_writes);

  EXPECT_EQ(r.checks, want.checks);
  EXPECT_EQ(r.max_concealed, want.max_concealed);
  expect_close(r.mttf.failure_prob_sum, want.failure_prob_sum,
               "failure_prob_sum");
  EXPECT_EQ(r.concealed.total_count(), want.concealed.total_count());
  expect_close(r.concealed.total_weight(), want.concealed.total_weight(),
               "histogram weight");
  const auto bins = r.concealed.nonempty_bins();
  const auto want_bins = want.concealed.nonempty_bins();
  ASSERT_EQ(bins.size(), want_bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_EQ(bins[i].lo, want_bins[i].lo);
    EXPECT_EQ(bins[i].count, want_bins[i].count) << "bin " << bins[i].lo;
    expect_close(bins[i].weight, want_bins[i].weight, "bin weight");
  }

  EXPECT_EQ(r.events.lookups, want.events.lookups);
  EXPECT_EQ(r.events.way_data_reads, want.events.way_data_reads);
  EXPECT_EQ(r.events.way_data_writes, want.events.way_data_writes);
  EXPECT_EQ(r.events.tag_reads, want.events.tag_reads);
  EXPECT_EQ(r.events.tag_writes, want.events.tag_writes);
  EXPECT_EQ(r.events.ecc_decodes, want.events.ecc_decodes);
  EXPECT_EQ(r.events.ecc_encodes, want.events.ecc_encodes);
}

// Runs `cfgs` (one config, or configs that share a pass) through the
// reference model and compares each result with its lane.
inline void expect_matches_reference(std::span<const ExperimentResult> results,
                                     std::span<const ExperimentConfig> cfgs) {
  ASSERT_EQ(results.size(), cfgs.size());
  testref::ReferenceModel ref(cfgs);
  ref.run();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "lane " << i << " ("
                                    << to_string(cfgs[i].policy) << ")");
    expect_matches_reference(results[i], ref, i);
  }
}

inline void expect_matches_reference(const ExperimentResult& r,
                                     const ExperimentConfig& cfg) {
  expect_matches_reference(std::span<const ExperimentResult>(&r, 1),
                           std::span<const ExperimentConfig>(&cfg, 1));
}

}  // namespace reap::core::testutil
