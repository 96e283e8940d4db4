// Field-by-field ExperimentResult equality, shared by the suites that pin
// one engine or execution order against another.
#pragma once

#include <gtest/gtest.h>

#include "reap/core/experiment.hpp"

namespace reap::core::testutil {

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

  const auto eq_cache = [](const sim::CacheStats& x, const sim::CacheStats& y,
                           const char* which) {
    EXPECT_EQ(x.read_lookups, y.read_lookups) << which;
    EXPECT_EQ(x.read_hits, y.read_hits) << which;
    EXPECT_EQ(x.write_lookups, y.write_lookups) << which;
    EXPECT_EQ(x.write_hits, y.write_hits) << which;
    EXPECT_EQ(x.fills, y.fills) << which;
    EXPECT_EQ(x.evictions, y.evictions) << which;
    EXPECT_EQ(x.dirty_evictions, y.dirty_evictions) << which;
  };
  eq_cache(a.hier.l1i, b.hier.l1i, "l1i");
  eq_cache(a.hier.l1d, b.hier.l1d, "l1d");
  eq_cache(a.hier.l2, b.hier.l2, "l2");
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

}  // namespace reap::core::testutil
