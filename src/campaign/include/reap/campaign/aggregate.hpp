// Cross-experiment aggregates: the paper's headline numbers computed over
// a whole campaign.
//
// Every non-baseline point is matched with the baseline-policy point that
// shares its (workload, ecc_t, operating point, seed) coordinates, giving
// per-point MTTF gain / energy overhead / IPC delta (Figs. 5 and 6); these
// are then summarized per policy and per workload. Aggregation always
// iterates in grid-index order over an index-ordered results vector, so the
// numbers -- and their rendered text -- are bit-identical for any runner
// thread count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"
#include "reap/reliability/mttf.hpp"

namespace reap::campaign {

// One matched (policy point, baseline point) comparison.
struct PointComparison {
  std::size_t index = 0;           // the non-baseline point
  std::size_t baseline_index = 0;  // its baseline partner
  double mttf_gain = 0.0;          // MTTF_point / MTTF_baseline (Fig. 5)
  double energy_ratio = 0.0;       // E_point / E_baseline       (Fig. 6)
  double energy_overhead_pct = 0.0;
  double speedup = 0.0;  // IPC_point / IPC_baseline
};

// The per-comparison metrics from the raw quantities both sources can
// supply: the in-memory ExperimentResult pair and a CSV/JSONL row pair
// (whose shortest-round-trip cells parse back to the exact doubles). Both
// aggregation paths funnel through this one function so their numbers --
// and rendered reports -- cannot drift apart.
PointComparison compare_metrics(std::size_t index, std::size_t baseline_index,
                                const reliability::MttfResult& mttf,
                                double energy_j, double ipc,
                                const reliability::MttfResult& base_mttf,
                                double base_energy_j, double base_ipc);

// A comparison annotated with the grouping coordinates summaries need.
struct AnnotatedComparison {
  PointComparison c;
  core::PolicyKind policy;  // the non-baseline policy
  std::string workload;
};

struct PolicySummary {
  core::PolicyKind policy;
  std::size_t n = 0;
  double mean_mttf_gain = 0.0;
  double geomean_mttf_gain = 0.0;
  double min_mttf_gain = 0.0;
  double max_mttf_gain = 0.0;
  double mean_energy_overhead_pct = 0.0;
  double max_energy_overhead_pct = 0.0;
  double mean_speedup = 0.0;
};

struct WorkloadSummary {
  std::string workload;
  core::PolicyKind policy;
  double mean_mttf_gain = 0.0;
  double mean_energy_overhead_pct = 0.0;
};

struct CampaignAggregates {
  core::PolicyKind baseline;
  std::vector<PointComparison> comparisons;
  std::vector<PolicySummary> by_policy;      // spec policy order, no baseline
  std::vector<WorkloadSummary> by_workload;  // workload-major, policy-minor

  // ASCII report (TextTable-based) of both summaries.
  std::string render() const;
};

// Shared summarization: builds by_policy / by_workload from comparisons in
// their given order (must be grid-index order for determinism).
// `policy_order` lists the non-baseline policies, `workload_order` the
// workloads, in the order summaries should appear. Used by aggregate()
// and by the offline row-based aggregation in report.hpp.
CampaignAggregates summarize_comparisons(
    core::PolicyKind baseline,
    const std::vector<AnnotatedComparison>& comparisons,
    const std::vector<core::PolicyKind>& policy_order,
    const std::vector<std::string>& workload_order);

// Computes aggregates for `spec`'s expansion `points` with `results`
// indexed by CampaignPoint::index. Returns nullopt when `baseline` is not
// one of the spec's policies (nothing to normalize against). The CLIs
// aggregate rows instead (report.hpp's aggregate_rows); this in-memory
// form remains for examples/campaign_sweep and perfbench/tool.cpp.
std::optional<CampaignAggregates> aggregate(
    const CampaignSpec& spec, const std::vector<CampaignPoint>& points,
    const std::vector<core::ExperimentResult>& results,
    core::PolicyKind baseline);

}  // namespace reap::campaign
