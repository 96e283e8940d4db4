#include "reap/campaign/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "reap/common/table.hpp"

namespace reap::campaign {

PointComparison compare_metrics(std::size_t index, std::size_t baseline_index,
                                const reliability::MttfResult& mttf,
                                double energy_j, double ipc,
                                const reliability::MttfResult& base_mttf,
                                double base_energy_j, double base_ipc) {
  PointComparison c;
  c.index = index;
  c.baseline_index = baseline_index;
  c.mttf_gain = reliability::mttf_ratio(mttf, base_mttf);
  c.energy_ratio = base_energy_j > 0.0 ? energy_j / base_energy_j : 1.0;
  c.energy_overhead_pct = (c.energy_ratio - 1.0) * 100.0;
  c.speedup = base_ipc > 0.0 ? ipc / base_ipc : 1.0;
  return c;
}

CampaignAggregates summarize_comparisons(
    core::PolicyKind baseline,
    const std::vector<AnnotatedComparison>& comparisons,
    const std::vector<core::PolicyKind>& policy_order,
    const std::vector<std::string>& workload_order) {
  CampaignAggregates agg;
  agg.baseline = baseline;
  agg.comparisons.reserve(comparisons.size());
  for (const auto& a : comparisons) agg.comparisons.push_back(a.c);

  // Per-policy summaries.
  for (const auto policy : policy_order) {
    PolicySummary s;
    s.policy = policy;
    double sum_gain = 0.0, sum_log_gain = 0.0, sum_ovh = 0.0, sum_spd = 0.0;
    bool geo_ok = true;
    for (const auto& a : comparisons) {
      if (a.policy != policy) continue;
      const auto& c = a.c;
      if (s.n == 0) {
        s.min_mttf_gain = s.max_mttf_gain = c.mttf_gain;
        s.max_energy_overhead_pct = c.energy_overhead_pct;
      }
      ++s.n;
      sum_gain += c.mttf_gain;
      if (c.mttf_gain > 0.0 && std::isfinite(c.mttf_gain))
        sum_log_gain += std::log(c.mttf_gain);
      else
        geo_ok = false;
      sum_ovh += c.energy_overhead_pct;
      sum_spd += c.speedup;
      s.min_mttf_gain = std::min(s.min_mttf_gain, c.mttf_gain);
      s.max_mttf_gain = std::max(s.max_mttf_gain, c.mttf_gain);
      s.max_energy_overhead_pct =
          std::max(s.max_energy_overhead_pct, c.energy_overhead_pct);
    }
    if (s.n > 0) {
      const double n = static_cast<double>(s.n);
      s.mean_mttf_gain = sum_gain / n;
      s.geomean_mttf_gain = geo_ok ? std::exp(sum_log_gain / n) : 0.0;
      s.mean_energy_overhead_pct = sum_ovh / n;
      s.mean_speedup = sum_spd / n;
    }
    agg.by_policy.push_back(s);
  }

  // Per-workload x policy summaries (the Fig. 5 / Fig. 6 bars): one pass
  // sums each cell's comparisons in their given order. A name listed twice
  // names its first cell.
  const auto policy_at = [&policy_order](core::PolicyKind policy) {
    return static_cast<std::size_t>(
        std::find(policy_order.begin(), policy_order.end(), policy) -
        policy_order.begin());
  };
  std::unordered_map<std::string_view, std::size_t> workload_at;
  for (std::size_t w = 0; w < workload_order.size(); ++w)
    workload_at.emplace(workload_order[w], w);
  struct Cell {
    double sum_gain = 0.0, sum_ovh = 0.0;
    std::size_t n = 0;
  };
  std::vector<Cell> cells(workload_order.size() * policy_order.size());
  for (const auto& a : comparisons) {
    const auto w = workload_at.find(a.workload);
    const std::size_t p = policy_at(a.policy);
    if (w == workload_at.end() || p == policy_order.size()) continue;
    Cell& cell = cells[w->second * policy_order.size() + p];
    ++cell.n;
    cell.sum_gain += a.c.mttf_gain;
    cell.sum_ovh += a.c.energy_overhead_pct;
  }
  for (const auto& workload : workload_order) {
    for (const auto policy : policy_order) {
      const Cell& cell = cells[workload_at.at(workload) * policy_order.size() +
                               policy_at(policy)];
      if (cell.n == 0) continue;
      WorkloadSummary ws;
      ws.workload = workload;
      ws.policy = policy;
      ws.mean_mttf_gain = cell.sum_gain / static_cast<double>(cell.n);
      ws.mean_energy_overhead_pct =
          cell.sum_ovh / static_cast<double>(cell.n);
      agg.by_workload.push_back(ws);
    }
  }
  return agg;
}

std::optional<CampaignAggregates> aggregate(
    const CampaignSpec& spec, const std::vector<CampaignPoint>& points,
    const std::vector<core::ExperimentResult>& results,
    core::PolicyKind baseline) {
  std::size_t baseline_pi = spec.policies.size();
  for (std::size_t i = 0; i < spec.policies.size(); ++i)
    if (spec.policies[i] == baseline) baseline_pi = i;
  if (baseline_pi == spec.policies.size()) return std::nullopt;

  // The expansion is row-major (workload, policy, ecc, scrub, ratio,
  // seed), so the baseline partner of a point differs only in the policy
  // digit.
  const std::size_t n_ratios =
      spec.read_ratios.empty() ? 1 : spec.read_ratios.size();
  const std::size_t n_scrubs =
      spec.scrub_everys.empty() ? 1 : spec.scrub_everys.size();
  const auto index_of = [&](const CampaignPoint& pt, std::size_t policy_i) {
    return ((((pt.workload_i * spec.policies.size() + policy_i) *
                  spec.ecc_ts.size() +
              pt.ecc_i) *
                 n_scrubs +
             pt.scrub_i) *
                n_ratios +
            pt.ratio_i) *
               spec.seeds.size() +
           pt.seed_i;
  };

  std::vector<AnnotatedComparison> comparisons;
  for (const auto& pt : points) {
    if (pt.policy_i == baseline_pi) continue;
    const std::size_t bi = index_of(pt, baseline_pi);
    const auto& r = results[pt.index];
    const auto& base = results[bi];
    AnnotatedComparison a;
    a.c = compare_metrics(pt.index, bi, r.mttf, r.energy.dynamic_total_j(),
                          r.ipc, base.mttf, base.energy.dynamic_total_j(),
                          base.ipc);
    a.policy = spec.policies[pt.policy_i];
    a.workload = spec.workloads[pt.workload_i];
    comparisons.push_back(std::move(a));
  }

  std::vector<core::PolicyKind> policy_order;
  for (std::size_t pi = 0; pi < spec.policies.size(); ++pi)
    if (pi != baseline_pi) policy_order.push_back(spec.policies[pi]);

  return summarize_comparisons(baseline, comparisons, policy_order,
                               spec.workloads);
}

std::string CampaignAggregates::render() const {
  using common::TextTable;
  std::ostringstream out;

  out << "per-policy summary (vs " << core::to_string(baseline) << "):\n";
  TextTable pol({"policy", "n", "MTTF gain (mean)", "MTTF gain (geo)",
                 "MTTF gain [min,max]", "energy ovh % (mean)",
                 "energy ovh % (max)", "speedup (mean)"});
  for (const auto& s : by_policy) {
    pol.add_row({core::to_string(s.policy), std::to_string(s.n),
                 TextTable::fixed(s.mean_mttf_gain, 2),
                 TextTable::fixed(s.geomean_mttf_gain, 2),
                 "[" + TextTable::fixed(s.min_mttf_gain, 2) + ", " +
                     TextTable::fixed(s.max_mttf_gain, 2) + "]",
                 TextTable::fixed(s.mean_energy_overhead_pct, 2),
                 TextTable::fixed(s.max_energy_overhead_pct, 2),
                 TextTable::fixed(s.mean_speedup, 3)});
  }
  out << pol.render();

  out << "\nper-workload summary:\n";
  TextTable wl({"workload", "policy", "MTTF gain", "energy ovh %"});
  for (const auto& w : by_workload) {
    wl.add_row({w.workload, core::to_string(w.policy),
                TextTable::fixed(w.mean_mttf_gain, 2),
                TextTable::fixed(w.mean_energy_overhead_pct, 2)});
  }
  out << wl.render();
  return out.str();
}

}  // namespace reap::campaign
