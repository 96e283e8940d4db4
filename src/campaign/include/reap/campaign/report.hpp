// Offline result post-processing: everything reap_report does.
//
// Campaign rows written by the CSV/JSONL sinks (or the execution journal)
// are loaded back as raw cell tables, merged across shard outputs, and
// re-aggregated without re-running a single experiment. Because numeric
// cells use shortest-round-trip formatting, parsing them back yields the
// exact doubles the runner produced, and because both aggregation paths
// share compare_metrics/summarize_comparisons, the offline report is
// byte-identical to the one an in-process run prints.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "reap/campaign/aggregate.hpp"

namespace reap::campaign {

// A loaded row file: raw cells, one vector per row, aligned with `header`.
struct RowTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  // Full-grid point count, when the source recorded it (an execution
  // journal's header does; plain CSV/JSONL sink output cannot). Lets the
  // completeness check catch a dense *prefix* -- a killed index-ordered
  // run -- that covers_all_indices alone would call complete.
  std::optional<std::uint64_t> expected_points;

  // A torn final line was dropped (source written by a killed run).
  bool truncated_tail = false;

  // Column index by name; nullopt when absent.
  std::optional<std::size_t> col(const std::string& name) const;
};

// Loads a row file, sniffing the format: a '{' first byte means JSONL,
// anything else CSV. JSONL is sink output or an execution journal; a
// journal's lines go through JournalRowParser, so its rows load exactly
// as read_journal reads them (the header names the columns, a row's key
// is dropped), except that a damaged row is an error here rather than a
// row to re-run. Rows must be rectangular; returns nullopt with a
// description on malformed input. One torn final line is tolerated and
// flagged in truncated_tail.
std::optional<RowTable> load_rows(const std::string& path,
                                  std::string* error = nullptr);

// Merges shard outputs: headers must match, rows are concatenated,
// deduplicated by index (byte-identical duplicates collapse, conflicting
// ones are an error) and sorted by the numeric `index` column.
// expected_points/truncated_tail propagate (inputs that state different
// expected counts are an error). The merge of all shards of a campaign is
// byte-identical, cell for cell, to the table a single-process run writes.
std::optional<RowTable> merge_tables(std::vector<RowTable> tables,
                                     std::string* error = nullptr);

// True when the table covers a dense index range 0..n-1 and, when the
// source recorded a grid size (expected_points), n matches it. Without a
// recorded grid size a dense prefix of a bigger campaign is
// indistinguishable from a complete smaller one -- journals close that
// hole, plain CSV cannot.
bool covers_all_indices(const RowTable& table);

// A row's config column minus its policy key, in a canonical form: rows
// that agree on it are the same experiment under different policies --
// the pairing the paper's normalized figures need. Equal to joining
// core::kv_parse(config) without "policy" as sorted `k=v` tokens, at a
// fraction of the cost (no map, no stream).
std::string partner_key(std::string_view config);

// Recomputes the cross-experiment aggregates from rows alone. Baseline
// partners are matched by their config column stripped of the policy key
// (exactly "same coordinates, different policy"). Rows must be in index
// order (merge_tables guarantees it). Returns nullopt when the baseline
// policy has no rows or a needed column is missing.
std::optional<CampaignAggregates> aggregate_rows(
    const RowTable& table, core::PolicyKind baseline,
    std::string* error = nullptr);

// Writes the figure data the paper's evaluation plots, derived offline
// from the aggregates: fig5_mttf.csv / fig6_energy.csv (per-workload
// bars), policy_summary.csv (the ablation table), and gnuplot scripts
// fig5.gp / fig6.gp that render them. Creates `dir` if needed; returns
// the paths written, or nullopt on I/O failure.
std::optional<std::vector<std::string>> write_figure_data(
    const CampaignAggregates& agg, const std::string& dir,
    std::string* error = nullptr);

}  // namespace reap::campaign
