// reap_report: offline campaign post-processing. Reads rows written by
// reap_campaign (CSV, JSONL, or execution journals), merges shard outputs,
// recomputes the cross-experiment aggregates, and emits figure data --
// all without re-running a single experiment. See docs/campaign.md.
//
// Usage:
//   reap_report rows.csv                      # print aggregate tables
//   reap_report shard0.csv shard1.csv --merged-csv=all.csv
//   reap_report all.csv --figures=figdata/    # fig5/fig6 CSV + gnuplot
#include <cstdio>
#include <string>
#include <vector>

#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/fault.hpp"

using namespace reap;

namespace {

int usage(const char* argv0) {
  std::printf(campaign::kReportUsage, argv0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_report").c_str());
    return 0;
  }
  if (args.has("help") || args.positional().empty()) return usage(argv[0]);

  // Fault injection (chaos testing): the sink sites, armed from REAP_FAULT.
  std::string error;
  if (!common::fault::arm_from_env(&error)) {
    std::fprintf(stderr, "bad %s: %s\n", common::fault::kEnvVar,
                 error.c_str());
    return 1;
  }

  // The output flags are checked before any input is read, so a refused
  // invocation writes nothing.
  campaign::OutputRequest request;
  if (args.has("merged-csv"))
    request.csv = args.get_string("merged-csv", "");
  if (args.has("merged-jsonl"))
    request.jsonl = args.get_string("merged-jsonl", "");
  if (args.has("figures")) request.figures = args.get_string("figures", "");
  request.baseline_name = args.get_string("baseline", "conventional");
  if (!campaign::check_output_request(request, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  std::vector<campaign::RowTable> tables;
  for (const auto& path : args.positional()) {
    auto table = campaign::load_rows(path, &error);
    if (!table) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu rows from %s\n", table->rows.size(),
                 path.c_str());
    tables.push_back(std::move(*table));
  }

  auto merged = campaign::merge_tables(std::move(tables), &error);
  if (!merged) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (merged->truncated_tail)
    std::fprintf(stderr,
                 "warning: an input ended in a torn line (killed run?); "
                 "one row was dropped\n");
  if (!campaign::covers_all_indices(*merged)) {
    if (merged->expected_points)
      std::fprintf(stderr,
                   "warning: rows cover %zu of %llu grid points; "
                   "aggregates use the pairs that are present\n",
                   merged->rows.size(),
                   static_cast<unsigned long long>(*merged->expected_points));
    else
      std::fprintf(stderr,
                   "warning: merged rows do not cover a dense 0..n-1 index "
                   "range (missing shard or partial run?); aggregates use "
                   "the pairs that are present\n");
  }

  // Merged row re-emission: cells pass through the ordinary sinks, so the
  // output is byte-identical to what one un-sharded run would have
  // written. The sinks emit this binary's schema, so rows from a binary
  // with a different column set cannot be re-emitted (aggregation still
  // works -- it looks columns up by name).
  auto sinks = campaign::open_sinks(request, merged->header, &error);
  const auto out =
      sinks ? campaign::write_outputs(*merged, request, std::move(*sinks),
                                      /*aggregate=*/true, &error)
            : std::nullopt;
  if (!out) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (request.baseline) {
    if (!out->agg) {
      std::fprintf(stderr, "%s\n", out->agg_error.c_str());
      return 1;
    }
    std::printf("%zu rows, %zu matched comparisons\n\n",
                merged->rows.size(), out->agg->comparisons.size());
    std::printf("%s", out->tables.c_str());
  }
  for (const auto& path : out->figure_files)
    std::fprintf(stderr, "wrote %s\n", path.c_str());

  common::warn_unused(args);
  return 0;
}
