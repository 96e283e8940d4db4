// reap_dispatch: one-command distributed campaign. Splits a spec's grid
// into shards, keeps a pool of reap_campaign worker processes busy
// (restarting crashed workers from their journals, reassigning shards
// whose workers keep dying), live-tails the shard journals into one
// progress line, and merges the journals into CSV/JSONL/figures
// byte-identical to a single-process run. See docs/campaign.md.
//
// Usage:
//   reap_dispatch --spec=specs/fig5.spec --workers=8 --csv=fig5.csv
//   reap_dispatch --spec=grid.spec --workers=4 --jobs=16 --figures=figdata/
//   reap_dispatch --spec=grid.spec --workers=2 --work-dir=run1   # re-run to resume
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_set>

#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/exit_codes.hpp"
#include "reap/campaign/progress.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/transport.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/strings.hpp"

using namespace reap;

namespace {

// The merged rows once the outputs are written (see main).
campaign::RowTable* g_rows_released_at_exit = nullptr;

int usage(const char* argv0) {
  std::printf(campaign::kDispatchUsage, argv0);
  return 0;
}

// reap_campaign normally sits next to reap_dispatch; a bare name (PATH
// lookup) is the fallback when argv[0] carries no directory.
std::string default_campaign_binary(const char* argv0) {
  const auto dir = std::filesystem::path(argv0).parent_path();
  if (dir.empty()) return "reap_campaign";
  return (dir / "reap_campaign").string();
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("help")) return usage(argv[0]);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_dispatch").c_str());
    return 0;
  }

  // Fault injection (chaos testing). --inject-fault arms sites in *this*
  // process (worker.spawn, tailer.read); REAP_FAULT is inherited by the
  // spawned workers too, so worker-side sites (runner.point,
  // journal.write, ...) are armed through the environment.
  std::string error;
  if (!common::arm_faults(args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const auto cli_spec = campaign::spec_from_cli(args, &error);
  if (!cli_spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (cli_spec->kv.empty()) return usage(argv[0]);
  const auto& spec = cli_spec->spec;

  campaign::DispatchOptions opts;
  opts.campaign_binary =
      args.get_string("campaign-bin", default_campaign_binary(argv[0]));
  opts.work_dir = args.get_string("work-dir", spec.name + ".dispatch");
  opts.workers = std::size_t(args.get_u64("workers", 0));
  opts.jobs = std::size_t(args.get_u64("jobs", 0));
  opts.worker_threads = std::size_t(args.get_u64("worker-threads", 1));
  opts.max_attempts = std::size_t(args.get_u64("max-attempts", 3));
  opts.trace_cache_mb = std::size_t(args.get_u64("trace-cache-mb", 0));
  opts.trace_dir = args.get_string("trace-dir", "");
  opts.stall_timeout =
      std::chrono::milliseconds(args.get_u64("stall-timeout", 0) * 1000);
  opts.backoff_base =
      std::chrono::milliseconds(args.get_u64("backoff-ms", 100));
  opts.max_quarantine = std::size_t(args.get_u64("max-quarantine", 4));

  // --hosts: multi-host dispatch. The file's transports replace the
  // default local pool; the ssh handshake refuses hosts whose
  // reap_campaign answers --version with a different build line (fleet
  // skew).
  if (args.has("hosts")) {
    const auto hosts_path = args.get_string("hosts", "");
    const auto hosts = campaign::parse_hosts_file(hosts_path, &error);
    if (!hosts) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (auto h : *hosts) {
      if (h.name == "local") {
        opts.transports.push_back(std::make_shared<campaign::LocalTransport>(
            h.remote_binary.empty() ? opts.campaign_binary : h.remote_binary,
            h.slots));
        continue;
      }
      if (h.remote_binary.empty()) h.remote_binary = opts.campaign_binary;
      if (h.remote_dir.empty())
        h.remote_dir = opts.work_dir + "/remote-" + h.name;
      opts.transports.push_back(
          std::make_shared<campaign::SshTransport>(std::move(h)));
    }
  }

  // Consume every real flag before --dry-run can exit, so the unused-flag
  // typo warning never fires on flags the full run would honor, and check
  // the output flags before any work: a bad baseline name must not
  // surface only after hours of simulation.
  const bool quiet = args.has("quiet");
  campaign::OutputRequest request;
  if (args.has("csv")) request.csv = args.get_string("csv", "");
  if (args.has("jsonl")) request.jsonl = args.get_string("jsonl", "");
  if (args.has("figures")) request.figures = args.get_string("figures", "");
  request.baseline_name = args.get_string("baseline", "conventional");
  if (!campaign::check_output_request(request, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  if (args.has("dry-run")) {
    // The trace-group plan in closed form: the dry run, like the real one,
    // never expands the grid.
    campaign::TracePlan tplan;
    try {
      tplan = campaign::trace_plan(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    const std::size_t n_points = spec.size();
    // The exact plan Dispatcher::run would execute, including a shard
    // split adopted from existing work-dir journals.
    const auto plan = campaign::plan_dispatch(spec, n_points, opts, &error);
    if (!plan) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf(
        "campaign '%s': %zu points, %zu shards%s, %zu worker slots "
        "(<= %zu concurrent)\n",
        spec.name.c_str(), n_points, plan->n_shards,
        plan->adopted_split ? " (split adopted from work-dir journals)" : "",
        plan->workers, std::min(plan->workers, plan->n_shards));
    std::printf("work dir: %s\n", opts.work_dir.c_str());
    // Trace-group plan next to the shard plan. Index striping scatters a
    // trace group's points across every shard, so each worker generates
    // its shard's groups independently.
    std::printf("trace groups: %zu (largest ~%.1f MB)\n", tplan.groups,
                static_cast<double>(tplan.largest_bytes) / (1024.0 * 1024.0));
    for (std::size_t i = 0; i < plan->n_shards; ++i)
      std::printf("  shard %zu/%zu: %zu points  (%s --shard=%zu/%zu ...)\n",
                  i, plan->n_shards,
                  campaign::shard_size(n_points, i, plan->n_shards),
                  opts.campaign_binary.c_str(), i, plan->n_shards);
    common::warn_unused(args);
    return 0;
  }

  // Host incidents always reach stderr; progress and worker deaths only
  // without --quiet.
  campaign::ProgressReporter progress;
  opts.on_event = [&progress, quiet](const campaign::DispatchEvent& e) {
    using Kind = campaign::DispatchEvent::Kind;
    switch (e.kind) {
      case Kind::host_lost:
        std::fprintf(stderr,
                     "\nlost host: %s (%s); redistributing its shards\n",
                     e.host.c_str(), e.text.c_str());
        break;
      case Kind::host_note:
        std::fprintf(stderr, "note: %s\n", e.text.c_str());
        break;
      case Kind::rows:
        if (!quiet) progress(e.done, e.total);
        break;
      case Kind::worker_exit:
        if (!quiet && !e.ok)
          std::fprintf(stderr,
                       "\nworker for shard %zu died (attempt %zu); %s\n",
                       e.shard, e.attempt + 1,
                       e.will_retry ? "restarting with --resume"
                                    : "giving up on this shard");
        break;
      case Kind::spawn:
      case Kind::stall:
      case Kind::quarantine:
        break;
    }
  };
  common::warn_unused(args);

  campaign::Dispatcher dispatcher(cli_spec->kv, opts);
  std::printf("dispatching campaign '%s' from %s\n", spec.name.c_str(),
              opts.work_dir.c_str());
  auto run = dispatcher.run();
  if (!run.ok) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
    switch (run.status) {
      case campaign::DispatchStatus::spec_mismatch:
        return campaign::kDispatchSpecMismatch;
      case campaign::DispatchStatus::abandoned:
        return campaign::kDispatchAbandoned;
      default:
        return campaign::kDispatchError;
    }
  }
  std::printf("%zu points across %zu shards complete", run.points,
              run.shards.size());
  if (run.restarts > 0)
    std::printf(" (%zu worker restart%s)", run.restarts,
                run.restarts == 1 ? "" : "s");
  if (run.stalls > 0)
    std::printf(" (%zu stalled worker%s killed)", run.stalls,
                run.stalls == 1 ? "" : "s");
  if (!run.quarantined.empty())
    std::printf(" (%zu point%s quarantined)", run.quarantined.size(),
                run.quarantined.size() == 1 ? "" : "s");
  if (!run.lost_hosts.empty())
    std::printf(" (%zu host%s lost)", run.lost_hosts.size(),
                run.lost_hosts.size() == 1 ? "" : "s");
  std::printf("\n");
  for (const auto& q : run.quarantined)
    std::fprintf(stderr, "quarantined: %s (index %llu, shard %zu): %s\n",
                 q.key.c_str(), static_cast<unsigned long long>(q.index),
                 q.shard, q.reason.c_str());

  // Merge step: shard journals (or the rows their tailers kept) -> one
  // index-ordered table, re-emitted through the ordinary sinks --
  // byte-identical to an un-sharded run, minus exactly the quarantined
  // rows (whose indices must account for every hole; any other hole is a
  // merge failure).
  auto merged = campaign::merge_dispatch(std::move(run.shards), &error);
  if (!merged) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return campaign::kDispatchError;
  }
  if (run.quarantined.empty()) {
    if (!campaign::covers_all_indices(*merged)) {
      std::fprintf(stderr, "merge failed: journals do not cover the grid\n");
      return campaign::kDispatchError;
    }
  } else {
    const auto index_col = merged->col("index");
    if (!index_col) {
      std::fprintf(stderr, "merge failed: no `index` column\n");
      return campaign::kDispatchError;
    }
    std::unordered_set<std::uint64_t> present;
    for (const auto& row : merged->rows) {
      std::uint64_t idx = 0;
      if (common::parse_u64(row[*index_col], idx)) present.insert(idx);
    }
    std::unordered_set<std::uint64_t> poisoned;
    for (const auto& q : run.quarantined) poisoned.insert(q.index);
    for (std::uint64_t i = 0; i < run.points; ++i) {
      if (!present.count(i) && !poisoned.count(i)) {
        std::fprintf(stderr,
                     "merge failed: row %llu is missing but not "
                     "quarantined\n",
                     static_cast<unsigned long long>(i));
        return campaign::kDispatchError;
      }
      if (present.count(i) && poisoned.count(i)) {
        std::fprintf(stderr,
                     "merge failed: row %llu is quarantined yet present in "
                     "the journals\n",
                     static_cast<unsigned long long>(i));
        return campaign::kDispatchError;
      }
    }
  }
  // Output step. Aggregates (and figures) need the full grid; a
  // quarantined run is complete-minus-named-rows by construction, so it
  // writes the rows, says so, and exits with the distinct code instead of
  // failing.
  auto sinks = campaign::open_sinks(request, merged->header, &error);
  const auto out =
      sinks ? campaign::write_outputs(*merged, request, std::move(*sinks),
                                      run.quarantined.empty(), &error)
            : std::nullopt;
  if (!out) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return campaign::kDispatchError;
  }
  // The rows are written; the process's exit releases them at once, where
  // freeing them cell by cell (over 10^5 strings in a 5,600-row grid) took
  // about 4 ms.
  g_rows_released_at_exit = new campaign::RowTable(std::move(*merged));
  if (!run.quarantined.empty()) {
    if (request.baseline)
      std::printf(
          "(skipping aggregates: %zu quarantined row%s leave the grid "
          "partial; see %s/quarantine.jsonl)\n",
          run.quarantined.size(), run.quarantined.size() == 1 ? "" : "s",
          opts.work_dir.c_str());
    return campaign::kDispatchQuarantined;
  }
  if (request.baseline) {
    if (!out->agg) {
      std::fprintf(stderr, "no aggregates: %s\n", out->agg_error.c_str());
      return campaign::kDispatchError;
    }
    std::printf("\n%s", out->tables.c_str());
  }
  for (const auto& path : out->figure_files)
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  // Every row ran and merged, but the fleet shrank along the way: the
  // outputs above are complete, and the exit code says hosts were lost.
  if (run.status == campaign::DispatchStatus::host_lost)
    return campaign::kDispatchHostLost;
  return campaign::kDispatchOk;
}
