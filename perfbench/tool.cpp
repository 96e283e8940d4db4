// perfbench_tool: the campaign benchmark's in-process helper.
//
//   perfbench_tool fingerprint
//       Compile-time facts of this binary (optimization, sanitizers, SIMD
//       flavor), as one JSON line.
//
//   perfbench_tool check --spec=FILE (--csv=FILE | --journals=F1,F2,...)
//                        --sample=K --sample-seed=S [--paired]
//       Output checks of one campaign run. Every grid point of the spec
//       must own exactly one well-formed row (CSV), or -- for a run that
//       exited non-zero -- one journaled row. K seed-chosen points are
//       re-run through core::run_experiment on this thread and must match
//       their row cell for cell. With --paired, REAP's MTTF must be at
//       least conventional's on every paired trace. Prints one JSON line.
//
//   perfbench_tool layers --spec=FILE --work-dir=DIR --campaign-bin=PATH
//                         --label=NAME [--trace-cache-mb=N]
//       The traced per-layer run: drives the spec's grid in-process through
//       the public API of each src/ module, untraced and traced, then
//       through campaign::Dispatcher (2 workers x 2 threads, as the
//       benchmark's reap_dispatch runs it), and times each layer around its
//       public call. Spans are kept in memory and written to
//       DIR/spans.jsonl at the end. Prints one JSON line of metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "reap/campaign/campaign.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/crc32c.hpp"
#include "reap/common/csv.hpp"
#include "reap/common/subprocess.hpp"
#include "reap/core/config_kv.hpp"
#include "reap/core/experiment.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/nvsim/cache_model.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/trace_store.hpp"
#include "reap/trace/workload.hpp"

namespace fs = std::filesystem;
using namespace reap;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Median seconds per call of `fn`: calls are batched so one sample takes
// at least ~2 ms, and seven samples are taken.
double per_call_s(const std::function<void()>& fn) {
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (seconds_since(t0) >= 2e-3 || batch >= (1u << 20)) break;
    batch *= 4;
  }
  std::vector<double> samples;
  for (int s = 0; s < 7; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(seconds_since(t0) / static_cast<double>(batch));
  }
  return median(samples);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::optional<campaign::CampaignSpec> load_spec(const std::string& path,
                                                std::string* error) {
  const auto kv = campaign::parse_spec_file(path, error);
  if (!kv) return std::nullopt;
  return campaign::CampaignSpec::from_kv(*kv, error);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

// ---------------------------------------------------------------------------
// fingerprint

std::string simd_flavor() {
#if defined(REAP_SIMD) && defined(__AVX2__)
  return "vector+avx2";
#elif defined(REAP_SIMD)
  return "vector";
#else
  return "scalar";
#endif
}

int cmd_fingerprint() {
  bool optimized = false, sanitized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  std::printf(
      "{\"optimized\": %s, \"sanitized\": %s, \"simd\": \"%s\", "
      "\"compiler_version\": \"%s\", \"hardware_threads\": %u}\n",
      optimized ? "true" : "false", sanitized ? "true" : "false",
      simd_flavor().c_str(), json_escape(__VERSION__).c_str(),
      std::thread::hardware_concurrency());
  return 0;
}

// ---------------------------------------------------------------------------
// check

struct PointState {
  std::size_t rows = 0;     // well-formed rows claiming this point
  bool malformed = false;   // a row claimed it but failed validation
  std::vector<std::string> cells;
};

int cmd_check(const common::CliArgs& args) {
  std::string error;
  const auto spec = load_spec(args.get_string("spec", ""), &error);
  if (!spec) {
    std::fprintf(stderr, "check: %s\n", error.c_str());
    return 1;
  }
  const auto points = campaign::expand(*spec);
  const auto header = campaign::result_header();
  auto col = [&header](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  const std::size_t n = points.size();
  std::vector<PointState> state(n);
  std::map<std::string, std::size_t> reasons;
  std::size_t stray_rows = 0;

  const std::string csv_path = args.get_string("csv", "");
  std::string crc = "none";
  if (!csv_path.empty()) {
    std::ifstream in(csv_path);
    std::string line;
    const bool header_ok = in && std::getline(in, line) &&
                           common::parse_csv_line(line) == header;
    if (header_ok) {
      while (std::getline(in, line)) {
        const auto cells = common::parse_csv_line(line);
        char* end = nullptr;
        const std::string idx_text =
            cells && !cells->empty() ? (*cells)[0] : std::string();
        const unsigned long long idx = std::strtoull(idx_text.c_str(), &end, 10);
        if (idx_text.empty() || *end != '\0' || idx >= n) {
          ++stray_rows;
          continue;
        }
        auto& st = state[idx];
        const auto& pt = points[idx];
        const bool ok =
            cells->size() == header.size() &&
            (*cells)[col("workload")] == pt.config.workload.name &&
            (*cells)[col("policy")] == core::to_string(pt.config.policy) &&
            (*cells)[col("config")] == core::to_kv_string(pt.config);
        if (!ok) {
          st.malformed = true;
          continue;
        }
        if (++st.rows == 1) st.cells = *cells;
      }
      crc = common::fmt_hex32(common::crc32c(file_bytes(csv_path)));
    }
  } else {
    // The run exited non-zero: every journaled point completed, the rest
    // are lost.
    for (const auto& path : split_list(args.get_string("journals", ""))) {
      const auto j = campaign::read_journal(path);
      if (!j) continue;
      for (const auto& row : j->rows)
        if (row.index < n && row.key == points[row.index].key) {
          auto& st = state[row.index];
          if (++st.rows == 1) st.cells = row.cells;
        }
    }
  }

  std::vector<bool> failed(n, false);
  auto fail = [&](std::size_t i, const char* why) {
    if (!failed[i]) ++reasons[why];
    failed[i] = true;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i].malformed) fail(i, "malformed");
    else if (state[i].rows == 0) fail(i, "missing");
    else if (state[i].rows > 1) fail(i, "duplicated");
  }

  // Seed-chosen sample, re-run on this thread.
  const std::size_t want = args.get_u64("sample", 0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(args.get_u64("sample-seed", 0));
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t sampled = 0;
  for (const std::size_t i : order) {
    if (sampled >= want) break;
    if (failed[i]) continue;
    ++sampled;
    const auto r = core::run_experiment(points[i].config);
    if (campaign::result_cells(points[i], r) != state[i].cells)
      fail(i, "rerun_mismatch");
  }

  // REAP MTTF >= conventional on every paired trace.
  std::size_t pairs = 0, finite_gains = 0;
  double gain_sum = 0.0;
  const std::size_t mttf_col = col("mttf_seconds");
  if (args.has("paired")) {
    std::map<std::string, std::size_t> conventional;
    auto pair_key = [](const campaign::CampaignPoint& p) {
      return p.trace_key + "/" + std::to_string(p.ecc_i) + "/" +
             std::to_string(p.scrub_i);
    };
    for (const auto& p : points)
      if (p.config.policy == core::PolicyKind::conventional_parallel)
        conventional[pair_key(p)] = p.index;
    for (const auto& p : points) {
      if (p.config.policy != core::PolicyKind::reap) continue;
      const auto it = conventional.find(pair_key(p));
      if (it == conventional.end() || failed[p.index] || failed[it->second])
        continue;
      const double reap_mttf =
          std::strtod(state[p.index].cells[mttf_col].c_str(), nullptr);
      const double conv_mttf =
          std::strtod(state[it->second].cells[mttf_col].c_str(), nullptr);
      ++pairs;
      if (!(reap_mttf >= conv_mttf)) {
        fail(p.index, "reap_below_conventional");
      } else if (std::isfinite(reap_mttf / conv_mttf)) {
        gain_sum += reap_mttf / conv_mttf;
        ++finite_gains;
      }
    }
  }

  double sim_instructions = 0.0;
  std::size_t n_failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (failed[i]) {
      ++n_failed;
      continue;
    }
    sim_instructions +=
        std::strtod(state[i].cells[col("instructions")].c_str(), nullptr) +
        static_cast<double>(points[i].config.warmup_instructions);
  }

  std::printf("{\"points\": %zu, \"failed\": %zu, \"stray_rows\": %zu, "
              "\"crc32c\": \"%s\", \"sampled\": %zu, \"pairs\": %zu, "
              "\"mean_reap_gain\": %s, \"sim_instructions\": %s, "
              "\"reasons\": {",
              n, n_failed, stray_rows, crc.c_str(), sampled, pairs,
              num(finite_gains ? gain_sum / static_cast<double>(finite_gains) : 0.0)
                  .c_str(),
              num(sim_instructions).c_str());
  bool first = true;
  for (const auto& [why, count] : reasons) {
    std::printf("%s\"%s\": %zu", first ? "" : ", ", why.c_str(), count);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded only in this file, around calls into each layer.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string key;  // grid point key, when the span belongs to one
};

class Tracer {
 public:
  std::uint64_t next_id() { return ++ids_; }
  void record(SpanRecord r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
  }
  std::vector<SpanRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
  }

 private:
  std::atomic<std::uint64_t> ids_{0};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

thread_local std::uint64_t tl_current_span = 0;

// RAII span; a no-op when `tracer` is null (the untraced pass). The parent
// defaults to the innermost open span on this thread.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::string_view key = {},
       std::optional<std::uint64_t> parent = std::nullopt)
      : tracer_(tracer) {
    if (!tracer_) return;
    rec_.id = tracer_->next_id();
    rec_.parent = parent.value_or(tl_current_span);
    rec_.name = name;
    rec_.key = key;
    saved_ = tl_current_span;
    tl_current_span = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (!tracer_) return;
    rec_.end_ns = now_ns();
    tl_current_span = saved_;
    tracer_->record(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  std::uint64_t saved_ = 0;
};

// Length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// The span names of a grid pass, in pipeline order.
const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "campaign.expand",      "campaign.runner", "campaign.point",
      "trace.acquire",        "core.experiment", "campaign.journal_row",
      "campaign.merge",       "campaign.aggregate"};
  return names;
}

// ---------------------------------------------------------------------------
// One pass over the grid, mirroring reap_campaign's pipeline: expand, run
// with journal, merge into CSV, aggregate.

struct GridOptions {
  unsigned threads = 4;
  std::size_t trace_cache_mb = 0;
};

struct GridPass {
  double wall_s = 0.0;
  std::vector<campaign::CampaignPoint> points;
  std::vector<core::ExperimentResult> results;
  std::vector<campaign::JournalRow> rows;  // index-ordered
  unsigned threads = 1;
};

std::optional<GridPass> run_grid(const campaign::CampaignSpec& spec,
                                 const GridOptions& go, const fs::path& dir,
                                 Tracer* tracer, std::string* error) {
  GridPass pass;
  const auto t0 = Clock::now();
  {
    Span s(tracer, "campaign.expand");
    pass.points = campaign::expand(spec);
  }
  const auto& points = pass.points;

  campaign::JournalWriter journal(
      (dir / "inproc.journal").string(),
      campaign::JournalHeader::for_run(spec, points.size(), 0, 1));
  campaign::CsvResultSink csv((dir / "inproc.csv").string());
  if (!journal.ok() || !csv.ok()) {
    *error = "cannot write in-process outputs under " + dir.string();
    return std::nullopt;
  }

  std::vector<campaign::JournalRow> fresh;
  fresh.reserve(points.size());
  std::optional<campaign::TraceCache> cache;
  std::uint64_t runner_span = 0;
  campaign::RunnerOptions opts;
  opts.threads = go.threads;
  opts.on_result = [&](const campaign::CampaignPoint& pt,
                       const core::ExperimentResult& r) {
    Span s(tracer, "campaign.journal_row", pt.key, runner_span);
    auto cells = campaign::result_cells(pt, r);
    journal.add(pt.key, cells);
    fresh.push_back({pt.key, pt.index, std::move(cells)});
  };
  if (go.trace_cache_mb > 0) {
    cache.emplace(go.trace_cache_mb << 20);
    opts.group_key = [](const campaign::CampaignPoint& pt) {
      return pt.trace_key;
    };
  }
  opts.run_point_fn = [&](const campaign::CampaignPoint& pt) {
    Span point(tracer, "campaign.point", pt.key, runner_span);
    if (!cache) {
      Span s(tracer, "core.experiment", pt.key);
      return core::run_experiment(pt.config);
    }
    campaign::TraceCache::TracePtr trace;
    {
      Span s(tracer, "trace.acquire", pt.key);
      trace = cache->acquire(pt.trace_key, [&] {
        trace::WorkloadTraceSource gen(pt.config.workload);
        return trace::MaterializedTrace::materialize(
            gen, pt.config.warmup_instructions + pt.config.instructions);
      });
    }
    Span s(tracer, "core.experiment", pt.key);
    trace::ReplayTraceSource source(*trace);
    return core::run_experiment_replay(pt.config, source);
  };
  campaign::CampaignRunner runner(opts);
  pass.threads = runner.effective_threads(points.size());
  {
    Span s(tracer, "campaign.runner");
    runner_span = s.id();
    pass.results = runner.run(points);
  }
  {
    Span s(tracer, "campaign.merge");
    pass.rows = campaign::merge_journal_rows(std::move(fresh), {});
    campaign::emit_rows(pass.rows, csv);
  }
  {
    Span s(tracer, "campaign.aggregate");
    campaign::aggregate(spec, points, pass.results,
                        core::PolicyKind::conventional_parallel);
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

std::string rows_crc(const std::vector<campaign::JournalRow>& rows) {
  std::string all;
  for (const auto& r : rows) {
    for (const auto& c : r.cells) all += c + ",";
    all += "\n";
  }
  return common::fmt_hex32(common::crc32c(all));
}

// ---------------------------------------------------------------------------
// layers

class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
             num(items_[i].value) + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

int cmd_layers(const common::CliArgs& args) {
  std::string error;
  const std::string spec_path = args.get_string("spec", "");
  const auto spec_kv = campaign::parse_spec_file(spec_path, &error);
  const auto spec =
      spec_kv ? campaign::CampaignSpec::from_kv(*spec_kv, &error) : std::nullopt;
  if (!spec) {
    std::fprintf(stderr, "layers: %s\n", error.c_str());
    return 1;
  }
  const fs::path dir = args.get_string("work-dir", "");
  const std::string label = args.get_string("label", "");
  const std::string campaign_bin = args.get_string("campaign-bin", "");
  fs::create_directories(dir);
  GridOptions go;
  go.threads = 4;  // the benchmark's simulation threads, as reap_campaign's
  go.trace_cache_mb = args.get_u64("trace-cache-mb", 0);
  Metrics m;

  // Untraced and traced passes, interleaved; end-to-end numbers never
  // come from here, only the tracing overhead and the spans.
  Tracer tracer;
  std::vector<double> untraced_s, traced_s;
  std::optional<GridPass> base, traced;
  std::vector<SpanRecord> spans;
  for (int round = 0; round < 2; ++round) {
    auto u = run_grid(*spec, go, dir, nullptr, &error);
    if (!u) {
      std::fprintf(stderr, "layers: %s\n", error.c_str());
      return 1;
    }
    untraced_s.push_back(u->wall_s);
    if (!base) base = std::move(u);
    auto t = run_grid(*spec, go, dir, &tracer, &error);
    if (!t) {
      std::fprintf(stderr, "layers: %s\n", error.c_str());
      return 1;
    }
    traced_s.push_back(t->wall_s);
    spans = tracer.take();
    traced = std::move(t);
  }
  const auto& points = base->points;
  const auto& results = base->results;
  const std::size_t n = points.size();
  const std::string crc = rows_crc(base->rows);
  const bool traced_identical = rows_crc(traced->rows) == crc;

  // Spans: write them out, then self time per layer and what no span
  // covers. `spans` holds the last traced pass only.
  {
    std::ofstream out(dir / "spans.jsonl");
    for (const auto& s : spans)
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"workload\": \""
          << json_escape(label) << "\", \"key\": \"" << json_escape(s.key)
          << "\"}\n";
  }
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const auto& s : spans) {
    if (s.parent == 0) roots.push_back({s.start_ns, s.end_ns});
    else children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self_ms;
  for (const auto& name : span_names()) self_ms[name] = 0.0;
  double point_busy_ns = 0.0, runner_ns = 0.0;
  std::vector<double> point_ms;
  for (const auto& s : spans) {
    auto kids = children[s.id];
    for (auto& [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b < a) b = a;
    }
    const double self = static_cast<double>(s.end_ns - s.start_ns -
                                            union_ns(std::move(kids)));
    self_ms[s.name] += self / 1e6;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (std::string(s.name) == "campaign.point") {
      point_busy_ns += dur;
      point_ms.push_back(dur / 1e6);
    } else if (std::string(s.name) == "campaign.runner") {
      runner_ns = dur;
    }
  }
  const double traced_wall = median(traced_s), untraced_wall = median(untraced_s);
  m.set("tracing.overhead_s", traced_wall - untraced_wall, "s");
  m.set("tracing.unaccounted_share",
        1.0 - static_cast<double>(union_ns(roots)) / (traced->wall_s * 1e9),
        "fraction");
  m.set("tracing.spans", static_cast<double>(spans.size()), "count");
  for (const auto& name : span_names())
    m.set("self_ms." + name, self_ms[name], "ms");

  // campaign layer.
  m.set("campaign.expand_ms",
        per_call_s([&] { campaign::expand(*spec); }) * 1e3, "ms");
  {
    campaign::RunnerOptions trivial;
    trivial.threads = go.threads;
    trivial.run_fn = [](const core::ExperimentConfig&) {
      return core::ExperimentResult();
    };
    trivial.on_result = [](const campaign::CampaignPoint&,
                           const core::ExperimentResult&) {};
    const campaign::CampaignRunner runner(trivial);
    m.set("campaign.runner_us_per_point",
          per_call_s([&] { runner.run(points); }) * 1e6 / static_cast<double>(n),
          "us");
  }
  std::size_t cursor = 0;
  m.set("campaign.result_cells_us", per_call_s([&] {
          const std::size_t i = cursor++ % n;
          campaign::result_cells(points[i], results[i]);
        }) * 1e6,
        "us");
  {
    campaign::JournalWriter w(
        (dir / "append.journal").string(),
        campaign::JournalHeader::for_run(*spec, n, 0, 1));
    cursor = 0;
    m.set("campaign.journal_append_us", per_call_s([&] {
            const auto& row = base->rows[cursor++ % n];
            w.add(row.key, row.cells);
          }) * 1e6,
          "us");
  }
  {
    const std::string merge_csv = (dir / "merge.csv").string();
    m.set("campaign.merge_ms", per_call_s([&] {
            campaign::CsvResultSink sink(merge_csv);
            campaign::emit_rows(
                campaign::merge_journal_rows(base->rows, {}), sink);
          }) * 1e3,
          "ms");
  }
  m.set("campaign.aggregate_ms", per_call_s([&] {
          campaign::aggregate(*spec, points, results,
                              core::PolicyKind::conventional_parallel);
        }) * 1e3,
        "ms");
  m.set("campaign.runner_idle_share",
        runner_ns > 0 ? 1.0 - point_busy_ns / (runner_ns * traced->threads)
                      : 0.0,
        "fraction");

  // Trace cache over the first four trace groups, in group order.
  {
    std::vector<const campaign::CampaignPoint*> group_pts;
    std::vector<std::string> groups;
    for (const auto& pt : points)
      if (std::find(groups.begin(), groups.end(), pt.trace_key) ==
              groups.end() &&
          groups.size() < 4)
        groups.push_back(pt.trace_key);
    for (const auto& g : groups)
      for (const auto& pt : points)
        if (pt.trace_key == g) group_pts.push_back(&pt);
    campaign::TraceCache cache(std::size_t{64} << 20);
    const auto t0 = Clock::now();
    for (const auto* pt : group_pts)
      cache.acquire(pt->trace_key, [&] {
        trace::WorkloadTraceSource gen(pt->config.workload);
        return trace::MaterializedTrace::materialize(
            gen, pt->config.warmup_instructions + pt->config.instructions);
      });
    const double acquires = static_cast<double>(group_pts.size());
    const auto& st = cache.stats();
    m.set("campaign.trace_cache_acquire_us", seconds_since(t0) * 1e6 / acquires,
          "us");
    m.set("campaign.trace_cache_hit_rate",
          static_cast<double>(st.hits.load()) / acquires, "fraction");
    m.set("campaign.trace_cache_peak_mb",
          static_cast<double>(st.peak_bytes.load()) / (1 << 20), "MB");
  }
  {
    const std::string tail_path = (dir / "tail.journal").string();
    campaign::JournalWriter w(tail_path,
                              campaign::JournalHeader::for_run(*spec, n, 0, 1));
    campaign::JournalTailer tailer(tail_path);
    std::vector<double> polls;
    for (std::size_t i = 0; i < n; ++i) {
      w.add(base->rows[i].key, base->rows[i].cells);
      if (i % 8 == 7 || i + 1 == n) {
        const auto t0 = Clock::now();
        tailer.poll();
        polls.push_back(seconds_since(t0));
      }
    }
    m.set("campaign.tailer_poll_us", median(polls) * 1e6, "us");
  }

  // The same grid through the dispatcher, as reap_dispatch runs it.
  bool dispatch_identical = false;
  {
    campaign::DispatchOptions d;
    d.campaign_binary = campaign_bin;
    d.work_dir = (dir / "dispatch").string();
    fs::remove_all(d.work_dir);
    d.workers = 2;
    d.worker_threads = 2;
    d.trace_cache_mb = go.trace_cache_mb;
    campaign::Dispatcher dispatcher(*spec_kv, d);
    const auto t0 = Clock::now();
    const auto res = dispatcher.run();
    const double wall = seconds_since(t0);
    if (res.ok) {
      const auto table =
          campaign::merge_dispatch_journals(res.journal_paths(), &error);
      if (table && table->rows.size() == n) {
        dispatch_identical = true;
        for (std::size_t i = 0; i < n; ++i)
          dispatch_identical &= table->rows[i] == base->rows[i].cells;
      }
    }
    m.set("campaign.dispatch_overhead_s", wall - untraced_wall, "s");
    m.set("campaign.dispatch_restarts", static_cast<double>(res.restarts),
          "count");
  }

  // common layer.
  {
    std::vector<double> spawns;
    const std::string log = (dir / "spawn.log").string();
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      auto child = common::Child::spawn({campaign_bin, "--version"}, log);
      if (child) child->wait();
      spawns.push_back(seconds_since(t0));
    }
    m.set("common.spawn_ms", median(spawns) * 1e3, "ms");
  }

  // trace layer, on the grid's first point.
  const auto& cfg0 = points.front().config;
  const std::uint64_t budget0 = cfg0.warmup_instructions + cfg0.instructions;
  std::vector<double> gen_s;
  trace::MaterializedTrace mt;
  for (int i = 0; i < 3; ++i) {
    trace::WorkloadTraceSource gen(cfg0.workload);
    const auto t0 = Clock::now();
    mt = trace::MaterializedTrace::materialize(gen, budget0);
    gen_s.push_back(seconds_since(t0));
  }
  const double ops = static_cast<double>(mt.size());
  m.set("trace.gen_ns_per_op", median(gen_s) * 1e9 / ops, "ns");
  std::vector<double> point_s;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    core::run_experiment(cfg0);
    point_s.push_back(seconds_since(t0));
  }
  m.set("trace.gen_share", median(gen_s) / median(point_s), "fraction");
  {
    const auto bytes = std::span<const std::uint64_t>(mt.packed());
    const std::string_view view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size_bytes());
    m.set("common.crc32c_gb_per_s",
          static_cast<double>(view.size()) /
              per_call_s([&] { common::crc32c(view); }) / 1e9,
          "GB/s");
    const std::string store = (dir / "layer.reaptrace").string();
    std::vector<double> write_s;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      trace::write_trace_file(store, mt, points.front().trace_key);
      write_s.push_back(seconds_since(t0));
    }
    m.set("trace.store_write_mb_per_s",
          static_cast<double>(view.size()) / median(write_s) / (1 << 20),
          "MB/s");
    m.set("trace.store_open_ms",
          per_call_s([&] { trace::MappedTraceFile::open(store); }) * 1e3, "ms");
    const auto file = trace::MappedTraceFile::open(store);
    std::vector<trace::MemOp> batch(4096);
    m.set("trace.replay_ns_per_op", per_call_s([&] {
            trace::FileTraceSource src(file);
            while (src.next_batch(batch) != 0) {
            }
          }) * 1e9 / ops,
          "ns");
  }

  // sim / reliability / nvsim / ecc constructors.
  const double p_rd = mtj::read_disturb_probability(cfg0.mtj);
  const std::uint64_t line_bits = cfg0.hierarchy.l2.block_bytes * 8;
  m.set("sim.hierarchy_ctor_us", per_call_s([&] {
          sim::MemoryHierarchy h(cfg0.hierarchy, cfg0.seed);
        }) * 1e6,
        "us");
  m.set("reliability.model_ctor_us", per_call_s([&] {
          reliability::UncorrectableModel model(p_rd, cfg0.ecc_t, line_bits);
        }) * 1e6,
        "us");
  const auto code = core::make_line_code(line_bits, cfg0.ecc_t);
  nvsim::CacheGeometry geom;
  geom.capacity_bytes = cfg0.hierarchy.l2.capacity_bytes;
  geom.ways = cfg0.hierarchy.l2.ways;
  geom.block_bytes = cfg0.hierarchy.l2.block_bytes;
  m.set("nvsim.cache_model_us", per_call_s([&] {
          nvsim::CacheModel cm(geom, cfg0.tech, *code, &cfg0.mtj);
        }) * 1e6,
        "us");
  m.set("ecc.line_code_us",
        per_call_s([&] { core::make_line_code(line_bits, cfg0.ecc_t); }) * 1e6,
        "us");

  // Deterministic counts over the whole grid: a simulator-only change must
  // leave these identical.
  double instr = 0, l1 = 0, l2 = 0, l2_hits = 0, checks = 0;
  for (const auto& r : results) {
    instr += static_cast<double>(r.instructions);
    for (const auto* c : {&r.hier.l1i, &r.hier.l1d})
      l1 += static_cast<double>(c->read_lookups + c->write_lookups);
    l2 += static_cast<double>(r.hier.l2.read_lookups + r.hier.l2.write_lookups);
    l2_hits += static_cast<double>(r.hier.l2.read_hits + r.hier.l2.write_hits);
    checks += static_cast<double>(r.checks);
  }
  m.set("sim.l1_accesses_per_instr", l1 / instr, "1/instr");
  m.set("sim.l2_accesses_per_instr", l2 / instr, "1/instr");
  m.set("sim.l2_miss_rate", l2 > 0 ? 1.0 - l2_hits / l2 : 0.0, "fraction");
  m.set("reliability.checks_per_kinstr", checks * 1e3 / instr, "1/kinstr");

  // Ledger math over the run's (ones, reads) mix: ones from the first
  // trace's data blocks, reads from the first point's concealed-read
  // histogram.
  {
    const trace::DataValueModel values(cfg0.workload.values, line_bits,
                                       cfg0.workload.seed ^ 0xABCD);
    std::vector<std::uint64_t> reads;
    for (const auto& bin : results.front().concealed.nonempty_bins())
      for (std::uint64_t k = 0; k < std::min<std::uint64_t>(bin.count, 64); ++k)
        reads.push_back(bin.lo + k % (bin.hi - bin.lo + 1));
    if (reads.empty()) reads.push_back(1);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> mix;
    const auto packed = mt.packed();
    for (std::size_t i = 0; i < packed.size() && mix.size() < 4096; ++i) {
      const auto op = trace::MaterializedTrace::unpack(packed[i]);
      if (op.type == trace::OpType::inst_fetch) continue;
      mix.push_back({values.ones_for(op.addr), reads[mix.size() % reads.size()]});
    }
    double sink = 0.0;
    const double per_mix = per_call_s([&] {
      reliability::UncorrectableModel model(p_rd, cfg0.ecc_t, line_bits);
      for (const auto& [ones, rd] : mix) sink += model.conventional(ones, rd);
    });
    const double ctor = per_call_s([&] {
      reliability::UncorrectableModel model(p_rd, cfg0.ecc_t, line_bits);
    });
    m.set("reliability.tail_ns",
          std::max(0.0, per_mix - ctor) * 1e9 /
              static_cast<double>(std::max<std::size_t>(mix.size(), 1)),
          "ns");
    if (sink < 0) std::fprintf(stderr, "%g\n", sink);
  }

  // core: fixed per-point cost, the point-time distribution, and the hot
  // path with set-up subtracted.
  {
    auto tiny = cfg0;
    tiny.instructions = 1;
    tiny.warmup_instructions = 0;
    core::run_experiment(tiny);
    const long f0 = minor_faults();
    int calls = 0;
    const double setup = per_call_s([&] {
      core::run_experiment(tiny);
      ++calls;
    });
    m.set("core.point_setup_us", setup * 1e6, "us");
    m.set("core.setup_faults_per_point",
          static_cast<double>(minor_faults() - f0) / calls, "count");

    std::sort(point_ms.begin(), point_ms.end());
    const double np = static_cast<double>(point_ms.size());
    const double pct =
        np > 10 ? std::floor(1000.0 * (1.0 - 10.0 / np)) / 10.0 : 0.0;
    auto at = [&](double p) {
      if (point_ms.empty()) return 0.0;
      const double pos = p / 100.0 * (np - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const auto hi = std::min(lo + 1, point_ms.size() - 1);
      return point_ms[lo] + (pos - static_cast<double>(lo)) *
                                (point_ms[hi] - point_ms[lo]);
    };
    m.set("core.point_ms_p50", at(50.0), "ms");
    m.set("core.point_ms_tail", at(pct), "ms");
    m.set("core.point_ms_tail_pct", pct, "%");
    m.set("core.point_samples", np, "count");

    auto hot = cfg0;
    hot.warmup_instructions = 0;
    hot.instructions = budget0;
    std::vector<double> hot_s;
    core::ExperimentResult hr;
    for (int i = 0; i < 3; ++i) {
      trace::ReplayTraceSource src(mt);
      const auto t0 = Clock::now();
      hr = core::run_experiment_replay(hot, src);
      hot_s.push_back(seconds_since(t0));
    }
    const double hot_net = std::max(0.0, median(hot_s) - setup);
    const double l2_acc = static_cast<double>(hr.hier.l2.read_lookups +
                                              hr.hier.l2.write_lookups);
    m.set("core.hot_ns_per_instr",
          hot_net * 1e9 / static_cast<double>(hot.instructions), "ns");
    m.set("core.ns_per_l2_access", l2_acc > 0 ? hot_net * 1e9 / l2_acc : 0.0,
          "ns");
  }

  std::printf(
      "{\"points\": %zu, \"passes\": %zu, \"crc32c\": \"%s\", "
      "\"traced_identical\": %s, \"dispatch_identical\": %s, "
      "\"spans_file\": \"%s\", \"metrics\": %s}\n",
      n, untraced_s.size() + traced_s.size() + 1, crc.c_str(),
      traced_identical ? "true" : "false",
      dispatch_identical ? "true" : "false",
      json_escape((dir / "spans.jsonl").string()).c_str(), m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool fingerprint|check|layers ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const common::CliArgs args(argc - 1, argv + 1);
  try {
    if (cmd == "fingerprint") return cmd_fingerprint();
    if (cmd == "check") return cmd_check(args);
    if (cmd == "layers") return cmd_layers(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n", cmd.c_str());
  return 2;
}
