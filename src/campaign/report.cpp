#include "reap/campaign/report.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>

#include "reap/campaign/journal.hpp"
#include "reap/common/csv.hpp"
#include "reap/common/file.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/table.hpp"

namespace reap::campaign {
namespace {

using common::fail;

// Calls fn(line, lineno, is_last) for every line of `text`, empty ones
// included; `is_last` says nothing follows the line's newline.
template <class Fn>
bool for_each_line(std::string_view text, Fn fn) {
  std::size_t lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const auto nl = std::min(text.find('\n', pos), text.size());
    if (!fn(text.substr(pos, nl - pos), ++lineno, nl + 1 >= text.size()))
      return false;
    pos = nl + 1;
  }
  return true;
}

std::optional<RowTable> rows_from_csv(std::string_view text,
                                      const std::string& path,
                                      std::string* error) {
  RowTable table;
  const bool ok = for_each_line(text, [&](std::string_view line,
                                          std::size_t lineno, bool) {
    if (line.empty()) return true;
    auto cells = common::parse_csv_line(std::string(line));
    if (!cells)
      return fail(error,
                  path + ":" + std::to_string(lineno) + ": malformed CSV");
    if (table.header.empty()) {
      table.header = std::move(*cells);
    } else {
      if (cells->size() != table.header.size())
        return fail(error, path + ":" + std::to_string(lineno) +
                               ": row has " + std::to_string(cells->size()) +
                               " cells, header has " +
                               std::to_string(table.header.size()));
      table.rows.push_back(std::move(*cells));
    }
    return true;
  });
  if (!ok) return std::nullopt;
  if (table.header.empty()) {
    fail(error, path + ": no header row");
    return std::nullopt;
  }
  return table;
}

// JSONL sink output or an execution journal, through the one reader, so
// a journal loads here exactly as read_journal reads it -- except that
// any damage is an error: reports run on settled files, where bad bytes
// mean real damage, not a run still in flight.
std::optional<RowTable> rows_from_jsonl(std::string_view text,
                                        const std::string& path,
                                        std::string* error) {
  JsonlRowReader reader;
  RowTable& table = reader.table();
  const bool ok = for_each_line(text, [&](std::string_view line,
                                          std::size_t lineno, bool is_last) {
    if (line.empty()) return true;
    switch (reader.add(line)) {
      case JsonlRowReader::Line::header:
      case JsonlRowReader::Line::row:
        return true;
      case JsonlRowReader::Line::torn:
        // Tolerate one torn final line (a killed run's last write), but
        // surface it: the caller decides whether a lost row matters.
        if (!table.truncated_tail && is_last) {
          table.truncated_tail = true;
          return true;
        }
        break;
      case JsonlRowReader::Line::bad_header:
        // Another format keeps load_rows' own word for it.
        if (reader.header().format != kJournalFormat)
          return fail(error, path + ":1: unsupported journal format");
        break;
      case JsonlRowReader::Line::damaged:
        break;
    }
    return fail(error, path + ":" + std::to_string(lineno) + ": " +
                           reader.what());
  });
  if (!ok) return std::nullopt;
  if (table.header.empty() || table.rows.empty()) {
    fail(error, path + ": no rows");
    return std::nullopt;
  }
  return std::move(table);
}

}  // namespace

std::optional<std::size_t> RowTable::col(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i)
    if (header[i] == name) return i;
  return std::nullopt;
}

std::optional<RowTable> load_rows(const std::string& path,
                                  std::string* error) {
  const auto text = common::read_file(path);
  if (!text) {
    fail(error, "cannot open: " + path);
    return std::nullopt;
  }
  return !text->empty() && (*text)[0] == '{'
             ? rows_from_jsonl(*text, path, error)
             : rows_from_csv(*text, path, error);
}

namespace {

// Whitespace as kv_parse's istringstream reads it.
bool is_kv_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Partner keys of many rows. A key is kv_parse's reading of the config
// -- whitespace-separated tokens, key before the first '=', a repeated key
// keeps its last value -- with `policy` dropped and the rest in key order,
// built without kv_parse's std::map and istringstream. The rows of a table
// nearly always list the same keys in the same order, so the order a key
// is assembled in is worked out once per key sequence and reused: a row
// costs a tokenize, a compare of its keys with the last sequence's, and
// the appends.
class PartnerKeys {
 public:
  // Appends the partner key of `config` to `out`.
  void append(std::string_view config, std::string& out) {
    tokenize(config);
    if (!same_keys()) plan();
    bool first = true;
    for (const std::size_t i : order_) {
      if (!first) out += ' ';
      first = false;
      out += tokens_[i].first;
      out += '=';
      out += tokens_[i].second;
    }
  }

 private:
  void tokenize(std::string_view config) {
    tokens_.clear();
    for (std::size_t i = 0; i < config.size();) {
      while (i < config.size() && is_kv_space(config[i])) ++i;
      const std::size_t begin = i;
      while (i < config.size() && !is_kv_space(config[i])) ++i;
      if (i == begin) break;
      const auto token = config.substr(begin, i - begin);
      const auto eq = token.find('=');
      if (eq == std::string_view::npos)
        tokens_.emplace_back(token, std::string_view{});
      else
        tokens_.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
  }

  bool same_keys() const {
    if (tokens_.size() != keys_.size()) return false;
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (tokens_[i].first != keys_[i]) return false;
    return true;
  }

  // The token positions a key of this sequence is built from: stably
  // sorted by key, the last of a run of equal keys (as a map assignment
  // keeps it), `policy` left out.
  void plan() {
    keys_.assign(tokens_.size(), {});
    for (std::size_t i = 0; i < tokens_.size(); ++i)
      keys_[i] = tokens_[i].first;
    std::vector<std::size_t> sorted(keys_.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) sorted[i] = i;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [this](std::size_t a, std::size_t b) {
                       return keys_[a] < keys_[b];
                     });
    order_.clear();
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      const auto& key = keys_[sorted[k]];
      if (k + 1 < sorted.size() && keys_[sorted[k + 1]] == key) continue;
      if (key != "policy") order_.push_back(sorted[k]);
    }
  }

  std::vector<std::pair<std::string_view, std::string_view>> tokens_;
  std::vector<std::string> keys_;   // the key sequence order_ is for
  std::vector<std::size_t> order_;  // token positions, in key order
};

// Appends `config` without its `policy` tokens, whitespace kept. What is
// left tokenizes to the config's other tokens in their order, so two
// configs equal this way have equal partner keys -- found with a search
// and two copies instead of a tokenize and a rebuild.
void append_without_policy(std::string_view config, std::string& out) {
  constexpr std::string_view kPolicy = "policy";
  std::size_t copied = 0;
  for (std::size_t at = config.find(kPolicy); at != std::string_view::npos;
       at = config.find(kPolicy, at + 1)) {
    std::size_t end = at + kPolicy.size();
    // A token whose key, the text before its first '=', is `policy`.
    if ((at > 0 && !is_kv_space(config[at - 1])) ||
        (end < config.size() && config[end] != '=' &&
         !is_kv_space(config[end])))
      continue;
    while (end < config.size() && !is_kv_space(config[end])) ++end;
    out.append(config.substr(copied, at - copied));
    copied = end;
    at = end - 1;
  }
  out.append(config.substr(copied));
}

}  // namespace

std::string partner_key(std::string_view config) {
  // One builder per thread: successive calls reuse its order the way the
  // rows of one aggregate do.
  thread_local PartnerKeys keys;
  std::string out;
  out.reserve(config.size());
  keys.append(config, out);
  return out;
}

std::optional<RowTable> merge_tables(std::vector<RowTable> tables,
                                     std::string* error) {
  if (tables.empty()) {
    fail(error, "nothing to merge");
    return std::nullopt;
  }
  RowTable merged;
  merged.header = tables[0].header;
  const auto index_col = tables[0].col("index");
  if (!index_col) {
    fail(error, "merge: no `index` column");
    return std::nullopt;
  }
  std::size_t total = 0;
  for (const auto& t : tables) total += t.rows.size();
  merged.rows.reserve(total);
  for (auto& t : tables) {
    if (t.header != merged.header) {
      fail(error, "merge: input headers differ");
      return std::nullopt;
    }
    if (t.expected_points) {
      if (merged.expected_points &&
          *merged.expected_points != *t.expected_points) {
        fail(error, "merge: inputs record different grid sizes (" +
                        std::to_string(*merged.expected_points) + " vs " +
                        std::to_string(*t.expected_points) + ")");
        return std::nullopt;
      }
      merged.expected_points = t.expected_points;
    }
    merged.truncated_tail = merged.truncated_tail || t.truncated_tail;
    for (auto& row : t.rows) merged.rows.push_back(std::move(row));
  }

  // Numeric index sort (stable: ties keep input order for the dup check).
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(merged.rows.size());
  for (std::size_t i = 0; i < merged.rows.size(); ++i) {
    std::uint64_t idx = 0;
    if (!common::parse_u64(merged.rows[i][*index_col], idx)) {
      fail(error, "merge: non-numeric index cell: " +
                      merged.rows[i][*index_col]);
      return std::nullopt;
    }
    order.emplace_back(idx, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  std::vector<std::vector<std::string>> sorted;
  sorted.reserve(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    auto& row = merged.rows[order[k].second];
    if (k > 0 && order[k].first == order[k - 1].first) {
      if (row != sorted.back()) {
        fail(error, "merge: conflicting duplicate rows for index " +
                        std::to_string(order[k].first));
        return std::nullopt;
      }
      continue;  // byte-identical duplicate (same shard fed twice)
    }
    sorted.push_back(std::move(row));
  }
  merged.rows = std::move(sorted);
  return merged;
}

bool covers_all_indices(const RowTable& table) {
  const auto index_col = table.col("index");
  if (!index_col) return false;
  if (table.expected_points && *table.expected_points != table.rows.size())
    return false;  // dense prefix of a bigger grid, or overfull
  // merge_tables leaves rows index-sorted and unique; a dense range is
  // then exactly "row i has index i".
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    std::uint64_t idx = 0;
    if (!common::parse_u64(table.rows[i][*index_col], idx)) return false;
    if (idx != i) return false;
  }
  return !table.rows.empty();
}

namespace {

// Rows one task of aggregate_rows' per-row stages takes; a table of at
// most this many rows is aggregated on the calling thread alone.
constexpr std::size_t kAggregateChunk = 512;

// Calls fn(chunk, begin, end) for every kAggregateChunk-row chunk of
// [0, n), on up to one thread per core. Chunks share nothing but `fn`.
template <class Fn>
void for_each_chunk(std::size_t n, const Fn& fn) {
  const std::size_t chunks = (n + kAggregateChunk - 1) / kAggregateChunk;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < chunks;)
      fn(k, k * kAggregateChunk, std::min(n, (k + 1) * kAggregateChunk));
  };
  const std::size_t threads = std::min<std::size_t>(
      chunks, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::jthread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
}

}  // namespace

std::optional<CampaignAggregates> aggregate_rows(const RowTable& table,
                                                 core::PolicyKind baseline,
                                                 std::string* error) {
  struct Cols {
    std::size_t index, workload, policy, ipc, sim_seconds, mttf_seconds,
        failure_rate, failure_prob, energy, config;
  } c{};
  const auto need = [&](const char* name, std::size_t& out) {
    const auto i = table.col(name);
    if (!i) return fail(error, std::string("missing column: ") + name);
    out = *i;
    return true;
  };
  if (!need("index", c.index) || !need("workload", c.workload) ||
      !need("policy", c.policy) || !need("ipc", c.ipc) ||
      !need("sim_seconds", c.sim_seconds) ||
      !need("mttf_seconds", c.mttf_seconds) ||
      !need("failure_rate_per_s", c.failure_rate) ||
      !need("failure_prob_sum", c.failure_prob) ||
      !need("energy_dynamic_j", c.energy) || !need("config", c.config))
    return std::nullopt;

  // The per-row work -- a row's policy and numbers, the keys its baseline
  // partner is found by, then that partner -- runs in chunks of rows on up
  // to one thread per core. What depends on row order (the first baseline
  // row of a key, errors, comparisons, first appearances) runs in order.
  struct Parsed {
    std::optional<core::PolicyKind> policy;
    bool numeric = false;
    std::uint64_t index = 0;
    reliability::MttfResult mttf;
    double energy_j = 0.0;
    double ipc = 0.0;
    bool same_workload = false;  // as the row before
    std::string_view config;     // the config without policy
    std::string_view key;        // partner key (baseline rows)
    std::optional<std::size_t> partner;  // baseline row (other rows)
  };
  const auto parse = [&](const std::vector<std::string>& row, Parsed& p) {
    return common::parse_u64(row[c.index], p.index) &&
           common::parse_double(row[c.ipc], p.ipc) &&
           common::parse_double(row[c.energy], p.energy_j) &&
           common::parse_double(row[c.sim_seconds], p.mttf.sim_seconds) &&
           common::parse_double(row[c.mttf_seconds], p.mttf.mttf_seconds) &&
           common::parse_double(row[c.failure_rate],
                                p.mttf.failure_rate_per_s) &&
           common::parse_double(row[c.failure_prob], p.mttf.failure_prob_sum);
  };
  const std::size_t n_rows = table.rows.size();
  std::vector<Parsed> parsed(n_rows);
  // Each chunk's keys sit back to back in its arenas, viewed once complete.
  const std::size_t n_chunks = (n_rows + kAggregateChunk - 1) / kAggregateChunk;
  std::vector<std::string> config_arenas(n_chunks), key_arenas(n_chunks);
  for_each_chunk(n_rows, [&](std::size_t k, std::size_t begin,
                             std::size_t end) {
    PartnerKeys keys;
    std::string& configs = config_arenas[k];
    std::string& partner_keys = key_arenas[k];
    std::vector<std::pair<std::size_t, std::size_t>> ends;  // arena sizes
    ends.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const auto& row = table.rows[i];
      Parsed& p = parsed[i];
      p.same_workload =
          i > 0 && row[c.workload] == table.rows[i - 1][c.workload];
      p.policy = core::policy_from_string(row[c.policy]);
      if (p.policy) {
        p.numeric = parse(row, p);
        append_without_policy(row[c.config], configs);
        if (*p.policy == baseline) keys.append(row[c.config], partner_keys);
      }
      ends.emplace_back(configs.size(), partner_keys.size());
    }
    std::size_t config_at = 0, key_at = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto [config_end, key_end] = ends[i - begin];
      parsed[i].config =
          std::string_view(configs).substr(config_at, config_end - config_at);
      parsed[i].key =
          std::string_view(partner_keys).substr(key_at, key_end - key_at);
      config_at = config_end;
      key_at = key_end;
    }
  });

  // Errors as a row-by-row pass meets them: an unknown policy in any row
  // first, then a missing baseline, then a non-numeric cell.
  for (std::size_t i = 0; i < n_rows; ++i)
    if (!parsed[i].policy) {
      fail(error, "unknown policy in rows: " + table.rows[i][c.policy]);
      return std::nullopt;
    }
  // A partner key names its first baseline row, and a config without
  // policy names the row its partner key names.
  std::unordered_map<std::string_view, std::size_t> baseline_by_key,
      baseline_by_config;
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (*parsed[i].policy != baseline) continue;
    const std::size_t row =
        baseline_by_key.emplace(parsed[i].key, i).first->second;
    baseline_by_config.emplace(parsed[i].config, row);
  }
  if (baseline_by_key.empty()) {
    fail(error, "baseline policy " + core::to_string(baseline) +
                    " has no rows; nothing to normalize against");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < n_rows; ++i)
    if (!parsed[i].numeric) {
      fail(error, "non-numeric cell in row " + table.rows[i][c.index]);
      return std::nullopt;
    }

  // Each other row's partner: by config without policy, else by partner
  // key; none when the partner is in another shard.
  for_each_chunk(n_rows, [&](std::size_t, std::size_t begin,
                             std::size_t end) {
    PartnerKeys keys;
    std::string key;
    for (std::size_t i = begin; i < end; ++i) {
      Parsed& p = parsed[i];
      if (*p.policy == baseline) continue;
      auto it = baseline_by_config.find(p.config);
      if (it == baseline_by_config.end()) {
        key.clear();
        keys.append(table.rows[i][c.config], key);
        it = baseline_by_key.find(key);
        if (it == baseline_by_key.end()) continue;
      }
      p.partner = it->second;
    }
  });

  // Comparisons in row (= index) order, plus first-appearance orders. For
  // a row-major expansion first appearance reproduces the spec's axis
  // order, so summaries match the in-process report.
  std::vector<AnnotatedComparison> comparisons;
  comparisons.reserve(n_rows);
  std::vector<core::PolicyKind> policy_order;
  std::vector<std::string> workload_order;
  const std::string* workload = nullptr;  // the row's, read when it changes
  for (std::size_t i = 0; i < n_rows; ++i) {
    const Parsed& p = parsed[i];
    if (!p.same_workload) {
      workload = &table.rows[i][c.workload];
      if (std::find(workload_order.begin(), workload_order.end(),
                    *workload) == workload_order.end())
        workload_order.push_back(*workload);
    }
    if (*p.policy == baseline) continue;
    if (std::find(policy_order.begin(), policy_order.end(), *p.policy) ==
        policy_order.end())
      policy_order.push_back(*p.policy);
    if (!p.partner) continue;
    const Parsed& base = parsed[*p.partner];

    AnnotatedComparison a;
    a.c = compare_metrics(p.index, base.index, p.mttf, p.energy_j, p.ipc,
                          base.mttf, base.energy_j, base.ipc);
    a.policy = *p.policy;
    a.workload = *workload;
    comparisons.push_back(std::move(a));
  }

  return summarize_comparisons(baseline, comparisons, policy_order,
                               workload_order);
}

std::optional<std::vector<std::string>> write_figure_data(
    const CampaignAggregates& agg, const std::string& dir,
    std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    fail(error, "cannot create " + dir + ": " + ec.message());
    return std::nullopt;
  }
  std::vector<std::string> written;
  const auto join = [&dir](const std::string& name) {
    return (fs::path(dir) / name).string();
  };

  // Per-workload bar data. One row per workload, one column per policy, so
  // gnuplot's clustered-histogram mode consumes the files directly.
  std::vector<std::string> policies;
  for (const auto& s : agg.by_policy)
    policies.push_back(core::to_string(s.policy));
  // Every file goes to a temporary beside its target; all five are renamed
  // into place at the end.
  std::vector<common::FileReplacement> files;
  const auto create = [&](const std::string& name) {
    files.emplace_back(join(name));
    return files.back().path();
  };
  const auto write_bars = [&](const std::string& name, auto value_of) {
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), policies.begin(), policies.end());
    common::CsvWriter csv(create(name), header);
    if (!csv.ok()) return false;
    std::vector<std::string> workloads;
    for (const auto& w : agg.by_workload)
      if (std::find(workloads.begin(), workloads.end(), w.workload) ==
          workloads.end())
        workloads.push_back(w.workload);
    for (const auto& workload : workloads) {
      std::vector<std::string> row = {workload};
      for (const auto& s : agg.by_policy) {
        std::string cell = "nan";
        for (const auto& w : agg.by_workload)
          if (w.workload == workload && w.policy == s.policy)
            cell = common::fmt_double(value_of(w));
        row.push_back(cell);
      }
      csv.add_row(row);
    }
    return csv.close();
  };
  if (!write_bars("fig5_mttf.csv", [](const WorkloadSummary& w) {
        return w.mean_mttf_gain;
      })) {
    fail(error, "cannot write fig5_mttf.csv in " + dir);
    return std::nullopt;
  }
  if (!write_bars("fig6_energy.csv", [](const WorkloadSummary& w) {
        return w.mean_energy_overhead_pct;
      })) {
    fail(error, "cannot write fig6_energy.csv in " + dir);
    return std::nullopt;
  }

  {
    common::CsvWriter csv(create("policy_summary.csv"),
                          {"policy", "n", "mttf_gain_mean", "mttf_gain_geo",
                           "mttf_gain_min", "mttf_gain_max",
                           "energy_overhead_pct_mean",
                           "energy_overhead_pct_max", "speedup_mean"});
    if (!csv.ok()) {
      fail(error, "cannot write policy_summary.csv in " + dir);
      return std::nullopt;
    }
    for (const auto& s : agg.by_policy)
      csv.add_row({core::to_string(s.policy), std::to_string(s.n),
                   common::fmt_double(s.mean_mttf_gain),
                   common::fmt_double(s.geomean_mttf_gain),
                   common::fmt_double(s.min_mttf_gain),
                   common::fmt_double(s.max_mttf_gain),
                   common::fmt_double(s.mean_energy_overhead_pct),
                   common::fmt_double(s.max_energy_overhead_pct),
                   common::fmt_double(s.mean_speedup)});
    if (!csv.close()) {
      fail(error, "cannot write policy_summary.csv in " + dir);
      return std::nullopt;
    }
  }

  // Gnuplot companions: clustered bars, CVD-safe fixed-order palette
  // (Okabe-Ito), single axis, recessive grid. Fig. 5 spans orders of
  // magnitude, so it gets a log y-axis like the paper's plot.
  const auto write_gp = [&](const std::string& name, const std::string& data,
                            const std::string& ylabel, bool logy) {
    std::ofstream gp(create(name));
    if (!gp) return false;
    gp << "# gnuplot -p " << name << "  (expects " << data
       << " alongside)\n"
          "set datafile separator ','\n"
          "set style data histograms\n"
          "set style histogram clustered gap 1\n"
          "set style fill solid 0.9 border lc rgb '#303030'\n"
          "set boxwidth 0.9\n"
          "set key top left\n"
          "set grid ytics lc rgb '#d0d0d0' lt 1 dt 3\n"
          "set xtics rotate by -35\n"
          "set ylabel '"
       << ylabel << "'\n";
    if (logy) gp << "set logscale y\n";
    gp << "colors = \"#0072B2 #E69F00 #009E73 #CC79A7 #56B4E9\"\n"
          "plot for [i=2:*] '"
       << data
       << "' using i:xtic(1) title columnheader(i) "
          "lc rgb word(colors, i-1)\n";
    gp.close();
    return !gp.fail();
  };
  if (!write_gp("fig5.gp", "fig5_mttf.csv",
                "MTTF gain vs baseline (log)", true) ||
      !write_gp("fig6.gp", "fig6_energy.csv",
                "dynamic energy overhead (%)", false)) {
    fail(error, "cannot write gnuplot scripts in " + dir);
    return std::nullopt;
  }
  for (auto& f : files) {
    if (!f.commit(error)) return std::nullopt;
    written.push_back(f.target());
  }
  return written;
}

bool check_output_request(OutputRequest& request, std::string* error) {
  request.baseline.reset();
  if (request.baseline_name == "none") {
    if (request.figures)
      return fail(error,
                  "--figures needs aggregates; do not pass --baseline=none "
                  "with it");
    return true;
  }
  request.baseline = core::policy_from_string(request.baseline_name);
  if (!request.baseline)
    return fail(error, "unknown --baseline policy: " + request.baseline_name);
  return true;
}

namespace {

template <class Sink>
bool open_sink(const std::optional<std::string>& path, const char* what,
               std::optional<common::FileReplacement>& file,
               std::unique_ptr<Sink>& sink, std::string* error) {
  if (!path) return true;
  file.emplace(*path);
  sink = std::make_unique<Sink>(file->path());
  return sink->ok() ||
         fail(error, std::string("cannot write ") + what + " output: " + *path);
}

// Flushes and closes an open sink; a row that did not land is an error
// naming the target.
template <class Sink>
bool close_sink(const char* what,
                const std::optional<common::FileReplacement>& file,
                Sink& sink, std::string* error) {
  return !sink || sink->close() ||
         fail(error, std::string("cannot write ") + what + " output: " +
                         file->target() + " (write failed)");
}

}  // namespace

std::optional<OutputSinks> open_sinks(const OutputRequest& request,
                                      const std::vector<std::string>& columns,
                                      std::string* error) {
  OutputSinks sinks;
  if ((request.csv || request.jsonl) && columns != result_header()) {
    fail(error,
         "cannot write merged rows: their columns differ from this "
         "binary's row schema");
    return std::nullopt;
  }
  if (!open_sink(request.csv, "csv", sinks.csv_file, sinks.csv, error) ||
      !open_sink(request.jsonl, "jsonl", sinks.jsonl_file, sinks.jsonl,
                 error))
    return std::nullopt;
  return sinks;
}

std::optional<WrittenOutputs> write_outputs(const RowTable& table,
                                            const OutputRequest& request,
                                            OutputSinks sinks, bool aggregate,
                                            std::string* error) {
  // The aggregates read only the table, so a second thread computes and
  // renders them while the sinks write it. Every exit waits for it (the
  // future's destructor joins).
  aggregate = aggregate && request.baseline;
  std::future<WrittenOutputs> aggregated;
  if (aggregate)
    aggregated = std::async(std::launch::async, [&table, &request] {
      WrittenOutputs out;
      out.agg = aggregate_rows(table, *request.baseline, &out.agg_error);
      if (out.agg) out.tables = out.agg->render();
      return out;
    });
  for (const auto& row : table.rows) {
    if (sinks.csv) sinks.csv->add_cells(row);
    if (sinks.jsonl) sinks.jsonl->add_cells(row);
  }
  // Flushed, closed and checked before the caller reports anything.
  if (!close_sink("csv", sinks.csv_file, sinks.csv, error) ||
      !close_sink("jsonl", sinks.jsonl_file, sinks.jsonl, error))
    return std::nullopt;

  WrittenOutputs out;
  if (aggregate) {
    out = aggregated.get();
    if (request.figures) {
      if (!out.agg) {
        fail(error, "no aggregates: " + out.agg_error);
        return std::nullopt;
      }
      auto written = write_figure_data(*out.agg, *request.figures, error);
      if (!written) return std::nullopt;
      out.figure_files = std::move(*written);
    }
  }
  // Every output is written: only now do the row targets change.
  if ((sinks.csv_file && !sinks.csv_file->commit(error)) ||
      (sinks.jsonl_file && !sinks.jsonl_file->commit(error)))
    return std::nullopt;
  return out;
}

}  // namespace reap::campaign
