#include "reap/campaign/report.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "reap/campaign/journal.hpp"
#include "reap/common/csv.hpp"
#include "reap/common/file.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/table.hpp"

namespace reap::campaign {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

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

// JSONL sink output or an execution journal. Every line goes through the
// journal-row parser, so a journal loads here exactly as read_journal
// reads it -- except that any damage is an error: reports run on settled
// files, where bad bytes mean real damage, not a run still in flight.
std::optional<RowTable> rows_from_jsonl(std::string_view text,
                                        const std::string& path,
                                        std::string* error) {
  RowTable table;
  bool journal = false;  // a journal header set the columns
  JournalRowParser parser;
  JournalRow row;
  const bool ok = for_each_line(text, [&](std::string_view line,
                                          std::size_t lineno, bool is_last) {
    if (line.empty()) return true;
    const auto at = [&](const char* what) {
      return fail(error, path + ":" + std::to_string(lineno) + ": " + what);
    };
    // Tolerate one torn final line (a killed run's last write), but
    // surface it: the caller decides whether a lost row matters.
    const auto torn_or = [&](const char* what) {
      if (table.truncated_tail || !is_last) return at(what);
      table.truncated_tail = true;
      return true;
    };
    switch (parser.scan(line)) {
      case RowVerdict::ok:
        break;
      case RowVerdict::malformed:
        return torn_or("malformed JSONL");
      case RowVerdict::bad_crc:
        return at("row CRC mismatch");
    }
    const auto& fields = parser.fields();
    // A journal header line carries the column schema and the grid size;
    // keep the size so the completeness check can catch a dense prefix.
    if (!fields.empty() && fields[0].name_is("format")) {
      for (const auto& f : fields) {
        std::uint64_t n = 0;
        if (f.name_is("points") && common::parse_u64(f.value_text(), n)) {
          table.expected_points = n;
        } else if (f.name_is("columns") && table.header.empty()) {
          table.header = common::split(f.value_text(), ',');
          journal = true;
        }
      }
      return true;
    }
    // In a journal every other line is a row and gets read_journal's
    // verdict: the wrong shape is a malformed row, which on the last line
    // is a torn tail.
    if (journal) {
      if (!parser.to_row(table.header, row))
        return torn_or("inconsistent columns");
      table.rows.push_back(std::move(row.cells));
      return true;
    }
    // Sink rows: the first one names the columns. Journal rows lead with
    // their key, which is not a column.
    const std::size_t begin = parser.has_key() ? 1 : 0;
    if (table.header.empty())
      for (std::size_t i = begin; i < fields.size(); ++i)
        table.header.push_back(fields[i].name_text());
    if (fields.size() - begin != table.header.size())
      return at("inconsistent columns");
    std::vector<std::string> cells;
    cells.reserve(table.header.size());
    for (std::size_t i = begin; i < fields.size(); ++i) {
      if (!fields[i].name_is(table.header[i - begin]))
        return at("inconsistent columns");
      cells.push_back(fields[i].value_text());
    }
    table.rows.push_back(std::move(cells));
    return true;
  });
  if (!ok) return std::nullopt;
  if (table.header.empty() || table.rows.empty()) {
    fail(error, path + ": no rows");
    return std::nullopt;
  }
  return table;
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

using KvViews = std::vector<std::pair<std::string_view, std::string_view>>;

// partner_key with caller-owned buffers: appends the key of `config` to
// `out`, with `kv` as scratch, so a caller keying many rows stops
// allocating once both buffers have grown.
void append_partner_key(std::string_view config, KvViews& kv,
                        std::string& out) {
  // kv_parse's reading of the string -- whitespace-separated tokens, key
  // before the first '=', a repeated key keeps its last value -- without
  // its std::map and istringstream: views, sorted by key.
  kv.clear();
  const auto is_space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  for (std::size_t i = 0; i < config.size();) {
    while (i < config.size() && is_space(config[i])) ++i;
    const std::size_t begin = i;
    while (i < config.size() && !is_space(config[i])) ++i;
    if (i == begin) break;
    const auto token = config.substr(begin, i - begin);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos)
      kv.emplace_back(token, std::string_view{});
    else
      kv.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  std::stable_sort(kv.begin(), kv.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  bool first = true;
  for (std::size_t i = 0; i < kv.size(); ++i) {
    // Of a run of equal keys only the last counts, as a map assignment.
    if (i + 1 < kv.size() && kv[i + 1].first == kv[i].first) continue;
    if (kv[i].first == "policy") continue;
    if (!first) out += ' ';
    first = false;
    out += kv[i].first;
    out += '=';
    out += kv[i].second;
  }
}

}  // namespace

std::string partner_key(std::string_view config) {
  KvViews kv;
  std::string out;
  out.reserve(config.size());
  append_partner_key(config, kv, out);
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

  struct Parsed {
    std::uint64_t index = 0;
    core::PolicyKind policy{};
    reliability::MttfResult mttf;
    double energy_j = 0.0;
    double ipc = 0.0;
  };
  // Each row's numbers, parsed once (after its policy, in pass 1).
  const auto parse = [&](const std::vector<std::string>& row, Parsed& p) {
    if (!common::parse_u64(row[c.index], p.index) ||
        !common::parse_double(row[c.ipc], p.ipc) ||
        !common::parse_double(row[c.energy], p.energy_j) ||
        !common::parse_double(row[c.sim_seconds], p.mttf.sim_seconds) ||
        !common::parse_double(row[c.mttf_seconds], p.mttf.mttf_seconds) ||
        !common::parse_double(row[c.failure_rate],
                              p.mttf.failure_rate_per_s) ||
        !common::parse_double(row[c.failure_prob], p.mttf.failure_prob_sum))
      return fail(error, "non-numeric cell in row " + row[c.index]);
    return true;
  };

  // Pass 1: every row's policy; baseline rows by partner key. The keys sit
  // back to back in one arena, viewed by the map once it is complete.
  std::vector<Parsed> parsed(table.rows.size());
  KvViews kv;
  std::string arena;
  std::vector<std::pair<std::size_t, std::size_t>> key_ends;  // (end, row)
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto kind = core::policy_from_string(table.rows[i][c.policy]);
    if (!kind) {
      fail(error, "unknown policy in rows: " + table.rows[i][c.policy]);
      return std::nullopt;
    }
    parsed[i].policy = *kind;
    if (*kind != baseline) continue;
    append_partner_key(table.rows[i][c.config], kv, arena);
    key_ends.emplace_back(arena.size(), i);
  }
  if (key_ends.empty()) {
    fail(error, "baseline policy " + core::to_string(baseline) +
                    " has no rows; nothing to normalize against");
    return std::nullopt;
  }
  std::unordered_map<std::string_view, std::size_t> baseline_by_key;
  baseline_by_key.reserve(key_ends.size());
  std::size_t key_begin = 0;
  for (const auto& [end, row] : key_ends) {
    baseline_by_key.emplace(
        std::string_view(arena).substr(key_begin, end - key_begin), row);
    key_begin = end;
  }
  for (std::size_t i = 0; i < table.rows.size(); ++i)
    if (!parse(table.rows[i], parsed[i])) return std::nullopt;

  // Pass 2: comparisons in row (= index) order, plus first-appearance
  // orders. For a row-major expansion first appearance reproduces the
  // spec's axis order, so summaries match the in-process report.
  std::vector<AnnotatedComparison> comparisons;
  std::vector<core::PolicyKind> policy_order;
  std::vector<std::string> workload_order;
  std::string key;
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    const Parsed& p = parsed[i];
    const auto& workload = row[c.workload];
    if (std::find(workload_order.begin(), workload_order.end(), workload) ==
        workload_order.end())
      workload_order.push_back(workload);
    if (p.policy == baseline) continue;
    if (std::find(policy_order.begin(), policy_order.end(), p.policy) ==
        policy_order.end())
      policy_order.push_back(p.policy);

    key.clear();
    append_partner_key(row[c.config], kv, key);
    const auto it = baseline_by_key.find(key);
    if (it == baseline_by_key.end()) continue;  // partner in another shard
    const Parsed& base = parsed[it->second];

    AnnotatedComparison a;
    a.c = compare_metrics(p.index, base.index, p.mttf, p.energy_j, p.ipc,
                          base.mttf, base.energy_j, base.ipc);
    a.policy = p.policy;
    a.workload = workload;
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
  const auto write_bars = [&](const std::string& name, auto value_of) {
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), policies.begin(), policies.end());
    common::CsvWriter csv(join(name), header);
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
    written.push_back(join(name));
    return true;
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
    common::CsvWriter csv(join("policy_summary.csv"),
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
    written.push_back(join("policy_summary.csv"));
  }

  // Gnuplot companions: clustered bars, CVD-safe fixed-order palette
  // (Okabe-Ito), single axis, recessive grid. Fig. 5 spans orders of
  // magnitude, so it gets a log y-axis like the paper's plot.
  const auto write_gp = [&](const std::string& name, const std::string& data,
                            const std::string& ylabel, bool logy) {
    std::ofstream gp(join(name));
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
    written.push_back(join(name));
    return true;
  };
  if (!write_gp("fig5.gp", "fig5_mttf.csv",
                "MTTF gain vs baseline (log)", true) ||
      !write_gp("fig6.gp", "fig6_energy.csv",
                "dynamic energy overhead (%)", false)) {
    fail(error, "cannot write gnuplot scripts in " + dir);
    return std::nullopt;
  }
  return written;
}

}  // namespace reap::campaign
