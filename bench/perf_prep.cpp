// Preprocessing front-end performance: CSV ingest, discretization,
// one-hot encoding, and weighted transaction deduplication
// (google-benchmark).
//
// The ingest baseline is the pre-refactor istream state machine,
// embedded below as `legacy_read_csv`: it pulls one character at a
// time through the stream buffer, which is what every caller paid
// before the slurped two-pass chunk parser landed. Doubles as the CI
// bench-smoke for the prep pipeline, emitting one BENCH_*.json
// trajectory record with per-stage timings, the dedup ratio, and the
// weighted-mining win — asserting along the way that the parallel
// front-end reproduces the legacy shapes and that mining the
// deduplicated database is byte-identical to mining the expanded one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "bench_util.hpp"
#include "core/fpgrowth.hpp"
#include "core/transaction_db.hpp"
#include "prep/binning.hpp"
#include "prep/csv.hpp"
#include "synth/pai.hpp"

namespace {

using namespace gpumine;

// ---------------------------------------------------------------------
// Legacy ingest baseline: byte-at-a-time istream parser (pre-refactor).

bool legacy_read_record(std::istream& in, char delimiter,
                        std::vector<std::string>& fields,
                        std::size_t& line_no, bool& bad_quoting) {
  fields.clear();
  bad_quoting = false;
  std::string field;
  bool in_quotes = false;
  bool after_quote = false;
  bool any = false;
  int ch = 0;
  while ((ch = in.get()) != EOF) {
    any = true;
    const char c = static_cast<char>(ch);
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          field.push_back('"');
          in.get();
        } else {
          in_quotes = false;
          after_quote = true;
        }
      } else {
        if (c == '\n') ++line_no;
        field.push_back(c);
      }
    } else if (c == '"') {
      if (!field.empty() || after_quote) bad_quoting = true;
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
      after_quote = false;
    } else if (c == '\r') {
      // swallow; \r\n handled by the \n branch
    } else if (c == '\n') {
      ++line_no;
      fields.push_back(std::move(field));
      return true;
    } else {
      if (after_quote) bad_quoting = true;
      field.push_back(c);
    }
  }
  if (in_quotes) bad_quoting = true;
  if (!any) return false;
  fields.push_back(std::move(field));
  return true;
}

bool legacy_parse_double(const std::string& s, double& out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(*begin))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(end[-1]))) {
    --end;
  }
  if (begin == end) return false;
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

Result<prep::Table> legacy_read_csv(std::istream& in,
                                          const prep::CsvParams& params) {
  std::vector<std::string> header;
  std::size_t line_no = 1;
  bool bad_quoting = false;
  if (!legacy_read_record(in, params.delimiter, header, line_no,
                          bad_quoting) ||
      bad_quoting) {
    return Error{"legacy", "bad header"};
  }

  std::vector<std::vector<std::string>> cells(header.size());
  std::vector<std::string> fields;
  while (legacy_read_record(in, params.delimiter, fields, line_no,
                            bad_quoting)) {
    if (bad_quoting) return Error{"legacy", "malformed quoting"};
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != header.size()) {
      return Error{"legacy", "field count mismatch"};
    }
    for (std::size_t c = 0; c < fields.size(); ++c) {
      cells[c].push_back(std::move(fields[c]));
    }
  }

  prep::Table table;
  for (std::size_t c = 0; c < header.size(); ++c) {
    const bool forced =
        std::find(params.force_categorical.begin(),
                  params.force_categorical.end(),
                  header[c]) != params.force_categorical.end();
    bool numeric = !forced;
    double tmp = 0.0;
    if (numeric) {
      for (const std::string& cell : cells[c]) {
        if (!cell.empty() && !legacy_parse_double(cell, tmp)) {
          numeric = false;
          break;
        }
      }
    }
    if (numeric) {
      prep::NumericColumn& col = table.add_numeric(header[c]);
      for (const std::string& cell : cells[c]) {
        if (cell.empty()) {
          col.push_missing();
        } else {
          legacy_parse_double(cell, tmp);
          col.push(tmp);
        }
      }
    } else {
      prep::CategoricalColumn& col = table.add_categorical(header[c]);
      for (const std::string& cell : cells[c]) {
        if (cell.empty()) {
          col.push_missing();
        } else {
          col.push(cell);
        }
      }
    }
  }
  return table;
}

// Pre-refactor discretization: a full std::sort for the quantile edges
// plus a per-row label_for call (which materializes a std::string per
// value) — what fit_bins/apply_bins cost before the nth_element
// selection and the zero-materialization apply landed.
prep::BinSpec legacy_fit_bins(std::span<const double> values,
                              const prep::BinningParams& params) {
  params.validate();
  prep::BinSpec spec;
  spec.zero_label = params.zero_label;
  spec.spike_label = params.spike_label;

  std::vector<double> present;
  present.reserve(values.size());
  for (double v : values) {
    if (!std::isnan(v)) present.push_back(v);
  }
  if (present.empty()) return spec;
  const auto n_present = static_cast<double>(present.size());

  const auto zero_count = static_cast<double>(
      std::count(present.begin(), present.end(), 0.0));
  if (zero_count / n_present >= params.zero_mass_threshold) {
    spec.has_zero_bin = true;
  }

  {
    std::unordered_map<double, std::size_t> freq;
    for (double v : present) {
      if (v != 0.0 || !spec.has_zero_bin) ++freq[v];
    }
    double best_value = 0.0;
    std::size_t best_count = 0;
    for (const auto& [v, c] : freq) {
      if (c > best_count || (c == best_count && v < best_value)) {
        best_value = v;
        best_count = c;
      }
    }
    if (best_count > 0 &&
        static_cast<double>(best_count) / n_present >=
            params.spike_mass_threshold &&
        !(spec.has_zero_bin && best_value == 0.0)) {
      spec.spike_value = best_value;
    }
  }

  std::vector<double> residual;
  residual.reserve(present.size());
  for (double v : present) {
    if (spec.has_zero_bin && v == 0.0) continue;
    if (spec.spike_value.has_value() && v == *spec.spike_value) continue;
    residual.push_back(v);
  }
  if (residual.empty()) return spec;

  std::sort(residual.begin(), residual.end());
  const int k = params.num_bins;
  std::vector<double> edges;
  if (params.equal_width) {
    const double lo = residual.front();
    const double hi = residual.back();
    for (int i = 1; i < k; ++i) {
      edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(k));
    }
  } else {
    for (int i = 1; i < k; ++i) {
      const auto idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(residual.size() - 1),
                           std::floor(static_cast<double>(residual.size()) *
                                      static_cast<double>(i) /
                                      static_cast<double>(k))));
      edges.push_back(residual[idx]);
    }
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  while (!edges.empty() && edges.front() <= residual.front()) {
    edges.erase(edges.begin());
  }

  spec.edges = edges;
  for (std::size_t i = 0; i <= edges.size(); ++i) {
    spec.labels.push_back(params.bin_prefix + std::to_string(i + 1));
  }
  return spec;
}

prep::CategoricalColumn legacy_apply_bins(const prep::NumericColumn& column,
                                          const prep::BinSpec& spec) {
  prep::CategoricalColumn out;
  for (double v : column.values) {
    if (auto label = spec.label_for(v); label.has_value()) {
      out.push(*label);
    } else {
      out.push_missing();
    }
  }
  return out;
}

// The pre-refactor discretization pass over a parsed trace table. The
// returned table feeds analysis::prepare, which skips the already
// categorical columns and runs the remaining (grouping, merge, encode)
// stages exactly as the pre-refactor serial pipeline did.
prep::Table legacy_discretize(prep::Table table,
                              const analysis::WorkflowConfig& config) {
  for (const auto& binning : config.binnings) {
    if (!table.has_column(binning.column) ||
        !table.is_numeric(binning.column)) {
      continue;
    }
    const prep::NumericColumn& col = table.numeric(binning.column);
    const prep::BinSpec spec = legacy_fit_bins(col.values, binning.params);
    table.replace_column(binning.column, legacy_apply_bins(col, spec));
  }
  return table;
}

// ---------------------------------------------------------------------
// Fixture: the PAI synthetic trace round-tripped through write_csv, so
// both parsers chew on the exact CSV bytes `prep` ingests in practice.

std::string make_trace_csv(std::size_t num_jobs) {
  synth::PaiConfig config;
  config.num_jobs = num_jobs;
  const prep::Table merged = synth::generate_pai(config).merged();
  std::ostringstream out;
  prep::write_csv(merged, out, prep::CsvParams{});
  return out.str();
}

// CI bench-smoke for the prep front-end. Times legacy vs chunked CSV
// ingest, serial vs parallel prepare (binning + encoding), dedup, and
// unweighted vs weighted mining, and writes one BENCH_*.json record.
// Exits non-zero when the parallel front-end fails to beat the legacy
// serial baseline by 2x end to end, or when weighted mining is not
// byte-identical to unweighted. Returns a process exit code.
int run_bench_smoke(const char* path, long pr, const char* commit) {
  const std::string text = make_trace_csv(20000);

  prep::CsvParams serial_csv;
  prep::CsvParams parallel_csv;
  parallel_csv.num_threads = 8;

  const double legacy_csv_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    benchmark::DoNotOptimize(legacy_read_csv(in, serial_csv));
  });
  const double csv_serial_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    benchmark::DoNotOptimize(prep::read_csv(in, serial_csv));
  });
  const double csv_parallel_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    benchmark::DoNotOptimize(prep::read_csv(in, parallel_csv));
  });

  std::istringstream parse_in(text);
  const auto parsed = prep::read_csv(parse_in, serial_csv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "FAIL: chunked parser rejected the fixture: %s\n",
                 parsed.error().to_string().c_str());
    return 1;
  }
  const prep::Table& table = parsed.value();
  {
    std::istringstream in(text);
    const auto legacy = legacy_read_csv(in, serial_csv);
    if (!legacy.ok() || legacy.value().num_rows() != table.num_rows() ||
        legacy.value().num_columns() != table.num_columns()) {
      std::fprintf(stderr,
                   "FAIL: legacy and chunked CSV parsers disagree on the "
                   "fixture shape\n");
      return 1;
    }
  }

  analysis::WorkflowConfig serial_cfg = analysis::pai_config();
  serial_cfg.prep_threads = 1;
  analysis::WorkflowConfig parallel_cfg = analysis::pai_config();
  parallel_cfg.prep_threads = 8;

  // End-to-end front-ends, CSV bytes -> encoded transactions. The
  // legacy pipeline is what shipped before this refactor: byte-at-a-time
  // ingest, sort-based binning materializing a label string per row,
  // then the remaining (grouping, merge, encode) stages via prepare —
  // which skips the already-categorical binned columns.
  const double legacy_prep_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    auto legacy = legacy_read_csv(in, serial_csv);
    auto binned =
        legacy_discretize(std::move(legacy).value(), serial_cfg);
    benchmark::DoNotOptimize(analysis::prepare(binned, serial_cfg));
  });
  const double prep_serial_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    auto parsed_again = prep::read_csv(in, serial_csv);
    benchmark::DoNotOptimize(
        analysis::prepare(parsed_again.value(), serial_cfg));
  });
  const double prep_parallel_ms = bench::best_of_ms([&] {
    std::istringstream in(text);
    auto parsed_again = prep::read_csv(in, parallel_csv);
    benchmark::DoNotOptimize(
        analysis::prepare(parsed_again.value(), parallel_cfg));
  });

  const auto prepared = analysis::prepare(table, serial_cfg);
  {
    std::istringstream in(text);
    auto legacy = legacy_read_csv(in, serial_csv);
    const auto legacy_prepared = analysis::prepare(
        legacy_discretize(std::move(legacy).value(), serial_cfg), serial_cfg);
    if (legacy_prepared.db.size() != prepared.db.size()) {
      std::fprintf(stderr,
                   "FAIL: legacy pipeline produced %zu transactions, "
                   "refactored pipeline %zu\n",
                   legacy_prepared.db.size(), prepared.db.size());
      return 1;
    }
  }

  const double dedup_ms =
      bench::best_of_ms([&] { benchmark::DoNotOptimize(prepared.db.dedup()); });
  const core::TransactionDb deduped = prepared.db.dedup();
  if (deduped.empty() || deduped.size() >= prepared.db.size()) {
    std::fprintf(stderr,
                 "FAIL: dedup did not shrink the trace (%zu -> %zu rows)\n",
                 prepared.db.size(), deduped.size());
    return 1;
  }
  const double dedup_ratio = static_cast<double>(prepared.db.size()) /
                             static_cast<double>(deduped.size());

  core::MiningParams mp = serial_cfg.mining;
  mp.num_threads = 1;
  const double unweighted_mine_ms = bench::best_of_ms(
      [&] { benchmark::DoNotOptimize(core::mine_fpgrowth(prepared.db, mp)); });
  const double weighted_mine_ms = bench::best_of_ms(
      [&] { benchmark::DoNotOptimize(core::mine_fpgrowth(deduped, mp)); });
  if (!core::same_itemsets(core::mine_fpgrowth(prepared.db, mp),
                          core::mine_fpgrowth(deduped, mp))) {
    std::fprintf(stderr,
                 "FAIL: weighted mining diverged from the expanded "
                 "database\n");
    return 1;
  }
  const double mine_speedup = unweighted_mine_ms / weighted_mine_ms;

  // Acceptance gate: the refactored front-end at 8 threads must clear
  // 2x over the pre-refactor serial pipeline. It holds even on a
  // single-core runner because the slurped zero-copy parser and the
  // selection-based binning win on algorithm, not parallelism alone.
  const double prep_speedup = legacy_prep_ms / prep_parallel_ms;
  if (prep_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: prep front-end speedup %.2f < 2.0 "
                 "(legacy %.3f ms vs parallel %.3f ms)\n",
                 prep_speedup, legacy_prep_ms, prep_parallel_ms);
    return 1;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\"pr\":%ld,\"commit\":\"%s\",\"rows\":%zu,"
      "\"legacy_csv_ms\":%.3f,\"csv_serial_ms\":%.3f,"
      "\"csv_parallel_ms\":%.3f,\"legacy_prep_ms\":%.3f,"
      "\"prep_serial_ms\":%.3f,\"prep_parallel_ms\":%.3f,"
      "\"prep_speedup\":%.3f,\"binning_ms\":%.3f,\"encode_ms\":%.3f,"
      "\"dedup_ms\":%.3f,\"distinct_transactions\":%zu,"
      "\"dedup_ratio\":%.2f,\"unweighted_mine_ms\":%.3f,"
      "\"weighted_mine_ms\":%.3f,\"mine_speedup\":%.3f}\n",
      pr, commit, prepared.db.size(), legacy_csv_ms, csv_serial_ms,
      csv_parallel_ms, legacy_prep_ms, prep_serial_ms, prep_parallel_ms,
      prep_speedup, prepared.prep_metrics.binning_seconds * 1e3,
      prepared.prep_metrics.encode_seconds * 1e3, dedup_ms, deduped.size(),
      dedup_ratio, unweighted_mine_ms, weighted_mine_ms, mine_speedup);
  std::fclose(out);
  std::printf(
      "bench-smoke: csv legacy %.3f ms / chunked %.3f ms, prep %.3f -> "
      "%.3f ms (x%.2f), dedup %zu -> %zu rows (x%.1f) in %.3f ms, mine "
      "%.3f -> %.3f ms (x%.2f) -> %s\n",
      legacy_csv_ms, csv_parallel_ms, legacy_prep_ms, prep_parallel_ms,
      prep_speedup, prepared.db.size(), deduped.size(), dedup_ratio, dedup_ms,
      unweighted_mine_ms, weighted_mine_ms, mine_speedup, path);
  return 0;
}

// ---------------------------------------------------------------------
// google-benchmark suite.

void BM_LegacyCsvRead(benchmark::State& state) {
  const std::string text =
      make_trace_csv(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(legacy_read_csv(in, prep::CsvParams{}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LegacyCsvRead)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_ChunkedCsvRead(benchmark::State& state) {
  const std::string text = make_trace_csv(20000);
  prep::CsvParams params;
  params.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(prep::read_csv(in, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ChunkedCsvRead)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Prepare(benchmark::State& state) {
  synth::PaiConfig config;
  config.num_jobs = 20000;
  const prep::Table merged = synth::generate_pai(config).merged();
  analysis::WorkflowConfig cfg = analysis::pai_config();
  cfg.prep_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::prepare(merged, cfg));
  }
}
BENCHMARK(BM_Prepare)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_Dedup(benchmark::State& state) {
  synth::PaiConfig config;
  config.num_jobs = static_cast<std::size_t>(state.range(0));
  const auto prepared = analysis::prepare(
      synth::generate_pai(config).merged(), analysis::pai_config());
  std::size_t distinct = 0;
  for (auto _ : state) {
    const auto deduped = prepared.db.dedup();
    distinct = deduped.size();
    benchmark::DoNotOptimize(deduped);
  }
  state.counters["distinct"] = static_cast<double>(distinct);
}
BENCHMARK(BM_Dedup)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_MineExpandedVsDeduped(benchmark::State& state) {
  synth::PaiConfig config;
  config.num_jobs = 20000;
  const auto prepared = analysis::prepare(
      synth::generate_pai(config).merged(), analysis::pai_config());
  const core::TransactionDb deduped = prepared.db.dedup();
  const core::TransactionDb& db = state.range(0) != 0 ? deduped : prepared.db;
  core::MiningParams mp = analysis::pai_config().mining;
  mp.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fpgrowth(db, mp));
  }
  state.counters["transactions"] = static_cast<double>(db.size());
}
BENCHMARK(BM_MineExpandedVsDeduped)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main, mirroring perf_mining.cpp / perf_rules.cpp:
// `--smoke-json=PATH [--smoke-pr=N] [--smoke-commit=SHA]` runs only the
// CI bench-smoke and writes the trajectory record there; otherwise the
// google-benchmark suite runs.
int main(int argc, char** argv) {
  const char* smoke_json = nullptr;
  long smoke_pr = 0;
  const char* smoke_commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--smoke-json=")) {
      smoke_json = argv[i] + std::string_view("--smoke-json=").size();
    } else if (arg.starts_with("--smoke-pr=")) {
      smoke_pr = std::strtol(argv[i] + std::string_view("--smoke-pr=").size(),
                             nullptr, 10);
    } else if (arg.starts_with("--smoke-commit=")) {
      smoke_commit = argv[i] + std::string_view("--smoke-commit=").size();
    }
  }
  if (smoke_json != nullptr) {
    return run_bench_smoke(smoke_json, smoke_pr, smoke_commit);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
