// Subcommand implementations behind the `gpumine` binary. All output
// goes through the provided streams and the return value is the process
// exit code, so the commands are unit-testable without spawning.
//
//   gpumine synth    --trace pai|supercloud|philly --jobs N --seed S
//                    --out trace.csv
//   gpumine itemsets --csv trace.csv [--min-support F] [--max-length K]
//                    [--top N] [--save FILE]
//   gpumine mine     (--csv trace.csv | --load FILE) --keyword ITEM
//                    [--min-support F] [--min-lift F] [--max-length K]
//                    [--c-lift F] [--c-supp F] [--bare col,col]
//                    [--group col,col] [--drop col,col] [--max-rows N]
//   gpumine predict  --csv trace.csv --target ITEM [--holdout F]
//                    [--min-confidence F] [--seed N] [+ mine flags]
//   gpumine compare  --a FILE --b FILE --keyword ITEM [--min-lift F]
//   gpumine snapshot (--csv trace.csv | --from-itemsets FILE) --out FILE
//                    [+ mine flags]
//   gpumine serve    --snapshot FILE [--host H] [--port P] [--threads N]
//   gpumine query    [--host H] [--port P] (--keyword ITEM |
//                    --items A,B | --stats | --reload | --health)
//   gpumine help
//
// `itemsets` and `mine` bin every numeric CSV column with the paper's
// defaults (equal-frequency quartiles; automatic 0-value and "Std" spike
// bins); `--group` applies the 25%-share Freq/Regular/New grouping to
// high-cardinality categorical columns such as user ids.
// Every saved FILE is a v2 snapshot (core/snapshot.hpp), with rules
// (`snapshot`) or without (`itemsets --save`); readers take either.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gpumine::cli {

/// Dispatches `argv`-style arguments (without the program name).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

int run_help(std::ostream& out);
int run_synth(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int run_itemsets(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
int run_mine(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int run_predict(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
int run_report(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
/// Operator digest: greedy rule summary + Fisher/FDR certification +
/// negative "safe pattern" rules for one keyword.
int run_digest(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
/// Compares the keyword rule sets of two saved itemset families (from
/// `itemsets --save` or `snapshot`) — overlap, metric divergence, and
/// the rules unique to each system.
int run_compare(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
/// Builds a rule snapshot (core/snapshot.hpp) for `gpumine serve`, from
/// a trace CSV or a saved itemset family (`itemsets --save`).
int run_snapshot(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
/// Serves rule queries from a snapshot file over HTTP + line protocol;
/// blocks until SIGINT/SIGTERM (or returns immediately with --check).
int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
/// One-shot client for a running `gpumine serve` instance.
int run_query(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
/// Validates a Chrome trace-event file written by `--trace` (the same
/// self-check the exporter runs before reporting success).
int run_trace_check(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err);
/// Lints a Prometheus exposition file written by `--metrics-out` (the
/// same check `serve --check` runs against its own /metrics scrape).
int run_metrics_check(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err);

}  // namespace gpumine::cli
