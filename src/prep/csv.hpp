// CSV import/export for job-feature tables.
//
// The reader handles RFC-4180 quoting (embedded commas, quotes, and
// newlines), infers column types (a column is numeric when every
// non-empty cell parses as a double), and maps empty cells to missing.
// Recoverable input problems come back as Result errors with file/line
// context, never exceptions.
//
// Parsing is a two-pass design over the slurped text: a serial
// quote-parity scan finds record boundaries (exact under RFC-4180 —
// see split_records), then field splitting, type inference, and column
// construction run chunked across the shared compute pool when
// CsvParams::num_threads > 1. Output is byte-identical for any thread
// count.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "prep/table.hpp"

namespace gpumine::prep {

struct CsvParams {
  char delimiter = ',';
  /// Force these columns to be categorical even if all cells parse as
  /// numbers (ids, zip-code-like fields).
  std::vector<std::string> force_categorical;
  /// Worker threads for field splitting, type inference, and column
  /// construction. 0 = hardware concurrency, 1 = inline on the calling
  /// thread. The parsed Table is identical for any value.
  std::size_t num_threads = 1;
};

/// Parses CSV text (first row = header) into a Table.
[[nodiscard]] Result<Table> read_csv(std::istream& in,
                                     const CsvParams& params = {},
                                     std::string_view context = "csv");

/// Reads a CSV file from disk.
[[nodiscard]] Result<Table> read_csv_file(const std::string& path,
                                          const CsvParams& params = {});

/// Writes a table as CSV (header + rows). Missing cells are empty.
void write_csv(const Table& table, std::ostream& out,
               const CsvParams& params = {});

/// Writes to a file; returns an error when the file cannot be opened.
[[nodiscard]] Result<bool> write_csv_file(const Table& table,
                                          const std::string& path,
                                          const CsvParams& params = {});

}  // namespace gpumine::prep
