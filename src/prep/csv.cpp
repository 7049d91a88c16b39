#include "prep/csv.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <deque>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::prep {
namespace {

// One body record located by the boundary scan: a half-open byte range
// of the slurped text (terminating newline excluded) plus the physical
// line the record starts on.
struct RecordRef {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 1;
};

// Locates record boundaries in one serial pass. RFC-4180 quoting gives
// an exact invariant: scanning left to right, a byte is inside quotes
// iff the number of '"' seen so far is odd (an escaped "" pair toggles
// twice, ending where it started), so a '\n' at even quote parity
// always terminates a record — the same boundaries the per-character
// field state machine produces, including around malformed quoting,
// which split_fields flags per record afterwards.
std::vector<RecordRef> split_records(std::string_view text) {
  std::vector<RecordRef> records;
  bool in_quotes = false;
  std::size_t line = 1;
  std::size_t begin = 0;
  std::size_t begin_line = 1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n') {
      ++line;
      if (!in_quotes) {
        records.push_back({begin, i, begin_line});
        begin = i + 1;
        begin_line = line;
      }
    }
  }
  if (begin < text.size()) {
    // Final record without a trailing newline (or with an unterminated
    // quote swallowing the rest of the input).
    records.push_back({begin, text.size(), begin_line});
  }
  return records;
}

// Splits one record slice into fields — the same state machine as the
// old streaming reader, branch for branch, so quoting quirks (escaped
// "", re-opened quotes, text after a closing quote) classify the same.
void split_fields(std::string_view record, char delimiter,
                  std::vector<std::string>& fields, bool& bad_quoting) {
  fields.clear();
  bad_quoting = false;
  std::string field;
  bool in_quotes = false;
  bool after_quote = false;  // the current field's quoted section closed
  for (std::size_t i = 0; i < record.size(); ++i) {
    const char c = record[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          after_quote = true;
        }
      } else {
        field.push_back(c);  // embedded delimiters/newlines stay literal
      }
    } else if (c == '"') {
      if (!field.empty() || after_quote) {
        bad_quoting = true;  // quote opening mid-field, or reopening
      }
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
      after_quote = false;
    } else if (c == '\r') {
      // swallow; \r\n handled by the record boundary
    } else {
      if (after_quote) {
        bad_quoting = true;  // trailing text after a closing quote
      }
      field.push_back(c);
    }
  }
  if (in_quotes) bad_quoting = true;
  fields.push_back(std::move(field));
}

// Cells and first error of one contiguous run of body records. Cell
// views point into the slurped input text (the common, quote-free
// case) or into this chunk's `arena` (fields that needed unescaping),
// so the bulk of the input is never copied. std::deque keeps arena
// strings address-stable as it grows.
struct ParsedChunk {
  std::vector<std::vector<std::string_view>> cells;  // [column][row-in-chunk]
  std::deque<std::string> arena;
  std::optional<Error> error;
  std::size_t error_record = 0;  // global record index of `error`
};

// Parses records [lo, hi) into per-column cells, stopping at the first
// malformed record. Blank lines (one empty field) are skipped, matching
// the streaming reader. A record with no '"' and no '\r' splits into
// zero-copy slices on the delimiter; anything else goes through the
// full state machine and lands in the chunk arena.
ParsedChunk parse_chunk(std::string_view text,
                        const std::vector<RecordRef>& records, std::size_t lo,
                        std::size_t hi, std::size_t num_columns,
                        char delimiter, std::string_view context) {
  ParsedChunk chunk;
  chunk.cells.resize(num_columns);
  for (auto& column : chunk.cells) column.reserve(hi - lo);
  std::vector<std::string_view> views;
  std::vector<std::string> fields;
  bool bad_quoting = false;
  for (std::size_t r = lo; r < hi; ++r) {
    const RecordRef& rec = records[r];
    const std::string_view record =
        text.substr(rec.begin, rec.end - rec.begin);
    views.clear();
    if (record.find('"') == std::string_view::npos &&
        record.find('\r') == std::string_view::npos) {
      std::size_t start = 0;
      for (std::size_t pos = record.find(delimiter, start);
           pos != std::string_view::npos;
           pos = record.find(delimiter, start)) {
        views.push_back(record.substr(start, pos - start));
        start = pos + 1;
      }
      views.push_back(record.substr(start));
    } else {
      split_fields(record, delimiter, fields, bad_quoting);
      if (bad_quoting) {
        chunk.error =
            Error{std::string(context) + ":" + std::to_string(rec.line),
                  "malformed quoting"};
        chunk.error_record = r;
        return chunk;
      }
      for (std::string& field : fields) {
        chunk.arena.push_back(std::move(field));
        views.emplace_back(chunk.arena.back());
      }
    }
    if (views.size() == 1 && views[0].empty()) continue;  // blank line
    if (views.size() != num_columns) {
      chunk.error = Error{std::string(context) + ":" + std::to_string(rec.line),
                          "expected " + std::to_string(num_columns) +
                              " fields, got " + std::to_string(views.size())};
      chunk.error_record = r;
      return chunk;
    }
    for (std::size_t c = 0; c < views.size(); ++c) {
      chunk.cells[c].push_back(views[c]);
    }
  }
  return chunk;
}

bool parse_double(std::string_view s, double& out) {
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

bool needs_quoting(const std::string& s, char delimiter) {
  return s.find(delimiter) != std::string::npos ||
         s.find('"') != std::string::npos || s.find('\n') != std::string::npos;
}

void write_field(std::ostream& out, const std::string& s, char delimiter) {
  if (!needs_quoting(s, delimiter)) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

// Builds one typed column from its raw cells, applying the numeric
// inference rule (numeric iff every non-empty cell parses as a double
// and the column is not forced categorical). Inference and conversion
// are one fused pass: values accumulate until the first non-numeric
// cell proves the column categorical.
Column build_column(const std::vector<std::string_view>& cells, bool forced) {
  if (!forced) {
    NumericColumn col;
    col.values.reserve(cells.size());
    bool numeric = true;
    double tmp = 0.0;
    for (std::string_view cell : cells) {
      if (cell.empty()) {
        col.push_missing();
      } else if (parse_double(cell, tmp)) {
        col.push(tmp);
      } else {
        numeric = false;
        break;
      }
    }
    if (numeric) return col;
  }
  CategoricalColumn col;
  for (std::string_view cell : cells) {
    if (cell.empty()) {
      col.push_missing();
    } else {
      col.push(cell);
    }
  }
  return col;
}

Result<Table> read_csv_text(std::string_view text, const CsvParams& params,
                            std::string_view context) {
  GPUMINE_SPAN("prep/csv_parse");
  const std::vector<RecordRef> records = split_records(text);
  if (records.empty()) {
    return Error{std::string(context), "empty input"};
  }

  // Header is parsed serially — every later decision depends on it.
  std::vector<std::string> header;
  bool bad_quoting = false;
  const RecordRef& head = records.front();
  split_fields(text.substr(head.begin, head.end - head.begin),
               params.delimiter, header, bad_quoting);
  if (bad_quoting) {
    return Error{std::string(context) + ":1", "malformed quoting in header"};
  }
  for (const std::string& name : header) {
    if (name.empty()) {
      return Error{std::string(context) + ":1", "empty column name"};
    }
  }
  if (std::unordered_map<std::string, int> seen;
      std::any_of(header.begin(), header.end(),
                  [&](const std::string& h) { return seen[h]++ > 0; })) {
    return Error{std::string(context) + ":1", "duplicate column name"};
  }

  // Body records, chunked: each chunk splits fields into its own
  // per-column cell buffers; chunks concatenate in order, so the final
  // cells are identical to a single serial pass.
  const std::size_t num_records = records.size() - 1;
  const std::size_t num_chunks =
      parallel_chunks(params.num_threads, num_records);
  std::vector<ParsedChunk> chunks(num_chunks);
  parallel_for(params.num_threads, num_chunks, [&](std::size_t i) {
    GPUMINE_SPAN("prep/csv_chunk");
    const std::size_t lo = 1 + num_records * i / num_chunks;
    const std::size_t hi = 1 + num_records * (i + 1) / num_chunks;
    chunks[i] = parse_chunk(text, records, lo, hi, header.size(),
                            params.delimiter, context);
  });

  // Earliest failing record wins — exactly the error the serial reader
  // would have stopped on (chunks detect their own errors in order).
  const ParsedChunk* failed = nullptr;
  for (const ParsedChunk& chunk : chunks) {
    if (chunk.error &&
        (failed == nullptr || chunk.error_record < failed->error_record)) {
      failed = &chunk;
    }
  }
  if (failed != nullptr) return *failed->error;

  // Concatenate per-chunk views in chunk order (views stay valid: they
  // point into `text` or into chunk arenas, both alive until return).
  std::vector<std::vector<std::string_view>> cells(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    std::size_t total = 0;
    for (const ParsedChunk& chunk : chunks) total += chunk.cells[c].size();
    cells[c].reserve(total);
    for (const ParsedChunk& chunk : chunks) {
      cells[c].insert(cells[c].end(), chunk.cells[c].begin(),
                      chunk.cells[c].end());
    }
  }

  // Type inference + column construction are independent per column.
  std::vector<Column> columns(header.size());
  parallel_for(params.num_threads, header.size(), [&](std::size_t c) {
    GPUMINE_SPAN("prep/csv_column");
    const bool forced = std::find(params.force_categorical.begin(),
                                  params.force_categorical.end(),
                                  header[c]) != params.force_categorical.end();
    columns[c] = build_column(cells[c], forced);
  });

  Table table;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (std::holds_alternative<NumericColumn>(columns[c])) {
      table.add_numeric(header[c]) =
          std::move(std::get<NumericColumn>(columns[c]));
    } else {
      table.add_categorical(header[c]) =
          std::move(std::get<CategoricalColumn>(columns[c]));
    }
  }
  return table;
}

}  // namespace

Result<Table> read_csv(std::istream& in, const CsvParams& params,
                       std::string_view context) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_csv_text(buffer.str(), params, context);
}

Result<Table> read_csv_file(const std::string& path, const CsvParams& params) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Error{path, "cannot open file"};
  }
  const std::streamsize size = in.tellg();
  std::string text(static_cast<std::size_t>(std::max<std::streamsize>(size, 0)),
                   '\0');
  in.seekg(0);
  if (size > 0 && !in.read(text.data(), size)) {
    return Error{path, "read failed"};
  }
  return read_csv_text(text, params, path);
}

void write_csv(const Table& table, std::ostream& out, const CsvParams& params) {
  const std::size_t rows = table.num_rows();
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << params.delimiter;
    write_field(out, table.column_name(c), params.delimiter);
  }
  out << '\n';
  std::ostringstream num;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << params.delimiter;
      const std::string& name = table.column_name(c);
      if (table.is_numeric(name)) {
        const NumericColumn& col = table.numeric(name);
        if (!col.is_missing(r)) {
          num.str("");
          num << col.values[r];
          out << num.str();
        }
      } else {
        const CategoricalColumn& col = table.categorical(name);
        if (!col.is_missing(r)) {
          write_field(out, col.label(r), params.delimiter);
        }
      }
    }
    out << '\n';
  }
}

Result<bool> write_csv_file(const Table& table, const std::string& path,
                            const CsvParams& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Error{path, "cannot open file for writing"};
  }
  write_csv(table, out, params);
  out.flush();
  if (!out) {
    return Error{path, "write failed"};
  }
  return true;
}

}  // namespace gpumine::prep
