#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <ostream>
#include <ranges>
#include <stdexcept>

namespace gpumine::cli {
namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  for (const auto item : std::views::split(text, ',')) {
    if (!item.empty()) out.emplace_back(item.begin(), item.end());
  }
  return out;
}

template <typename Number>
bool parse_number(const std::string& text, Number& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

std::string format_real(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::fixed);
  return std::string(buffer, ec == std::errc{} ? end : buffer);
}

std::string format_range(const Range& range) {
  return (range.min_open ? "(" : "[") + format_real(range.min) + ", " +
         format_real(range.max) + (range.max_open ? ")" : "]");
}

// True if `value` is one of the '|'-separated `choices`.
bool is_choice(std::string_view choices, const std::string& value) {
  return value.find('|') == std::string::npos &&
         ("|" + std::string(choices) + "|").find("|" + value + "|") !=
             std::string::npos;
}

// Parses `text` into `flag`'s field and checks it against the flag's
// limit; returns why either fails.
std::optional<std::string> assign(const Flag& flag, const std::string& text,
                                  Args& args) {
  const auto* choices = std::get_if<std::string_view>(&flag.limit);
  double number = 0.0;
  if (const auto* field = std::get_if<TextField>(&flag.field)) {
    if (choices != nullptr && !is_choice(*choices, text)) {
      return "expected one of " + std::string(*choices) + ", got '" + text +
             "'";
    }
    (*field)(args) = text;
  } else if (const auto* list = std::get_if<ListField>(&flag.field)) {
    (*list)(args) = split_list(text);
  } else if (const auto* count = std::get_if<CountField>(&flag.field)) {
    if (!parse_number(text, (*count)(args))) {
      return "expected a non-negative integer, got '" + text + "'";
    }
    number = static_cast<double>((*count)(args));
  } else if (const auto* real = std::get_if<RealField>(&flag.field)) {
    if (!parse_number(text, (*real)(args)) || !std::isfinite((*real)(args))) {
      return "expected a finite number, got '" + text + "'";
    }
    number = (*real)(args);
  }
  if (const auto* r = std::get_if<Range>(&flag.limit);
      r != nullptr && !((r->min_open ? number > r->min : number >= r->min) &&
                        (r->max_open ? number < r->max : number <= r->max))) {
    return "must be in " + format_range(*r) + ", got " + text;
  }
  if (const auto* check = std::get_if<Check>(&flag.limit)) {
    try {
      (*check)(args);
    } catch (const std::invalid_argument& e) {
      // Drop the source location GPUMINE_CHECK_ARG puts before the message.
      const std::string what = e.what();
      const std::size_t at = what.rfind("): ");
      return at == std::string::npos ? what : what.substr(at + 3);
    }
  }
  return std::nullopt;
}

const Flag* find_flag(const Command& command, std::string_view name) {
  for (const auto& group : command.flags) {
    for (const Flag& flag : group) {
      if (flag.name == name) return &flag;
    }
  }
  return nullptr;
}

// A field's value as help prints it; a switch shows none.
std::string to_text(bool) { return ""; }
std::string to_text(const std::string& text) { return text; }
std::string to_text(std::size_t count) { return std::to_string(count); }
std::string to_text(double real) { return format_real(real); }
std::string to_text(const std::vector<std::string>& list) {
  std::string joined;
  for (const std::string& item : list) {
    joined += (joined.empty() ? "" : ",") + item;
  }
  return joined;
}

}  // namespace

Result<Args> Args::parse(const Command& command,
                         const std::vector<std::string>& words) {
  Args args;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& word = words[i];
    if (!word.starts_with("--")) {
      return Error{"", "unexpected argument '" + word +
                           "' (quote a value with spaces)"};
    }
    const std::size_t eq = word.find('=');
    const std::string name =
        word.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (name.empty()) return Error{"args", "bare '--' is not a valid flag"};
    const Flag* flag = find_flag(command, name);
    if (flag == nullptr) return Error{"", "unknown flag --" + name};
    const std::string context = "--" + name;
    if (!args.given.insert(flag->name).second) {
      return Error{context, "given more than once"};
    }
    if (const auto* on = std::get_if<SwitchField>(&flag->field)) {
      if (eq != std::string::npos) {
        return Error{context, "is a switch and takes no value"};
      }
      (*on)(args) = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = word.substr(eq + 1);
    } else if (i + 1 < words.size() && !words[i + 1].starts_with("--")) {
      value = words[++i];
    } else {
      return Error{context, "needs a value"};
    }
    if (flag->required && value.empty()) return Error{context, "needs a value"};
    if (auto bad = assign(*flag, value, args)) return Error{context, *bad};
  }
  for (const auto& group : command.flags) {
    for (const Flag& flag : group) {
      if (flag.required && !args.given.contains(flag.name)) {
        return Error{"--" + std::string(flag.name), "required"};
      }
    }
  }
  return args;
}

void print_help(const Command& command, std::ostream& out) {
  out << "usage: gpumine " << command.name << " [--flag VALUE ...]\n"
      << command.summary << "\n\nflags:\n";
  // Value placeholders, in the order of Field's kinds.
  constexpr const char* kMetavars[] = {"", " TEXT", " A,B,..", " N", " X"};
  Args defaults;
  for (const auto& group : command.flags) {
    for (const Flag& flag : group) {
      const auto* choices = std::get_if<std::string_view>(&flag.limit);
      const std::string metavar =
          choices ? " " + std::string(*choices) : kMetavars[flag.field.index()];
      std::string usage = "  --" + std::string(flag.name) + metavar;
      usage.resize(std::max<std::size_t>(usage.size() + 2, 28), ' ');
      std::string notes = std::visit(
          [&](auto field) { return to_text(field(defaults)); }, flag.field);
      if (!notes.empty()) notes = "default " + notes;
      if (flag.required) notes = "required";
      if (const auto* range = std::get_if<Range>(&flag.limit)) {
        notes += (notes.empty() ? "range " : "; range ") + format_range(*range);
      }
      out << usage << flag.help << (notes.empty() ? "" : " (" + notes + ")")
          << "\n";
    }
  }
}

}  // namespace gpumine::cli
