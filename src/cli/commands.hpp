// The `gpumine` commands. Each declares its flags once, in a table that
// parsing, bounds and help all read (cli/args.hpp). Output goes through
// the given streams and the return value is the exit code, so the
// commands are testable without spawning.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace gpumine::cli {

/// Dispatches `argv`-style arguments (without the program name).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// Every command's table, in the order `gpumine help` lists them.
std::span<const Command> command_table();

}  // namespace gpumine::cli
