#!/usr/bin/env python3
"""Reachability check: every function src/ defines must be linked into a
shipped binary (stdlib only; needs cmake, a C++ compiler and binutils).

It configures and builds two trees under ``build-reachable/`` at the
repository root (which .gitignore covers):

- ``gpumine/``: the top-level project with the tests off, so its
  binaries are ``gpumine``, the bench/ binaries and the examples;
- ``perf_e2e/``: the end-to-end benchmark as its own project.

Both compile at ``-O0 -ffunction-sections -fdata-sections`` and link with
``-Wl,--gc-sections``, so a binary keeps exactly the function sections
reachable from its entry points. ``-O0`` matters: at ``-O2`` GCC inlines
a function into a caller in its own file and the linker then collects
the out-of-line copy, so a reached function would look unreached.

The defined set is the ``nm`` type-``T`` symbols (strong, global text) of
the objects under ``src/``. A function is reached when its symbol is in
some binary's symbol table. Inline functions in headers are emitted only
where they are called, so this check cannot see them.

Exit code 0 when every defined function is reached or allow-listed. Exit
code 1 with one line per problem otherwise: an unreached function (its
demangled name and object file), or a stale allow-list entry (one that a
binary reaches, or that src/ no longer defines).

    python3 tools/check_reachable.py
"""

import argparse
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Functions src/ keeps although no binary calls them, keyed by demangled
# name, each with the reason. At most five; an entry a binary reaches or
# src/ no longer defines fails the check.
ALLOWED = {
    "gpumine::Logger::reset_for_tests()":
        "tests restore the process-wide logger's stderr sink and level "
        "after redirecting it",
    "gpumine::cli::command_table()":
        "tests walk every command's flag table",
    "gpumine::prep::read_csv(std::basic_istream<char, std::char_traits<char> "
    ">&, gpumine::prep::CsvParams const&, std::basic_string_view<char, "
    "std::char_traits<char> >)":
        "tests parse in-memory CSV text through the stream reader that "
        "read_csv_file wraps",
    "gpumine::serve::QueryEngine::keyword_names[abi:cxx11]() const":
        "tests iterate a snapshot's keywords",
}
MAX_ALLOWED = 5

O0_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def build(source, tree, options, target):
    run(["cmake", "-S", str(source), "-B", str(tree), *O0_FLAGS, *options],
        stdout=subprocess.DEVNULL)
    cmd = ["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 1)]
    if target:
        cmd += ["--target", target]
    run(cmd, stdout=subprocess.DEVNULL)


def is_elf_executable(path):
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def binaries(tree):
    """Every linked executable in a build tree, skipping CMake's probes."""
    return sorted(p for p in tree.rglob("*")
                  if "CMakeFiles" not in p.parts and is_elf_executable(p))


def nm(path):
    """(type, mangled name) of every defined symbol of an object/binary."""
    out = run(["nm", "--defined-only", str(path)],
              stdout=subprocess.PIPE).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            symbols.append((parts[1], parts[2]))
    return symbols


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              stdout=subprocess.PIPE).stdout.splitlines()
    return dict(zip(names, out))


def object_label(obj, tree):
    """src/core/CMakeFiles/gpumine_core.dir/itemset.cpp.o ->
    src/core/itemset.cpp.o"""
    rel = obj.relative_to(tree)
    parts = list(rel.parts)
    if "CMakeFiles" in parts:
        i = parts.index("CMakeFiles")
        parts = parts[:i] + parts[i + 2:]
    return "/".join(parts)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()

    if len(ALLOWED) > MAX_ALLOWED:
        print(f"allow-list has {len(ALLOWED)} entries; at most "
              f"{MAX_ALLOWED} are allowed")
        return 1

    top = REPO / "build-reachable" / "gpumine"
    bench = REPO / "build-reachable" / "perf_e2e"
    build(REPO, top, ["-DGPUMINE_BUILD_TESTS=OFF",
                      "-DGPUMINE_BUILD_BENCH=ON",
                      "-DGPUMINE_BUILD_EXAMPLES=ON"], None)
    build(REPO / "perf_e2e", bench, [], "perf_e2e")

    defined = {}  # mangled name -> object label
    for obj in sorted((top / "src").rglob("*.o")):
        for kind, name in nm(obj):
            if kind == "T":
                defined.setdefault(name, object_label(obj, top))

    linked = binaries(top) + [bench / "perf_e2e"]
    reached = set()
    for binary in linked:
        reached.update(name for _, name in nm(binary))

    names = demangle(sorted(defined))
    problems = []
    for mangled, obj in sorted(defined.items(), key=lambda kv: names[kv[0]]):
        demangled = names[mangled]
        if mangled not in reached and demangled not in ALLOWED:
            problems.append(f"unreached: {demangled}  [{obj}]")
    defined_names = {names[m]: m for m in defined}
    for entry in ALLOWED:
        if entry not in defined_names:
            problems.append(f"stale allow-list entry (not defined in src/): "
                            f"{entry}")
        elif defined_names[entry] in reached:
            problems.append(f"stale allow-list entry (a binary reaches it): "
                            f"{entry}")

    print(f"check_reachable: {len(defined)} functions defined in src/, "
          f"{len(linked)} binaries, {len(ALLOWED)} allow-listed",
          file=sys.stderr)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
