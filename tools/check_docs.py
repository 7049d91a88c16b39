#!/usr/bin/env python3
"""Documentation consistency checks (stdlib only; run from anywhere).

The classes of rot this catches:

The checked documents are README.md, DESIGN.md and docs/*.md.

1. Broken relative links: every ``[text](path)`` in a checked document
   whose target is a repo-relative path must resolve to an
   existing file or directory. External links (http/https/mailto),
   pure anchors (``#section``) and paths escaping the repo root (e.g.
   the CI badge's ``../../actions`` URL) are skipped.

2. Phantom binaries: every ``examples/<name>.cpp`` and every
   ``bench/<name>`` binary (or its ``bench/<name>.cpp`` source)
   mentioned anywhere in the checked documents must exist on disk as
   ``<dir>/<name>.cpp`` AND be registered in ``<dir>/CMakeLists.txt``,
   so documented binaries always build and a deleted one cannot
   linger in the docs.

3. Undocumented metrics: every object key appearing (recursively) in
   the stats fixture must appear backticked in docs/OBSERVABILITY.md.
   The committed fixture, tools/fixtures/stats_fixture.json, is the
   ``--stats-json`` document and ``/stats`` body the golden test
   (tests/serve/metrics_golden_test.cpp) renders with every field set,
   so adding a metrics key without documenting it fails CI.
   ``--stats-fixture PATH`` (repeatable) checks more documents, such as
   a live binary's output, next to the committed one.

4. Undocumented and stale Prometheus families: every family declared
   by a ``# TYPE <name> <type>`` line in the metrics fixture must appear
   backticked in docs/OBSERVABILITY.md, and every backticked
   ``gpumine_*`` family there must be declared by a fixture (a row for a
   family the program no longer exports is stale). The committed
   fixture, tools/fixtures/metrics_fixture.txt, is the golden test's
   mining plus server exposition, so it declares every family.
   ``--metrics-fixture PATH`` (repeatable) checks more expositions, such
   as a live ``--metrics-out`` export, next to the committed one.

5. Span inventory drift: every span name src/ can emit must have a row
   in the span inventory of docs/OBSERVABILITY.md, and every row must
   name a span something in src/ emits. A name is emitted when it is a
   string literal in the argument of ``GPUMINE_SPAN(...)`` or of a
   ``Span var(...)`` construction (both names of ``cond ? "a" : "b"``
   count), or a ``layer/what`` literal assigned to an event's ``.name``
   (the crash dump's marker).

6. Flag drift: the flag tables in src/cli/ (one row per flag, one
   table per command, as ``const Flag kX[]`` arrays listed by
   ``kCommands``) against the docs. Every (command, flag) pair must be
   documented: in that command's row of the docs/API.md ``cli/`` table,
   or on a ``gpumine COMMAND`` line of README.md. And every ``--flag``
   the docs show on a ``gpumine COMMAND`` line of README.md or
   docs/*.md (backslash continuations included; the line ends at a
   closing backtick or a ``  #`` comment), or in a ``cli/`` table row,
   must be in that command's table. ``--help`` is the driver's own.

7. Phantom paths: every repo path inside inline backticks in a checked
   document (``src/...``, ``tests/...``, ``tools/...``, ``docs/...``,
   ``examples/...``; fenced code blocks are skipped) must exist, as a
   file or a directory, or as at least one match when it holds a ``*``.
   ``bench/<name>`` binaries are rule 2's.

Exit code 0 when clean, 1 with one line per problem otherwise.
"""

import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — target up to the first closing paren (no nesting in
# our docs); images ![alt](target) match the same pattern.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Documented binaries per directory: the mention pattern and the CMake
# helper that registers one there. A bench mention may carry ".cpp";
# any other extension (bench_util.hpp, CMakeLists.txt) is not a binary.
BINARIES = {
    "examples": (
        re.compile(r"examples/([A-Za-z0-9_]+)\.cpp"),
        "gpumine_add_example",
    ),
    "bench": (
        re.compile(r"(?<![\w.])bench/([A-Za-z0-9_]+)(?!\w)(?!\.(?!cpp\b)\w)"),
        "gpumine_add_bench",
    ),
}

# The argument list of GPUMINE_SPAN(...) or of a `Span var(...)`
# construction, up to the closing parenthesis before the semicolon.
SPAN_CALL = re.compile(r"(?:\bGPUMINE_SPAN|\bSpan\s+\w+)\s*\(([^;]*?)\)\s*;")
# An event named in place, such as the crash dump's marker.
EVENT_NAME = re.compile(r'\.name\s*=\s*"([^"/]+/[^"]+)"')
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
# A repo path inside an inline code span (not the tail of a longer path
# such as build/tests/...).
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|tools|docs|examples)/[\w./*-]*)"
)


def checked_documents():
    docs = [REPO / "README.md", REPO / "DESIGN.md"]
    docs.extend(sorted((REPO / "docs").glob("*.md")))
    return [d for d in docs if d.is_file()]


def check_links(doc, problems):
    text = doc.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]  # drop anchors on relative links
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.is_relative_to(REPO):
            continue  # escapes the repo (e.g. GitHub-relative badge URL)
        if not resolved.exists():
            problems.append(
                f"{doc.relative_to(REPO)}: broken link '{target}'"
            )


def registered_binaries(directory, helper):
    """Targets `directory`/CMakeLists.txt builds: plain add_executable
    calls plus calls of the directory's own helper function."""
    cmake = (REPO / directory / "CMakeLists.txt").read_text()
    return set(re.findall(r"add_executable\((\w+)", cmake)) | set(
        re.findall(re.escape(helper) + r"\((\w+)", cmake)
    )


def check_binaries(doc, problems, registered):
    text = doc.read_text(encoding="utf-8")
    for directory, (mention, _) in BINARIES.items():
        for name in sorted(set(mention.findall(text))):
            source = f"{directory}/{name}.cpp"
            if not (REPO / source).is_file():
                problems.append(
                    f"{doc.relative_to(REPO)}: references missing {source}"
                )
            elif name not in registered[directory]:
                problems.append(
                    f"{doc.relative_to(REPO)}: {source} is not registered "
                    f"in {directory}/CMakeLists.txt (it will not build)"
                )


def check_paths(doc, problems):
    text = re.sub(
        r"```.*?```", "", doc.read_text(encoding="utf-8"), flags=re.S
    )
    for span in re.findall(r"`([^`\n]+)`", text):
        for path in REPO_PATH.findall(span):
            path = path.rstrip(".")
            if "*" in path:
                found = any(REPO.glob(path))
            else:
                found = (REPO / path).exists()
            if not found:
                problems.append(
                    f"{doc.relative_to(REPO)}: references missing path "
                    f"'{path}'"
                )


def json_object_keys(value, keys):
    """Every dict key reachable from `value`, recursing through
    containers (list elements share a schema, so all are visited)."""
    if isinstance(value, dict):
        for key, child in value.items():
            keys.add(key)
            json_object_keys(child, keys)
    elif isinstance(value, list):
        for child in value:
            json_object_keys(child, keys)


def check_stats_schema(fixtures, problems):
    handbook = REPO / "docs" / "OBSERVABILITY.md"
    if not handbook.is_file():
        problems.append("docs/OBSERVABILITY.md missing (metrics handbook)")
        return
    keys = set()
    for fixture in fixtures:
        if not fixture.is_file():
            problems.append(f"stats fixture missing: {fixture}")
            continue
        try:
            documents = json.loads(fixture.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            problems.append(f"{fixture.name} is not valid JSON: {err}")
            continue
        json_object_keys(documents, keys)
    # The fixture's own wrapper keys label the documents, not metrics.
    keys -= {"mine", "server"}
    # A key is documented when it appears inline-backticked in the
    # handbook (table cells and prose both use `key` form).
    documented = documented_terms(handbook)
    for key in sorted(keys):
        if key not in documented:
            problems.append(
                f"docs/OBSERVABILITY.md: stats key '{key}' (emitted by "
                "the binary, present in the fixture) is undocumented"
            )


def documented_terms(handbook):
    """Inline-backticked terms in the handbook, with fenced code blocks
    stripped first (their triple backticks would break the pairing)."""
    text = re.sub(r"```.*?```", "", handbook.read_text(), flags=re.S)
    return set(re.findall(r"`([^`\n]+)`", text))


def check_metrics_families(fixtures, problems):
    handbook = REPO / "docs" / "OBSERVABILITY.md"
    if not handbook.is_file():
        problems.append("docs/OBSERVABILITY.md missing (metrics handbook)")
        return
    declared = set()
    for fixture in fixtures:
        if not fixture.is_file():
            problems.append(f"metrics fixture missing: {fixture}")
            continue
        families = re.findall(
            r"^# TYPE (\S+) \S+$",
            fixture.read_text(encoding="utf-8"),
            flags=re.M,
        )
        if not families:
            problems.append(
                f"{fixture.name}: no '# TYPE' lines — not exposition text?"
            )
        declared.update(families)
    documented = documented_terms(handbook)
    for family in sorted(declared - documented):
        problems.append(
            f"docs/OBSERVABILITY.md: metric family '{family}' "
            "(declared in the exposition fixture) is undocumented"
        )
    for family in sorted(documented - declared):
        if re.fullmatch(r"gpumine_[a-z0-9_]+", family):
            problems.append(
                f"docs/OBSERVABILITY.md: metric family '{family}' is "
                "documented but no exposition fixture declares it (stale row)"
            )


def emitted_span_names():
    """Span name -> the first src/ file that emits it."""
    names = {}
    for source in sorted((REPO / "src").rglob("*.[ch]pp")):
        text = source.read_text(encoding="utf-8")
        found = [
            name
            for call in SPAN_CALL.finditer(text)
            for name in STRING_LITERAL.findall(call.group(1))
        ]
        found += EVENT_NAME.findall(text)
        for name in found:
            names.setdefault(name, source.relative_to(REPO))
    return names


def check_span_inventory(problems):
    handbook = REPO / "docs" / "OBSERVABILITY.md"
    if not handbook.is_file():
        problems.append("docs/OBSERVABILITY.md missing (metrics handbook)")
        return
    section = re.search(
        r"^### Span inventory$(.*?)^#",
        handbook.read_text(encoding="utf-8"),
        flags=re.M | re.S,
    )
    if section is None:
        problems.append("docs/OBSERVABILITY.md: no '### Span inventory'")
        return
    documented = set(re.findall(r"^\| `([^`]+)` \|", section.group(1), re.M))
    emitted = emitted_span_names()
    for name in sorted(set(emitted) - documented):
        problems.append(
            f"docs/OBSERVABILITY.md: span '{name}' (emitted in "
            f"{emitted[name]}) is missing from the span inventory"
        )
    for name in sorted(documented - set(emitted)):
        problems.append(
            f"docs/OBSERVABILITY.md: span inventory row '{name}' names a "
            "span nothing in src/ emits (stale row)"
        )


# A flag table (`const Flag kX[] = {...};`), a row's name within it, the
# command table, and one command's entry in it.
FLAG_TABLE = re.compile(r"const Flag (\w+)\[\] = \{(.*?)\};\n", re.S)
FLAG_ROW = re.compile(r'\{"([a-z][a-z0-9-]*)",')
COMMAND_TABLE = re.compile(r"const Command kCommands\[\] = \{(.*?)\n\};", re.S)
COMMAND_ROW = re.compile(
    r'\{"([a-z][a-z-]*)",\s*"(?:[^"\\]|\\.)*",\s*\{([^}]*)\}', re.S
)
FLAG_MENTION = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")


def flag_tables():
    """Command name -> the set of flag names its table declares."""
    groups, commands = {}, {}
    for source in sorted((REPO / "src" / "cli").glob("*.cpp")):
        text = source.read_text(encoding="utf-8")
        for name, body in FLAG_TABLE.findall(text):
            groups[name] = FLAG_ROW.findall(body)
        for table in COMMAND_TABLE.findall(text):
            for command, listed in COMMAND_ROW.findall(table):
                commands[command] = {
                    flag
                    for group in re.findall(r"\w+", listed)
                    for flag in groups.get(group, [])
                }
    return commands


def command_lines(doc, commands):
    """(line number, command, text) for each `gpumine COMMAND` mention:
    the rest of its line up to a closing backtick or a shell comment,
    plus backslash continuation lines."""
    lines = doc.read_text(encoding="utf-8").split("\n")
    mention = re.compile(r"gpumine (%s)(?![\w-])" % "|".join(
        re.escape(c) for c in sorted(commands, key=len, reverse=True)))
    for number, line in enumerate(lines, 1):
        for match in mention.finditer(line):
            text = re.split(r"`|  #", line[match.end():])[0]
            follow = number
            while text.rstrip().endswith("\\") and follow < len(lines):
                text += re.split(r"`|  #", lines[follow])[0]
                follow += 1
            yield number, match.group(1), text


def api_cli_rows(commands):
    """(line number, command, text) for each row of the docs/API.md
    `cli/` table."""
    api = REPO / "docs" / "API.md"
    text = api.read_text(encoding="utf-8") if api.is_file() else ""
    section = re.search(r"^## cli/.*?(?=^## |\Z)", text, re.M | re.S)
    if section is None:
        return
    first = text[: section.start()].count("\n") + 1
    for offset, line in enumerate(section.group(0).split("\n")):
        row = re.match(r"\| `([a-z-]+)` \|(.*)", line)
        if row and row.group(1) in commands:
            yield first + offset, row.group(1), row.group(2)


def check_flags(docs, problems):
    commands = flag_tables()
    if not commands:
        problems.append("src/cli: no flag tables found (kCommands)")
        return
    documented = set()
    shown = []
    for doc in docs:
        for number, command, text in command_lines(doc, commands):
            shown.append((doc.relative_to(REPO), number, command, text))
            if doc.name == "README.md":
                documented.update(
                    (command, f) for f in FLAG_MENTION.findall(text))
    for number, command, text in api_cli_rows(commands):
        shown.append((pathlib.Path("docs/API.md"), number, command, text))
        documented.update((command, f) for f in FLAG_MENTION.findall(text))
    for where, number, command, text in shown:
        for flag in FLAG_MENTION.findall(text):
            if flag != "help" and flag not in commands[command]:
                problems.append(
                    f"{where}:{number}: shows `gpumine {command} --{flag}`, "
                    f"but {command}'s flag table declares no --{flag}"
                )
    for command in sorted(commands):
        for flag in sorted(commands[command]):
            if (command, flag) not in documented:
                problems.append(
                    f"src/cli: {command} --{flag} is in the flag table but "
                    "documented in neither its docs/API.md cli/ row nor a "
                    f"README.md `gpumine {command}` line"
                )


def fixture_args(args, flag):
    """Paths given after each occurrence of `flag`."""
    return [
        pathlib.Path(args[i + 1])
        for i, arg in enumerate(args[:-1])
        if arg == flag
    ]


def main():
    registered = {
        directory: registered_binaries(directory, helper)
        for directory, (_, helper) in BINARIES.items()
    }

    fixtures = REPO / "tools" / "fixtures"
    args = sys.argv[1:]
    stats = [fixtures / "stats_fixture.json"] + fixture_args(
        args, "--stats-fixture"
    )
    metrics = [fixtures / "metrics_fixture.txt"] + fixture_args(
        args, "--metrics-fixture"
    )

    problems = []
    docs = checked_documents()
    for doc in docs:
        check_links(doc, problems)
        check_binaries(doc, problems, registered)
        check_paths(doc, problems)
    check_stats_schema(stats, problems)
    check_metrics_families(metrics, problems)
    check_span_inventory(problems)
    check_flags(docs, problems)

    for problem in problems:
        print(problem)
    print(
        f"check_docs: {len(docs)} documents, {len(problems)} problem(s)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
