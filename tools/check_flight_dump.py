#!/usr/bin/env python3
"""Checks a crash dump that a server wrote after a burst of reloads.

Usage: tools/check_flight_dump.py DUMP.json   (stdlib only)

`gpumine serve --flight-dump DUMP.json` writes the dump from its crash
handler, or on a clean exit. Every reload builds the query engine on the
process's compute pool of one worker per hardware thread, the same
workers each time, so each worker's ring holds spans of many reloads.
This check passes when the dump still explains the newest reload:

1. the newest `serve/engine_build` span has `serve/engine_keyword` spans
   inside its interval on at least one other tid (the pool's workers
   kept the newest build's spans). This needs
   `std::thread::hardware_concurrency() > 1`: on one hardware thread the
   pool has one worker, and the building thread may render every
   keyword itself;
2. the `flight/dump` marker lies at or after the latest span end and
   within 60 s of it (the marker is on the span clock).

Exit code 0 when both hold, 1 with one line per problem otherwise.
"""

import json
import sys

MAX_MARKER_GAP_NS = 60 * 10**9


def ns(us):
    """A dump time (microseconds, three decimals) as integer ns."""
    return round(us * 1000)


def check(doc):
    problems = []
    events = doc["traceEvents"]
    markers = [e for e in events if e["name"] == "flight/dump"]
    spans = [e for e in events if e["name"] != "flight/dump"]

    builds = [e for e in spans if e["name"] == "serve/engine_build"]
    if not builds:
        problems.append("no serve/engine_build span in the dump")
    else:
        newest = max(builds, key=lambda e: e["ts"])
        begin = ns(newest["ts"])
        end = begin + ns(newest["dur"])
        keyword_tids = {
            e["tid"]
            for e in spans
            if e["name"] == "serve/engine_keyword"
            and begin <= ns(e["ts"])
            and ns(e["ts"]) + ns(e["dur"]) <= end
        }
        print(
            f"newest serve/engine_build on tid {newest['tid']}: "
            f"serve/engine_keyword spans on tids {sorted(keyword_tids)}"
        )
        if not keyword_tids - {newest["tid"]}:
            problems.append(
                "the newest serve/engine_build has serve/engine_keyword "
                "spans only on its own tid"
            )

    if len(markers) != 1:
        problems.append(f"expected one flight/dump marker, got {len(markers)}")
    elif spans:
        latest_end = max(ns(e["ts"]) + ns(e["dur"]) for e in spans)
        gap = ns(markers[0]["ts"]) - latest_end
        print(f"flight/dump marker {gap / 1e9:.6f} s after the last span end")
        if not 0 <= gap <= MAX_MARKER_GAP_NS:
            problems.append(
                f"flight/dump marker is {gap / 1e9:.3f} s from the latest "
                "span end, not within [0, 60] s after it"
            )
    return problems


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as dump:
        problems = check(json.load(dump))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
