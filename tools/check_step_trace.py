#!/usr/bin/env python3
"""Checks the shape of the serving steps a trace records.

Usage: check_step_trace.py TRACE.jsonl

Both serving backends run one step and trace each served seq in one
shape: exactly one each of `parse` (the batch's TSV into ops), `route`
(the plan), `absorb` (the batch's one apply), `detect` (the plan's two
sides), `merge`, `render` (the feed payload, inside `merge`) and
`sync_wait` (the wait for the record's fsync). Per seq, the `detect`
span runs the write and edge units its `route` planned.
Exits 0 and says how many batches it checked; exits 1 on the first
mismatch, or when the trace holds no served seq.
"""

import json
import sys

STAGES = ("parse", "route", "absorb", "detect", "merge", "render",
          "sync_wait")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans = {}  # seq -> stage -> [span]
    with open(argv[1], encoding="utf-8") as trace:
        for line in trace:
            span = json.loads(line)
            if span.get("stage") in STAGES:
                spans.setdefault(span["seq"], {}).setdefault(
                    span["stage"], []).append(span)
    if not spans:
        print("no served seq in the trace", file=sys.stderr)
        return 1
    for seq, stages in sorted(spans.items()):
        counts = {stage: len(stages.get(stage, [])) for stage in STAGES}
        if any(n != 1 for n in counts.values()):
            print(f"seq {seq}: span counts {counts}, want one of each",
                  file=sys.stderr)
            return 1
        route, detect = stages["route"][0], stages["detect"][0]
        for units in ("write_units", "edge_units"):
            if route[units] != detect[units]:
                print(f"seq {seq}: route planned {route[units]} {units}, "
                      f"detect ran {detect[units]}", file=sys.stderr)
                return 1
    print(f"one step shape in {len(spans)} batch(es)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
