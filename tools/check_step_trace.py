#!/usr/bin/env python3
"""Checks the seed planning a serving trace records.

Usage: check_step_trace.py TRACE.jsonl

Both serving backends trace each served seq as one `route` span, carrying
the batch's anchors, and one `detect` span per share of its step,
carrying the anchors that share seeded: one share on a single store, one
per fragment on a coordinator. The seeds partition the anchors, each at
exactly one share, so per seq the `detect` anchors sum to the `route`'s.
Exits 0 and says how many batches it checked; exits 1 on the first
mismatch, or when the trace holds no served seq.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    route, seeded = {}, {}
    with open(argv[1], encoding="utf-8") as trace:
        for line in trace:
            span = json.loads(line)
            if span.get("stage") == "route":
                route[span["seq"]] = span["anchors"]
            elif span.get("stage") == "detect":
                seq = span["seq"]
                seeded[seq] = seeded.get(seq, 0) + span["anchors"]
    if not route or route.keys() != seeded.keys():
        print(f"route spans at seqs {sorted(route)}, detect spans at "
              f"{sorted(seeded)}", file=sys.stderr)
        return 1
    for seq, anchors in sorted(route.items()):
        if anchors != seeded[seq]:
            print(f"seq {seq}: route counted {anchors} anchor(s), the "
                  f"detect spans seeded {seeded[seq]}", file=sys.stderr)
            return 1
    print(f"seeds partition the anchors of {len(route)} batch(es)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
