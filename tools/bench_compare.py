#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory files.

Compares every BENCH_*.json under --current against the file of the same
name under --baseline (the artifact downloaded from the latest successful
main run) and fails when any timed metric slowed down by more than
--threshold. Metrics are the per-bench "seconds" fields; most counter
fields (violations, matches, ...) are informational and never gate.

The exception is the coordinator's residency footprint counters
(resident_edges_*, replication_measured): those are deterministic, so
growth beyond the threshold gates exactly like a slowdown -- a
replication-factor blowup is a partitioning regression even when
wall-clock stays flat. A counter present in this run but absent from
the baseline reports "new, no baseline" and passes (warn-only
bootstrap, same as a brand-new bench).

A second class of deterministic work counters (matches enumerated,
touched matches) is compared and reported but warn-only: drift there
flags an algorithmic-shape change for review without ever failing the
gate.

Rows faster than --min-seconds in the baseline are skipped: at
sub-10-millisecond scale, CI-runner jitter swamps any real signal.
Gated counters have no such floor.

Exit codes: 0 ok / baseline missing (warn-only bootstrap), 1 regression,
2 usage or malformed input.
"""

import argparse
import json
import os
import sys
from pathlib import Path


# Deterministic counters that gate on growth like a slowdown would.
GATED_COUNTERS = (
    # bench_distributed's step_104x75_f*: the edges inside the fragments'
    # residency masks after the stream, and their sum over |E|.
    "resident_edges_total",
    "resident_edges_max",
    "replication_measured",
    # The pattern groups bench_incremental's steps run units in, fixed
    # for a fixed workload: a group scanned without need is a
    # detection-cost regression even when this runner's wall-clock hides
    # it.
    "groups_scanned",
)

# Deterministic work counters that are compared and reported but never
# fail the gate: drift here means the workload or algorithm changed shape
# (more matches enumerated), which a change may well intend.
# The WARN line makes an unintended change visible in review instead of
# blocking it.
WARN_COUNTERS = (
    "matches_enumerated",
    "touched_matches",
    # Detect work per served batch (bench_incremental's step_stream_*).
    "matches_per_batch",
    "literal_evals_per_batch",
    # Full-scan work (bench_detect's detect_full_*; matches_seen also on
    # its detect_batched_* and naive rows).
    "pivots_scanned",
    "matches_seen",
    "literal_evals",
)


def load_benches(path):
    """Returns {bench name: {metric: value}} for one BENCH_*.json file.

    Every bench maps its "seconds" plus any gated counters it carries.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("benches", []):
        name = row.get("name")
        seconds = row.get("seconds")
        if name is None or not isinstance(seconds, (int, float)):
            continue
        metrics = {"seconds": float(seconds)}
        for key in GATED_COUNTERS + WARN_COUNTERS:
            if isinstance(row.get(key), (int, float)):
                metrics[key] = float(row[key])
        out[name] = metrics
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="directory holding this build's BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="directory holding the baseline BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="ignore baseline rows faster than this")
    args = parser.parse_args()

    current_files = sorted(Path(args.current).glob("BENCH_*.json"))
    if not current_files:
        print(f"error: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 2

    baseline_dir = Path(args.baseline)
    if not baseline_dir.is_dir() or not any(baseline_dir.glob("BENCH_*.json")):
        print(f"warn: no baseline under {args.baseline}; "
              "skipping the perf gate (bootstrap run)")
        return 0

    regressions = []
    lines = []
    for cur_path in current_files:
        base_path = baseline_dir / cur_path.name
        try:
            cur = load_benches(cur_path)
            base = load_benches(base_path) if base_path.exists() else {}
        except (json.JSONDecodeError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for name, base_metrics in sorted(base.items()):
            if name not in cur:
                lines.append((cur_path.name, name,
                              f"{base_metrics['seconds']:.3f}", "-", "dropped"))
                continue
            cur_metrics = cur[name]
            for key, base_v in sorted(base_metrics.items()):
                label = name if key == "seconds" else f"{name}.{key}"
                if key not in cur_metrics:
                    lines.append((cur_path.name, label, f"{base_v:.3f}", "-",
                                  "dropped"))
                    continue
                cur_v = cur_metrics[key]
                if key == "seconds" and base_v < args.min_seconds:
                    continue  # sub-jitter rows never gate
                if base_v <= 0:
                    continue  # zero baselines have no meaningful ratio
                ratio = (cur_v - base_v) / base_v
                status = "ok"
                if key in WARN_COUNTERS:
                    if abs(ratio) > args.threshold:
                        status = "WARN drift (not gated)"
                elif ratio > args.threshold:
                    status = "REGRESSION"
                    regressions.append((cur_path.name, label, base_v, cur_v,
                                        ratio))
                elif ratio < -args.threshold:
                    status = "improved"
                lines.append((cur_path.name, label, f"{base_v:.3f}",
                              f"{cur_v:.3f}", f"{ratio:+.1%} {status}"))
            for key, cur_v in sorted(cur_metrics.items()):
                if key not in base_metrics:
                    lines.append((cur_path.name, f"{name}.{key}", "-",
                                  f"{cur_v:.3f}", "new, no baseline"))
        # Benches present in this run but absent from the baseline (a new
        # bench file, or new keys in an existing one) cannot gate yet, but
        # must be visible -- they are next run's baseline.
        for name, cur_metrics in sorted(cur.items()):
            if name not in base:
                lines.append((cur_path.name, name, "-",
                              f"{cur_metrics['seconds']:.3f}",
                              "new, no baseline"))

    header = ("file", "bench", "base(s)", "cur(s)", "delta")
    widths = [max(len(str(row[i])) for row in [header] + lines)
              for i in range(5)]
    for row in [header] + lines:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write("### Perf gate\n\n")
            f.write("| " + " | ".join(header) + " |\n")
            f.write("|" + "---|" * 5 + "\n")
            for row in lines:
                f.write("| " + " | ".join(str(c) for c in row) + " |\n")
            f.write("\n")

    if regressions:
        print(f"\n{len(regressions)} metric(s) slowed down more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for file, name, base_v, cur_v, ratio in regressions:
            print(f"  {file}:{name}: {base_v:.3f} -> {cur_v:.3f} "
                  f"({ratio:+.1%})", file=sys.stderr)
        return 1
    print("\nperf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
