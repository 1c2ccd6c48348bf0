"""Percentiles, output checks and trace folding for the benchmark.

Every check returns the number of errors it found (0 = pass), so a
failed check counts in the run's ``failed`` total.
"""

import json
import math


class TooFewSamples(ValueError):
    pass


def percentile(values, p):
    """The p-th percentile (linear interpolation between closest ranks).

    Refuses a percentile with fewer than 10 samples beyond it: p50 needs
    20 samples, p90 needs 100.
    """
    n = len(values)
    if n * (100 - p) / 100 < 10:
        raise TooFewSamples("p%g of %d sample(s) leaves fewer than 10 beyond "
                            "it" % (p, n))
    xs = sorted(values)
    pos = (n - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    """Median of any non-empty sample (the per-run repetition medians)."""
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


# --- output checks -----------------------------------------------------------


def check_sequence(seqs, expected):
    """Errors in a subscriber's seq list against the expected list: every
    seq exactly once and in order. Counts missing, duplicated and
    out-of-order events."""
    errors = 0
    seen = set()
    for i, s in enumerate(seqs):
        if s in seen:
            errors += 1  # duplicated
        elif i and s < seqs[i - 1]:
            errors += 1  # out of order
        seen.add(s)
    errors += len(set(expected) - seen)  # missing
    errors += len(seen - set(expected))  # never acknowledged
    return errors


def event_labels(data):
    doc = json.loads(data)
    return {line["label"] for side in ("added", "removed")
            for line in doc[side]}


def filtered_expectation(events, label):
    """Seqs of the unfiltered events with a line whose pivot label is
    ``label``: exactly what a ``?label=`` subscriber must see."""
    return [seq for seq, _, data in events if label in event_labels(data)]


def diff_delta(events):
    """Sum of (added - removed) over a feed's diff events."""
    total = 0
    for _, _, data in events:
        doc = json.loads(data)
        total += len(doc["added"]) - len(doc["removed"])
    return total


def check_counts(initial, events, final_status, full_detect):
    """Two checks: the initial count plus the feed's net diff equals the
    final /status count, and that count equals a full Detect."""
    errors = 0
    if initial + diff_delta(events) != final_status:
        errors += 1
    if final_status != full_detect:
        errors += 1
    return errors


def check_discovery(pardis, seqdis, summary):
    """ParDis output equals SeqDis (rendered GFD + support multisets, as
    the test suite compares them); the process's ParCover output equals
    SeqCover (identical renderings, or mutual implication, as judged by
    pbtool); every repetition reproduced the first ParDis and ParCover
    outputs."""
    errors = 0
    if pardis != seqdis:
        errors += 1
    if not summary["cover_equivalent"]:
        errors += 1
    errors += summary["rep_mismatches"]
    return errors


# --- trace folding -----------------------------------------------------------


def p50_or_zero(values):
    """Span medians for the per-layer table; 0 when the workload never
    entered the span (e.g. ``route`` on a single-node store)."""
    return median(values) if values else 0.0


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def parse_prometheus(text):
    """``{name: {labels-string: value}}`` from Prometheus text."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name, _, labels = key.partition("{")
        out.setdefault(name, {})[labels.rstrip("}")] = float(value)
    return out


def counter_delta(before, after, name, label_filter=""):
    """Sum of a family's children (optionally those whose labels contain
    ``label_filter``) in ``after`` minus ``before``."""
    def total(m):
        return sum(v for k, v in m.get(name, {}).items()
                   if label_filter in k)
    return total(after) - total(before)


def fold_serving(spans, trace_events, trace_offset_ns, scrape_before,
                 scrape_after, load, fragments):
    """Per-layer metrics of one traced serving pass, keyed by batch seq.

    ``spans`` are pbtool's recorded spans (steady-clock ns), trace_events
    the program's own TraceLog lines (ts_ns since its first call, mapped
    onto the steady clock by ``trace_offset_ns``), the scrapes parsed
    ``/metrics`` before and after the load, ``load`` the client records.
    """
    ms = 1e-6
    by_seq = {}
    for s in spans:
        if s["name"] == "clock":
            continue
        by_seq.setdefault(s["seq"], {}).setdefault(s["name"], []).append(s)
    prog = {}
    for ev in trace_events:
        if "dur_ns" not in ev:
            continue
        end = ev["ts_ns"] + trace_offset_ns
        prog.setdefault(ev["stage"], []).append(
            {"start_ns": end - ev["dur_ns"], "end_ns": end,
             "seq": ev.get("seq", 0), "fragment": ev.get("fragment", 0)})

    acks = {seq: (t0, t1) for seq, t0, t1 in load["acks"]}
    handle, wire, lock_wait, aad, meta, mat, publish, compact_call = (
        [], [], [], [], [], [], [], [])
    publish_end = {}
    overlay = []
    for seq, names in by_seq.items():
        if seq not in acks or "handle" not in names or \
                "append_and_diff" not in names:
            continue
        h = names["handle"][0]
        a = names["append_and_diff"][0]
        after = [s for n in ("meta_write", "materialize", "maybe_compact")
                 for s in names.get(n, [])]
        handle.append((h["end_ns"] - h["start_ns"]) * ms)
        t0, t1 = acks[seq]
        wire.append(((t1 - t0) - (h["end_ns"] - h["start_ns"])) * ms)
        lock_wait.append((a["start_ns"] - h["start_ns"]) * ms)
        aad.append((a["end_ns"] - a["start_ns"]) * ms)
        overlay.append(a["value"])
        meta.extend((s["end_ns"] - s["start_ns"]) * ms
                    for s in names.get("meta_write", []))
        mat.extend((s["end_ns"] - s["start_ns"]) * ms
                   for s in names.get("materialize", []))
        compact_call.extend((s["end_ns"] - s["start_ns"]) * ms
                            for s in names.get("maybe_compact", []))
        publish.append(((h["end_ns"] - a["end_ns"]) -
                        sum(s["end_ns"] - s["start_ns"] for s in after)) * ms)
        # Publish ends where the handler's next store call begins.
        if names.get("maybe_compact"):
            publish_end[seq] = names["maybe_compact"][0]["start_ns"]

    fanout = [(ns - publish_end[seq]) * ms
              for _, events in load["live"] for seq, ns, _ in events
              if isinstance(seq, int) and seq in publish_end]

    def prog_ms(stage):
        return [(e["end_ns"] - e["start_ns"]) * ms for e in prog.get(stage, [])]

    skews = []
    per_batch = {}
    for e in prog.get("detect", []):
        per_batch.setdefault(e["seq"], []).append(e["end_ns"] - e["start_ns"])
    for durs in per_batch.values():
        if fragments > 1 and len(durs) == fragments and sum(durs):
            skews.append(max(durs) / (sum(durs) / len(durs)))
    batches = max(len(load["acks"]), 1)

    def per_batch_counter(name, label_filter=""):
        return counter_delta(scrape_before, scrape_after, name,
                             label_filter) / batches

    scanned = counter_delta(scrape_before, scrape_after,
                            "gfd_detect_groups_scanned_total")
    skipped = counter_delta(scrape_before, scrape_after,
                            "gfd_detect_groups_skipped_total")
    metrics = {
        "net.ingest_handle_ms": p50_or_zero(handle),
        "net.wire_ms": p50_or_zero(wire),
        "net.lock_wait_ms": (percentile(lock_wait, 90)
                             if len(lock_wait) >= 100 else
                             (max(lock_wait) if lock_wait else 0.0)),
        "net.fanout_ms": p50_or_zero(fanout),
        "serve.append_and_diff_ms": p50_or_zero(aad),
        "serve.store_append_ms": p50_or_zero(prog_ms("append")),
        "serve.meta_write_ms": p50_or_zero(meta),
        "serve.materialize_ms": p50_or_zero(mat),
        "serve.publish_ms": p50_or_zero(publish),
        "serve.compact_ms": p50_or_zero(prog_ms("compact")),
        "serve.compactions": counter_delta(
            scrape_before, scrape_after, "gfd_store_compactions_total"),
        "serve.fsyncs_per_batch": per_batch_counter("gfd_fsyncs_total"),
        "serve.log_bytes_per_batch": per_batch_counter(
            "gfd_log_append_bytes_total"),
        "serve.overlay_ops_mean": (sum(overlay) / len(overlay)
                                   if overlay else 0.0),
        "serve.route_ms": p50_or_zero(prog_ms("route")),
        "serve.ship_bytes_per_batch": per_batch_counter(
            "gfd_fragment_bytes_shipped"),
        "detect.incremental_ms": p50_or_zero(prog_ms("detect")),
        "detect.full_ms": p50_or_zero(prog_ms("detect_full")),
        "detect.full_path_frac": per_batch_counter(
            "gfd_detect_planner_decisions_total", 'path="full"'),
        "detect.groups_skipped_frac": (skipped / (scanned + skipped)
                                       if scanned + skipped else 0.0),
        "detect.matches_per_batch": per_batch_counter(
            "gfd_detect_matches_enumerated_total"),
        "detect.fragment_skew": p50_or_zero(skews) if skews else 1.0,
        "graph.validate_ms": p50_or_zero(prog_ms("validate")),
        "serve.maybe_compact_ms": p50_or_zero(compact_call),
    }
    # The /ingest blocking path in handler order; per batch these self
    # times partition the client's ack exactly.
    blocking = {"wire": p50_or_zero(wire), "lock_wait": p50_or_zero(lock_wait),
                "append_and_diff": metrics["serve.append_and_diff_ms"],
                "meta_write": metrics["serve.meta_write_ms"],
                "materialize": metrics["serve.materialize_ms"],
                "publish": metrics["serve.publish_ms"],
                "maybe_compact": metrics["serve.maybe_compact_ms"]}
    return metrics, blocking
