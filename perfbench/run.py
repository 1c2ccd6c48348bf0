#!/usr/bin/env python3
"""The repository's benchmark: GFD discovery and the ingest -> feed
serving path, end to end, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload ingest_trickle --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a source checkout. The first run builds the program
(Release) into .bench_build/. A run then

1. generates its inputs: the YAGO2-like graph (``gfdtool gen --scale 1000
   --seed 42``, clean and with 5% noise) and, from ``--seed``, the update
   streams the producers post;
2. mines the served rules from the clean graph with ParDis + ParCover at
   4 workers and checks them against SeqDis + SeqCover;
3. sets the server up five times (store or coordinator init, ``gfdtool
   serve run``, its seeding scan) and serves the workload's closed-loop
   load over loopback HTTP, a fixed number of batches sized to take
   about ``--seconds``;
4. checks every output and prints each metric with its unit and sample
   count, then one JSON result line.

With ``--trace 1`` the run then times discovery (three processes of
``--seconds / 12``), runs it once more with its stats, serves the same
stream again through ``pbtool serve`` (``gfdtool serve run``'s wiring
behind a recording store), and prints the per-layer table folded from
the spans, the program's trace and ``/metrics``.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import loadgen  # noqa: E402
import streamgen  # noqa: E402

# Build outputs go where CARGO_TARGET_DIR points (relative to the
# checkout), .bench_build by default.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(BUILD, "run")
GFDTOOL = os.path.join(BUILD, "gfd", "tools", "gfdtool")
PBTOOL = os.path.join(BUILD, "pbtool")

GRAPH = {"scale": 1000, "seed": 42, "noise": 0.05}
SETUPS = 5
# p90 needs 100 samples (10 beyond it); every run posts at least this
# many batches.
MIN_BATCHES = 120
# The traced run times discovery in DISCOVER_PROCESSES processes of
# --seconds / DISCOVER_SHARE each (at least 3 repetitions each).
DISCOVER_PROCESSES = 3
DISCOVER_SHARE = 12

# Why each workload exists is recorded in README.md and BENCHMARK.json.
# Both serve at `gfdtool serve run`'s default -w 1: at -w 4 the same bulk
# stream acked at p50 305-478 ms across five alternating passes against
# 217-254 ms at -w 1 -- slower, and too sensitive to the shared host to
# hold a regression bound.
WORKLOADS = {
    "ingest_trickle": {
        "fragments": 0, "producers": 1, "batch_ops": 8,
        "live": ["", "?label=film"], "replay_gap": 0, "rate": 9.5,
        "passes": 1,
    },
    "ingest_bulk": {
        "fragments": 4, "producers": 2,
        "batch_ops": 75, "live": [""], "replay_gap": 3, "rate": 9.0,
        # Two writers interleave by timing, and the adaptive planner's
        # choices follow, so one pass settles into a regime: the same
        # stream acked at p50 154, 193 and 229 ms in three runs. The run
        # pools three passes over fresh stores to average regimes.
        "passes": 3,
    },
}

# Every serving metric a run measures and prints. The ones steady enough
# on a shared host to carry a regression bound are BENCHMARK.json's
# end_to_end list; the rest are reported by the traced run (its
# per_layer list).
SERVING = [
    ("ack_p50_ms", "ms"), ("ack_p90_ms", "ms"), ("deliver_p50_ms", "ms"),
    ("deliver_p90_ms", "ms"), ("batches_per_s", "batches/s"),
    ("catchup_p50_ms", "ms"), ("setup_s", "s"), ("setup_rss_mb", "MB"),
]


def sh(cmd):
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


# --- build --------------------------------------------------------------------


def build():
    """Configures (Release) and builds gfdtool and pbtool; refuses any
    build that is not an optimized, unsanitized Release build."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no program sources at %s/src"
                         % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count()),
                    "--target", "gfdtool", "pbtool"],
                   check=True, stdout=sys.stderr)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    info = json.loads(sh([PBTOOL, "buildinfo"]).stdout)
    bad = [flag for flag in ("GFD_SANITIZE", "GFD_SANITIZE_ADDRESS",
                             "GFD_SANITIZE_THREAD")
           if re.search(r"^%s:BOOL=ON$" % flag, cache, re.M)]
    if (info["build_type"] != "Release" or info["sanitizer"] != "none" or
            not info["ndebug"] or bad):
        raise SystemExit("perfbench: refusing to report numbers from a %s "
                         "build (sanitizer %s %s)" %
                         (info["build_type"], info["sanitizer"], bad))
    return info


def environment(info):
    try:
        sha = sh(["git", "-C", ROOT, "rev-parse", "HEAD"]).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        sha = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "compiler": info["compiler"],
            "build_type": info["build_type"], "git_sha": sha}


# --- inputs -------------------------------------------------------------------


def make_inputs():
    inputs = os.path.join(WORK, "inputs")
    os.makedirs(inputs)
    clean = os.path.join(inputs, "clean.tsv")
    noisy = os.path.join(inputs, "noisy.tsv")
    common = ["--scale", str(GRAPH["scale"]), "--seed", str(GRAPH["seed"])]
    sh([GFDTOOL, "gen", clean, *common])
    sh([GFDTOOL, "gen", noisy, *common, "--noise", str(GRAPH["noise"])])
    return clean, noisy


# --- discovery ------------------------------------------------------------------


def discover(clean, seconds, min_reps, traced, tag, reference=None):
    """One discovery process: an untimed first repetition whose outputs
    are checked, then ``min_reps`` or more timed ones. ``reference`` is
    None for the run's first process, which also runs SeqDis + SeqCover;
    later processes pass that first summary and are checked against its
    outputs (pbtool reads its SeqCover back for the cover check)."""
    out = os.path.join(WORK, "discover-" + tag)
    cmd = [PBTOOL, "discover", clean, out, "--seconds", str(seconds),
           "--min-reps", str(min_reps)]
    if traced:
        cmd.append("--stats")
    ref_dir = reference["dir"] if reference else out
    if reference:
        cmd += ["--reference", ref_dir]
    summary = json.loads(sh(cmd).stdout)

    def lines(path, name):
        with open(os.path.join(path, name), encoding="utf-8") as f:
            return f.read().splitlines()
    summary["errors"] = analysis.check_discovery(
        lines(out, "pardis.txt"), lines(ref_dir, "seqdis.txt"), summary)
    summary["dir"] = out
    summary["rules"] = os.path.join(out, "rules.gfd")
    return summary


# --- serving --------------------------------------------------------------------


class Server:
    """One server process; ``stop()`` terminates it and waits. Servers
    still running when the command exits are stopped then."""

    running = set()

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        Server.running.add(self)
        self.banner = []
        self.port = None
        for line in self.proc.stderr:
            self.banner.append(line)
            m = re.search(r"on http://127\.0\.0\.1:(\d+)", line)
            if m:
                self.port = int(m.group(1))
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("server did not start: " + "".join(self.banner))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        Server.running.discard(self)


def start_untraced(wl, noisy, rules, store):
    """Store init + ``gfdtool serve run`` until it accepts requests."""
    if wl["fragments"]:
        sh([GFDTOOL, "serve", "init", store, noisy, "--fragments",
            str(wl["fragments"])])
    else:
        sh([GFDTOOL, "log", "init", store, noisy])
    server = Server([GFDTOOL, "serve", "run", store, rules, "--port", "0"])
    loadgen.get(server.port, "/status")
    return server


def start_traced(wl, noisy, rules, store, spans, trace):
    cmd = [PBTOOL, "serve", store, rules, "--graph", noisy, "--spans",
           spans, "--trace", trace]
    if wl["fragments"]:
        cmd += ["--fragments", str(wl["fragments"])]
    server = Server(cmd)
    loadgen.get(server.port, "/status")
    return server


def set_up(wl, noisy, rules, tag, traced=False, setups=SETUPS):
    """Sets the server up ``setups`` times, stopping all but the last,
    which is returned in the record for ``serve`` to load."""
    rec = {"setup_s": [], "setup_rss_mb": [], "traced": traced}
    for i in range(setups):
        store = os.path.join(WORK, "%s-store-%d" % (tag, i))
        t0 = time.monotonic()
        if traced:
            rec["spans"] = os.path.join(WORK, tag + "-spans.jsonl")
            rec["trace"] = os.path.join(WORK, tag + "-trace.jsonl")
            server = start_traced(wl, noisy, rules, store, rec["spans"],
                                  rec["trace"])
        else:
            server = start_untraced(wl, noisy, rules, store)
        rec["setup_s"].append(time.monotonic() - t0)
        rec["setup_rss_mb"].append(server.peak_rss_mb())
        if i + 1 < setups:
            server.stop()
            shutil.rmtree(store)
    rec.update(server=server, store=store, rules=rules)
    return rec


def serve(wl, rec, streams, seconds):
    """Runs the load against the set-up server, stops it, and adds the
    raw records the checks and metrics read to ``rec``."""
    server = rec.pop("server")
    try:
        port = server.port
        rec["status0"] = json.loads(loadgen.get(port, "/status")[1])
        rec["scrape0"] = loadgen.get(port, "/metrics")[1].decode()
        rec["load"] = loadgen.run_load(port, streams, 3 * seconds,
                                       wl["live"], wl["replay_gap"])
        rec["status1"] = json.loads(loadgen.get(port, "/status")[1])
        rec["scrape1"] = loadgen.get(port, "/metrics")[1].decode()
        rec["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    rec["banner"] = "".join(server.banner)
    rec["full_detect"] = json.loads(
        sh([PBTOOL, "count", rec["store"], rec["rules"]]).stdout)["violations"]
    if rec["traced"]:
        rec["spans"] = analysis.read_jsonl(rec["spans"])
        rec["trace"] = analysis.read_jsonl(rec["trace"])
    return rec


def check_serving(rec):
    """Runs every serving output check; returns (attempted, failed)."""
    load = rec["load"]
    acked = sorted(seq for seq, _, _ in load["acks"])
    attempted = load["attempts"]
    failed = len(load["rejects"])
    unfiltered = None
    for query, events in load["live"]:
        diffs = [e for e in events if e[0] != "evicted"]
        failed += len(events) - len(diffs)  # evictions
        if not query:
            unfiltered = diffs
    for query, events in load["live"]:
        diffs = [e for e in events if e[0] != "evicted"]
        if query:
            label = query.split("=", 1)[1]
            expected = analysis.filtered_expectation(unfiltered, label)
        else:
            expected = acked
        attempted += len(expected)
        failed += analysis.check_sequence([e[0] for e in diffs], expected)
    replay = load["replay"]
    seqs = [e[0] for e in replay["events"] if e[0] != "evicted"]
    failed += len(replay["events"]) - len(seqs)
    attempted += len(seqs) + len(replay["sessions"])
    failed += analysis.check_sequence(
        seqs, list(range(1, (seqs[-1] if seqs else 0) + 1)))
    failed += sum(1 for s in replay["sessions"] if s["caught_ns"] is None)
    attempted += 2
    failed += analysis.check_counts(rec["status0"]["violations"], unfiltered,
                                    rec["status1"]["violations"],
                                    rec["full_detect"])
    return attempted, failed


def serve_passes(wl, noisy, rules, passes, seconds):
    """Serves each pass's streams on a freshly set-up server; the first
    pass also takes the extra setups that make SETUPS in all."""
    recs = []
    for k, streams in enumerate(passes):
        setups = SETUPS - len(passes) + 1 if k == 0 else 1
        rec = set_up(wl, noisy, rules, "untraced%d" % k, setups=setups)
        recs.append(serve(wl, rec, streams, seconds / len(passes)))
    return recs


def serving_metrics(recs):
    """End-to-end serving metrics over all passes, with sample counts."""
    ack_ms, deliver_ms, catchup_ms = [], [], []
    batches, active_s = 0, 0.0
    for rec in recs:
        load = rec["load"]
        send = {seq: t0 for seq, t0, _ in load["acks"]}
        ack_ms += [(t1 - t0) / 1e6 for _, t0, t1 in load["acks"]]
        deliver_ms += [(ns - send[seq]) / 1e6 for _, events in load["live"]
                       for seq, ns, _ in events if seq in send]
        catchup_ms += [(s["caught_ns"] - s["sent_ns"]) / 1e6
                       for s in load["replay"]["sessions"]
                       if s["caught_ns"] is not None]
        batches += len(load["acks"])
        active_s += load["active_s"]
    setup_s = [t for rec in recs for t in rec["setup_s"]]
    setup_rss = [m for rec in recs for m in rec["setup_rss_mb"]]
    p = analysis.percentile
    return {
        "ack_p50_ms": (p(ack_ms, 50), len(ack_ms)),
        "ack_p90_ms": (p(ack_ms, 90), len(ack_ms)),
        "deliver_p50_ms": (p(deliver_ms, 50), len(deliver_ms)),
        "deliver_p90_ms": (p(deliver_ms, 90), len(deliver_ms)),
        "batches_per_s": (batches / active_s, batches),
        # 0 on a workload without a replaying subscriber.
        "catchup_p50_ms": (p(catchup_ms, 50) if catchup_ms else 0.0,
                           len(catchup_ms)),
        "setup_s": (analysis.median(setup_s), len(setup_s)),
        "setup_rss_mb": (analysis.median(setup_rss), len(setup_rss)),
    }


def make_passes(wl, noisy, seed, seconds):
    """A fixed amount of work per run -- the workload's batch rate on a
    4-vCPU reference machine times ``seconds`` -- as one list of
    per-producer streams per pass. Each pass starts from the base graph,
    so each gets its own streams (seeded from ``seed`` and the pass)."""
    graph = streamgen.Graph(noisy)
    batches = max(MIN_BATCHES, round(wl["rate"] * seconds))
    per_producer = batches // wl["producers"] // wl["passes"]
    return [streamgen.make_streams(graph, seed * 100 + k, wl["producers"],
                                   wl["batch_ops"], per_producer)
            for k in range(wl["passes"])]


# --- per-layer table --------------------------------------------------------------


def traced_layers(wl, rec, untraced_ack_p50, disc, untraced_discover_s):
    m, blocking = analysis.fold_serving(
        rec["spans"], rec["trace"], rec["spans"][0]["trace_offset_ns"],
        analysis.parse_prometheus(rec["scrape0"]),
        analysis.parse_prometheus(rec["scrape1"]), rec["load"],
        max(wl["fragments"], 1))
    banner = re.search(r"init_s (\S+) prime_s (\S+)", rec["banner"])
    m["serve.init_s"] = float(banner.group(1))
    m["detect.prime_s"] = float(banner.group(2))
    m["trace.blocking_sum_ms"] = sum(blocking.values())
    m["trace.residual_ms"] = untraced_ack_p50 - m["trace.blocking_sum_ms"]
    traced_ack = analysis.percentile(
        [(t1 - t0) / 1e6 for _, t0, t1 in rec["load"]["acks"]], 50)
    m["trace.ack_overhead_ms"] = traced_ack - untraced_ack_p50
    pardis = analysis.median(disc["pardis_s"])
    m.update({
        "graph.load_s": disc["load_s"],
        "parallel.pardis_s": pardis,
        "parallel.parcover_s": analysis.median(disc["parcover_s"]),
        "parallel.match_s": disc["match_s"],
        "parallel.validate_s": disc["validate_s"],
        "parallel.max_skew": disc["max_skew"],
        "parallel.bytes_shipped_mb": disc["bytes_shipped"] / 2**20,
        "parallel.speedup": disc["seqdis_s"] / pardis,
        "parallel.peak_rss_mb": disc["peak_rss_kb"] / 1024.0,
        "core.seqdis_s": disc["seqdis_s"],
        "core.candidates_validated": disc["candidates_validated"],
        "core.candidate_yield": ((disc["positives"] + disc["negatives"]) /
                                 max(disc["candidates_validated"], 1)),
        "core.implication_tests": disc["implication_tests"],
        "trace.discover_overhead_s": (analysis.median(disc["discover_s"]) -
                                      untraced_discover_s),
    })
    return m


def metric_spec(kind):
    """(name, unit) of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics: the ones a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


# --- main ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    info = build()
    env = environment(info)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    clean, noisy = make_inputs()
    passes = make_passes(wl, noisy, args.seed, args.seconds)

    # The served rules: one ParDis + ParCover at 4 workers, checked
    # against SeqDis + SeqCover.
    disc = discover(clean, 0, 0, False, "rules")
    attempted, failed = 2, disc["errors"]
    recs = serve_passes(wl, noisy, disc["rules"], passes, args.seconds)
    for rec in recs:
        a, f = check_serving(rec)
        attempted += a
        failed += f
    measured = serving_metrics(recs)

    print("env: " + json.dumps(env))
    print("workload %s seed %d: %d batches acked, %d rule(s) served, "
          "%d of %d operations failed" %
          (args.workload, args.seed, measured["batches_per_s"][1],
           disc["cover"], failed, attempted))
    print("%-18s %14s %-10s %8s" % ("metric", "value", "unit", "samples"))
    for name, unit in SERVING:
        value, n = measured[name]
        print("%-18s %14.4f %-10s %8d" % (name, value, unit, n))
    print("%-18s %14.4f %-10s %8d" % ("fail_frac", failed / attempted,
                                      "fraction", attempted))

    if args.trace:
        budget = args.seconds / DISCOVER_SHARE
        timed = [discover(clean, budget, 3, False, "timed%d" % i, disc)
                 for i in range(DISCOVER_PROCESSES)]
        disc_t = discover(clean, budget, 3, True, "traced")
        # The traced pass serves the first pass's streams.
        trec = serve(wl, set_up(wl, noisy, disc["rules"], "traced",
                                traced=True, setups=1),
                     passes[0], args.seconds / len(passes))
        for d in timed + [disc_t]:
            attempted += len(d["discover_s"]) + 2
            failed += d["errors"]
        a, f = check_serving(trec)
        attempted += a
        failed += f
        discover_s = analysis.median(
            [t for d in timed for t in d["discover_s"]])
        layers = traced_layers(wl, trec, measured["ack_p50_ms"][0], disc_t,
                               discover_s)
        layers.update({name: measured[name][0] for name, _ in SERVING})
        layers["discover_s"] = discover_s
        layers["serve.load_peak_rss_mb"] = max(r["peak_rss_mb"]
                                               for r in recs)
        spec = metric_spec("per_layer")
        print("\nper-layer (traced run, %d batches)" %
              len(trec["load"]["acks"]))
        for name, unit in spec:
            print("  %-30s %14.4f %s" % (name, layers[name], unit))
        print("  blocking-path self times sum to %.3f ms of the untraced "
              "ack_p50 %.3f ms: residual %.3f ms; tracing overhead %+.3f ms "
              "(ack_p50), %+.4f s (discover_s)" %
              (layers["trace.blocking_sum_ms"], measured["ack_p50_ms"][0],
               layers["trace.residual_ms"], layers["trace.ack_overhead_ms"],
               layers["trace.discover_overhead_s"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spec}
    else:
        metrics = {name: {"value": measured[name][0], "unit": unit}
                   for name, unit in metric_spec("end_to_end")}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    finally:
        for server in list(Server.running):
            server.stop()
