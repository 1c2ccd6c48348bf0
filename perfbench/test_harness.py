#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_harness.py

Builds the program like run.py does (into .bench_build/), then checks
that the update-stream generator is deterministic and valid, that the
percentile helper refuses under-sampled percentiles, and that every
output check fails on a doctored run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import run  # noqa: E402
import streamgen  # noqa: E402


def setUpModule():
    run.build()
    global TMP, NOISY, SMALL
    os.makedirs(run.BUILD, exist_ok=True)
    TMP = tempfile.mkdtemp(prefix="harness-test-", dir=run.BUILD)
    NOISY = os.path.join(TMP, "noisy.tsv")
    SMALL = os.path.join(TMP, "small.tsv")
    run.sh([run.GFDTOOL, "gen", NOISY, "--scale", "1000", "--seed", "42",
            "--noise", "0.05"])
    run.sh([run.GFDTOOL, "gen", SMALL, "--scale", "60", "--seed", "3"])


def tearDownModule():
    shutil.rmtree(TMP, ignore_errors=True)


def replay(batches, name):
    """Appends ``batches`` in order through GraphStore::Append."""
    paths = []
    for i, body in enumerate(batches):
        path = os.path.join(TMP, "%s-%05d.tsv" % (name, i))
        with open(path, "wb") as f:
            f.write(body)
        paths.append(path)
    return subprocess.run([run.PBTOOL, "replay", NOISY,
                           os.path.join(TMP, name + "-store"), *paths],
                          capture_output=True, text=True)


class StreamGeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        graph = streamgen.Graph(NOISY)
        a = streamgen.make_streams(graph, 7, 2, 75, 20)
        b = streamgen.make_streams(streamgen.Graph(NOISY), 7, 2, 75, 20)
        c = streamgen.make_streams(graph, 8, 2, 75, 20)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_single_producer_stream_is_valid(self):
        [stream] = streamgen.make_streams(streamgen.Graph(NOISY), 3, 1, 8,
                                          400)
        result = replay(stream, "trickle")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_two_producers_are_valid_under_any_interleaving(self):
        a, b = streamgen.make_streams(streamgen.Graph(NOISY), 5, 2, 75, 60)
        round_robin = [x for pair in zip(a, b) for x in pair]
        for name, order in (("rr", round_robin), ("ab", a + b),
                            ("ba", b + a)):
            result = replay(order, name)
            self.assertEqual(result.returncode, 0, name + result.stderr)

    def test_a_stale_delete_is_rejected(self):
        # The replay check is not vacuous: deleting an edge twice fails.
        [stream] = streamgen.make_streams(streamgen.Graph(NOISY), 3, 1, 8, 1)
        graph = streamgen.Graph(NOISY)
        edge = "E-\t%s\t%s\t%s\n" % graph.edges[0]
        result = replay([stream[0], edge.encode(), edge.encode()], "stale")
        self.assertNotEqual(result.returncode, 0)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(analysis.TooFewSamples):
            analysis.percentile(list(range(99)), 90)
        with self.assertRaises(analysis.TooFewSamples):
            analysis.percentile(list(range(19)), 50)
        self.assertEqual(analysis.percentile(list(range(20)), 50), 9.5)
        self.assertAlmostEqual(analysis.percentile(list(range(101)), 90),
                               90.0)


def fake_run():
    """A consistent serving record: 30 acked batches, one unfiltered and
    one ``?label=film`` subscriber, a replaying subscriber, counts."""
    acks, unfiltered, filtered, replayed = [], [], [], []
    count = 10
    for seq in range(1, 31):
        t0 = seq * 1000000
        acks.append((seq, t0, t0 + 500000))
        label = "film" if seq % 3 == 0 else "actor"
        added = [{"label": label}] * (seq % 2)
        removed = [{"label": "actor"}] if seq % 5 == 0 else []
        count += len(added) - len(removed)
        data = json.dumps({"seq": seq, "added": added,
                           "removed": removed}).encode()
        unfiltered.append((seq, t0 + 600000, data))
        if label == "film" and added:
            filtered.append((seq, t0 + 600000, data))
        replayed.append((seq, t0 + 700000, data))
    return {
        "load": {"acks": acks, "rejects": [], "attempts": 30,
                 "live": [("", unfiltered), ("?label=film", filtered)],
                 "replay": {"events": replayed,
                            "sessions": [{"sent_ns": 1, "target": 30,
                                          "caught_ns": 2}]}},
        "status0": {"violations": 10}, "status1": {"violations": count},
        "full_detect": count,
    }


class OutputCheckTest(unittest.TestCase):
    def failed(self, rec):
        return run.check_serving(rec)[1]

    def test_consistent_run_passes(self):
        self.assertEqual(self.failed(fake_run()), 0)

    def test_dropped_feed_event_fails(self):
        rec = fake_run()
        del rec["load"]["live"][0][1][4]
        self.assertGreater(self.failed(rec), 0)

    def test_duplicated_feed_event_fails(self):
        rec = fake_run()
        events = rec["load"]["live"][0][1]
        events.insert(5, events[4])
        self.assertGreater(self.failed(rec), 0)

    def test_out_of_order_feed_event_fails(self):
        rec = fake_run()
        events = rec["load"]["live"][0][1]
        events[3], events[4] = events[4], events[3]
        self.assertGreater(self.failed(rec), 0)

    def test_filtered_stream_missing_a_match_fails(self):
        rec = fake_run()
        del rec["load"]["live"][1][1][0]
        self.assertGreater(self.failed(rec), 0)

    def test_replay_duplicate_fails(self):
        rec = fake_run()
        events = rec["load"]["replay"]["events"]
        events.insert(2, events[1])
        self.assertGreater(self.failed(rec), 0)

    def test_off_by_one_final_count_fails(self):
        rec = fake_run()
        rec["status1"]["violations"] += 1
        self.assertGreater(self.failed(rec), 0)
        rec = fake_run()
        rec["full_detect"] -= 1
        self.assertGreater(self.failed(rec), 0)

    def test_rejected_ingest_fails(self):
        rec = fake_run()
        rec["load"]["rejects"].append((422, b"{}"))
        self.assertGreater(self.failed(rec), 0)


class DiscoveryCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = os.path.join(TMP, "discover")
        cls.summary = json.loads(run.sh(
            [run.PBTOOL, "discover", SMALL, cls.out, "--min-reps", "1"]
        ).stdout)

    def lines(self, name):
        with open(os.path.join(self.out, name), encoding="utf-8") as f:
            return f.read().splitlines()

    def check(self, pardis, summary):
        return analysis.check_discovery(pardis, self.lines("seqdis.txt"),
                                        summary)

    def test_real_run_passes(self):
        self.assertGreater(len(self.lines("pardis.txt")), 0)
        self.assertEqual(self.check(self.lines("pardis.txt"), self.summary),
                         0)

    def test_pardis_seqdis_mismatch_fails(self):
        pardis = self.lines("pardis.txt")
        self.assertGreater(self.check(pardis[1:], self.summary), 0)
        doctored = list(pardis)
        doctored[0] = doctored[0].replace("\t", "\t9", 1)
        self.assertGreater(self.check(doctored, self.summary), 0)

    def discover_against(self, reference, tag):
        return json.loads(run.sh(
            [run.PBTOOL, "discover", SMALL, os.path.join(TMP, tag),
             "--min-reps", "1", "--reference", reference]).stdout)

    def test_later_process_judges_its_own_cover(self):
        summary = self.discover_against(self.out, "discover-later")
        self.assertEqual(self.check(self.lines("pardis.txt"), summary), 0)

    def test_cover_mismatch_fails(self):
        # A SeqCover missing one GFD no longer implies the ParCover.
        doctored = os.path.join(TMP, "doctored-reference")
        os.makedirs(doctored)
        with open(os.path.join(self.out, "seqcover.gfd")) as f:
            gfds = [l for l in f if l.strip() and not l.startswith("#")]
        self.assertGreater(len(gfds), 1)
        with open(os.path.join(doctored, "seqcover.gfd"), "w") as f:
            f.writelines(gfds[1:])
        summary = self.discover_against(doctored, "discover-doctored")
        self.assertFalse(summary["cover_equivalent"])
        self.assertGreater(self.check(self.lines("pardis.txt"), summary), 0)


if __name__ == "__main__":
    unittest.main()
