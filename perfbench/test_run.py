#!/usr/bin/env python3
"""Tests of the benchmark's own logic: python3 perfbench/test_run.py

Covers the percentile rule, the self-time and paired-overhead
arithmetic, the parsing of domset-run/1 and domset-serve/1 records and
of the probe's span file, the epoch-digest cross-check and its reply
timeout, and that error_rate counts a forced failure.  Needs no build:
the failure test drives the cold-run loop with a stand-in `domset`.
"""
import json
import os
import socket
import stat
import sys
import tempfile
import textwrap
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

RUN_RECORD = {
    "schema": "domset-run/1",
    "alg": "pipeline",
    "graph": {"family": "file", "nodes": 300000, "edges": 1199744,
              "max_degree": 23},
    "result": {"integral": True, "size": 188271, "objective": 188271,
               "valid": True, "digest": "b98abee9476fc3d9"},
    "metrics": {"rounds": 48, "messages_sent": 94222014,
                "max_message_bits": 6},
    "elapsed_ms": 523.3,
}

SERVE_RECORD = {
    "schema": "domset-serve/1",
    "latency": {
        "query": {"count": 9000, "p50_ms": 0.003976, "p99_ms": 5.663048},
        "query_during_repair": {"count": 8919, "p50_ms": 0.004,
                                "p99_ms": 5.66},
        "commit": {"count": 0, "p50_ms": 0, "p99_ms": 0},
    },
    "final": {"epoch": 300, "size": 277571, "digest": "594046732c424bf7"},
    "epoch_digest_conflicts": 0,
}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        # A few hundred commits: p99 has 3 beyond, p90 has 30.
        self.assertEqual(run.highest_supported_percentile(300), (90, 30))
        self.assertEqual(run.highest_supported_percentile(1000), (99, 10))
        self.assertEqual(run.highest_supported_percentile(10000), (99.9, 10))
        self.assertEqual(run.highest_supported_percentile(99), (75, 24))
        self.assertEqual(run.highest_supported_percentile(20), (50, 10))
        self.assertEqual(run.highest_supported_percentile(15), (None, 0))

    def test_description_states_the_count(self):
        self.assertIn("p90 (30 beyond)", run.describe_tail(300))

    def test_interpolated_percentile(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile(range(1, 12), 90), 10)
        self.assertEqual(run.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_children_and_grandchildren(self):
        spans = {
            0: (-1, "commit", 0, 100),
            1: (0, "dyn.repair", 10, 30),
            2: (1, "inner", 12, 20),
            3: (0, "serve.publish", 50, 60),
            4: (-1, "other", 200, 210),
        }
        selfs = run.self_times(spans)
        self.assertEqual(selfs[0], 70)   # 100 - (20 + 10)
        self.assertEqual(selfs[1], 12)   # 20 - 8
        self.assertEqual(selfs[2], 8)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 10)

    def test_overlapping_children_count_once(self):
        spans = {0: (-1, "p", 0, 50), 1: (0, "a", 5, 25), 2: (0, "b", 20, 60)}
        self.assertEqual(run.self_times(spans)[0], 5)  # covered 5..50

    def test_commit_window_is_duration_less_self(self):
        text = "\n".join([
            "span\t0\t-1\tcommit\t0\t30000000",
            "span\t1\t0\tdyn.repair\t1000000\t3000000",
            "span\t2\t0\tdyn.snapshot\t3000000\t25000000",
            "count\tdyn.ball_nodes\t800",
            "count\tdyn.ball_nodes\t900",
            "info\tchurn.final_digest\t594046732c424bf7",
        ])
        spans, counts, info = run.parse_spans(text)
        self.assertEqual(spans[2], (0, "dyn.snapshot", 3000000, 25000000))
        self.assertEqual(counts["dyn.ball_nodes"], [800.0, 900.0])
        self.assertEqual(info["churn.final_digest"], "594046732c424bf7")
        self.assertEqual(run.self_times(spans)[0], 6000000)


class Overhead(unittest.TestCase):
    def test_differences_are_paired_by_repeat(self):
        # Repeat 1 ran on a slow host level; pairing keeps it out.
        traced = [1010.0, 1530.0, 1005.0]
        untraced = [1000.0, 1500.0, 1000.0]
        self.assertEqual(run.paired_difference(traced, untraced), 10.0)
        self.assertEqual(run.paired_difference([50, 60, 70], [10, 10, 10],
                                               [5, 5, 5]), 45)
        with self.assertRaises(ValueError):
            run.paired_difference([1, 2], [1])

    def test_spans_per_subtree(self):
        spans = {
            0: (-1, "solve_path", 0, 10), 1: (0, "graph.build", 0, 2),
            2: (0, "api.solve", 2, 9), 3: (2, "inner", 3, 4),
            4: (-1, "solve_path", 20, 30), 5: (4, "api.solve", 21, 29),
            6: (-1, "core.lp", 40, 50),
        }
        self.assertEqual(run.spans_per_subtree(spans, "solve_path"), 3.0)


class EpochCheck(unittest.TestCase):
    def test_a_digest_the_commits_never_returned_fails(self):
        tally = run.Tally()
        published = {0: "aa", 1: "bb", 2: "cc"}
        run.check_published(tally, published,
                            [(0, "aa"), (1, "bb"), (2, "cc"), (2, "cc")])
        self.assertEqual((tally.attempted, tally.failed), (4, 0))
        run.check_published(tally, published, [(1, "zz"), (3, "dd")])
        self.assertEqual((tally.attempted, tally.failed), (6, 2))
        self.assertGreater(tally.error_rate, 0)

    def test_watcher_reads_digests_then_fails_on_silence(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            path = os.path.relpath(Path(tmp) / "s.sock", run.ROOT)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(1)
            release = threading.Event()

            def serve():
                # Answers three requests, then holds the connection open
                # without replying.
                conn, _ = listener.accept()
                with conn, conn.makefile("r") as lines:
                    for _ in range(3):
                        lines.readline()
                        conn.sendall(b"ok epoch=4 size=9 digest=ab\n")
                    release.wait(10)

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            old, run.REPLY_TIMEOUT_S = run.REPLY_TIMEOUT_S, 0.3
            try:
                watcher = run.DigestWatcher(path)
                watcher.join(10)
                with self.assertRaises(RuntimeError) as caught:
                    watcher.finish()
            finally:
                run.REPLY_TIMEOUT_S = old
                release.set()
                server.join(10)
                listener.close()
            self.assertIn("no reply", str(caught.exception))
            self.assertEqual(watcher.seen, [(4, "ab")] * 3)


class Records(unittest.TestCase):
    def test_run_record(self):
        rec = run.parse_run_record(json.dumps(RUN_RECORD))
        self.assertEqual(rec, {
            "valid": True, "size": 188271, "digest": "b98abee9476fc3d9",
            "edges": 1199744, "rounds": 48, "messages_sent": 94222014,
            "max_message_bits": 6})

    def test_invalid_set_is_not_valid(self):
        bad = json.loads(json.dumps(RUN_RECORD))
        bad["result"]["valid"] = False
        self.assertFalse(run.parse_run_record(json.dumps(bad))["valid"])

    def test_serve_record(self):
        rec = run.parse_serve_record(json.dumps(SERVE_RECORD))
        self.assertEqual(rec["queries"], 9000)
        self.assertEqual(rec["query_p99_ms"], 5.663048)
        self.assertEqual(rec["query_p50_ms"], 0.003976)
        self.assertEqual(rec["conflicts"], 0)

    def test_wrong_schema_is_rejected(self):
        with self.assertRaises(ValueError):
            run.parse_run_record(json.dumps(SERVE_RECORD))
        with self.assertRaises(ValueError):
            run.parse_serve_record(json.dumps(RUN_RECORD))

    def test_protocol_replies(self):
        self.assertEqual(run.parse_reply("ok epoch=3 size=9 digest=ab\n"),
                         ("ok", {"epoch": "3", "size": "9", "digest": "ab"}))
        kind, message = run.parse_reply("err request line 2: bad atom")
        self.assertEqual(kind, "err")
        self.assertIn("bad atom", message)


class ErrorRate(unittest.TestCase):
    def test_forced_failures_are_counted(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            tmp = Path(tmp)
            # Stand-in `domset`: the first call exits 1, the second prints
            # a record whose set is invalid, the rest print a good record.
            fake = tmp / "domset"
            fake.write_text(textwrap.dedent(f"""\
                #!{sys.executable}
                import json, pathlib, sys
                calls = pathlib.Path({str(tmp / 'calls')!r})
                n = int(calls.read_text()) if calls.exists() else 0
                calls.write_text(str(n + 1))
                if n == 0:
                    sys.exit(1)
                rec = {RUN_RECORD!r}
                rec["result"]["valid"] = n != 1
                print(json.dumps(rec))
                """))
            fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
            bench = run.Bench("solve-gnp", 1, 0, tmp, fake, fake)
            walls, _, rec = bench.cold_runs(["--graph", "gnp"], 4, 0)
            tally = bench.tally
            self.assertEqual(len(walls), 3)
            self.assertTrue(rec["valid"] is False)  # the first record seen
            self.assertGreaterEqual(tally.failed, 2)
            self.assertEqual(tally.error_rate, tally.failed / tally.attempted)
            self.assertGreater(tally.error_rate, 0)
            self.assertTrue(any("exit 1" in f for f in tally.failures))
            self.assertTrue(any("not dominating" in f
                                for f in tally.failures))

    def test_clean_tally_has_zero_error_rate(self):
        tally = run.Tally()
        tally.check(True, "a", count=5)
        self.assertEqual((tally.attempted, tally.failed, tally.error_rate),
                         (5, 0, 0.0))


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
