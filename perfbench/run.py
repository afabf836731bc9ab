#!/usr/bin/env python3
"""The repository benchmark: cold solves from file and serving under churn.

Usage (from the repository root):
    python3 perfbench/run.py --workload solve-gnp --seed 3 --seconds 15 --trace 0

Workloads (all inputs generated from --seed, nothing downloaded):
    solve-gnp       cold `domset run --alg pipeline --k 3 --threads 4` on
                    G(n=300k, p=8/n) mmap-loaded from a .dcsr file
    solve-ba-text   the same command on BA(n=300k, m=3) parsed from a text
                    edge list with --parse-threads 4
    serve-ba-churn  `domset serve` on BA(n=300k, m=3), --frontier-cap 32,
                    3 `domset load` query clients plus one mutator
                    committing every 8 hub-biased mutations

--trace 0 times the shipped `domset` binary and prints the end-to-end
metrics; --trace 1 also runs perfbench_probe, which times calls into each
layer, and prints the per-layer metrics.  Either way the last stdout line
is one JSON object {correct, attempted, failed, metrics}.  Every output is
checked (valid sets, stable digests, fixture digests, zero epoch-digest
conflicts, served digest == offline replay); a failed check exits 1.

The programs are built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

N = "300000"
GNP = ["--graph", "gnp", "--n", N]
BA = ["--graph", "ba", "--n", N, "--m", "3"]
# The cold-solve command of the solve workloads.
SOLVE_K, SOLVE_THREADS = "3", "4"
PARSE_THREADS = "4"
# The served solver: the pipeline with the CLI's default k and threads.
SERVE_K, SERVE_THREADS = "2", "1"
SERVE_SOLVER = ["--alg", "pipeline", "--k", SERVE_K, "--threads", SERVE_THREADS]
FRONTIER_CAP = "32"
BATCH = 8
QUERY_CLIENTS = 3
# Queries per client per second of churn: the one `domset load` process
# is sized to last about as long as the churn window.
QUERIES_PER_S = 3000
# The churn stops committing after this many commits, so a faster server
# cannot push the offline replay check past the run's time limit.
MAX_COMMITS = 1000
LOG_MUTATIONS = 16000
# The harness's own epoch check reads `query digest` this often.
WATCH_INTERVAL_S = 0.01
# A server that is not ready, or a reply that does not come, within this
# long fails the run instead of hanging it.
READY_TIMEOUT_S = 60
REPLY_TIMEOUT_S = 60
SETUP_REPEATS = 5
SERVE_COLD_RUNS = 20
MIN_COLD_RUNS = 5
TRACE_REPEATS = 3
# A span-record percentile is only reported where at least this many
# samples lie beyond it.
TAIL_SAMPLES = 10

WORKLOADS = ("solve-gnp", "solve-ba-text", "serve-ba-churn")


# ------------------------------------------------------------ statistics

def percentile(values, p):
    """Linear-interpolated percentile (0 <= p <= 100) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(count, p):
    """How many of `count` samples lie strictly above the p-th percentile."""
    return count - math.ceil(count * p / 100.0)


def highest_supported_percentile(count, candidates=(99.9, 99, 90, 75, 50)):
    """The highest candidate percentile with >= TAIL_SAMPLES samples beyond
    it, and that number of samples; (None, 0) when even p50 has too few."""
    for p in candidates:
        beyond = samples_beyond(count, p)
        if beyond >= TAIL_SAMPLES:
            return p, beyond
    return None, 0


def self_times(spans):
    """Self time of every span: its duration minus the part of it covered
    by its children.  `spans` maps id -> (parent, name, start, end)."""
    children = {}
    for sid, (parent, _, start, end) in spans.items():
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, _, start, end) in spans.items():
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def parse_spans(text):
    """Reads perfbench_probe's span file: spans, counters and info."""
    spans, counts, info = {}, {}, {}
    for line in text.splitlines():
        kind, *f = line.split("\t")
        if kind == "span":
            spans[int(f[0])] = (int(f[1]), f[2], int(f[3]), int(f[4]))
        elif kind == "count":
            counts.setdefault(f[0], []).append(float(f[1]))
        elif kind == "info":
            info[f[0]] = f[1]
        else:
            raise ValueError(f"unknown span-file record {kind!r}")
    return spans, counts, info


# ------------------------------------------------------------ records

def parse_run_record(text):
    """The facts the benchmark takes from a domset-run/1 record."""
    rec = json.loads(text)
    if rec.get("schema") != "domset-run/1":
        raise ValueError(f"not a domset-run/1 record: {rec.get('schema')!r}")
    result, metrics = rec["result"], rec["metrics"]
    return {
        "valid": bool(result["valid"]) and bool(result["integral"]),
        "size": int(result["size"]),
        "digest": result["digest"],
        "edges": int(rec["graph"]["edges"]),
        "rounds": int(metrics["rounds"]),
        "messages_sent": int(metrics["messages_sent"]),
        "max_message_bits": int(metrics["max_message_bits"]),
    }


def parse_serve_record(text):
    """The facts the benchmark takes from a domset-serve/1 record."""
    rec = json.loads(text)
    if rec.get("schema") != "domset-serve/1":
        raise ValueError(f"not a domset-serve/1 record: {rec.get('schema')!r}")
    query = rec["latency"]["query"]
    return {
        "queries": int(query["count"]),
        "query_p50_ms": float(query["p50_ms"]),
        "query_p99_ms": float(query["p99_ms"]),
        "conflicts": int(rec["epoch_digest_conflicts"]),
    }


def parse_reply(line):
    """A domset-serve/1 protocol reply: ("ok", {key: value}) or
    ("err", message)."""
    line = line.rstrip("\n")
    if line.startswith("ok"):
        return "ok", dict(kv.split("=", 1) for kv in line.split()[1:])
    return "err", line


class Tally:
    """Operations attempted and failed; every correctness gate is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def check_published(tally, published, seen):
    """Every (epoch, digest) a reader saw must be the digest `published`
    (epoch -> digest, from the commit replies) gives that epoch."""
    for epoch, digest in seen:
        tally.check(published.get(epoch) == digest,
                    f"query digest saw epoch {epoch} with digest {digest}; "
                    f"its commit returned {published.get(epoch)}")


# ------------------------------------------------------------ processes

class Proc:
    """A child process whose stdout/stderr go to new files in the work
    directory; wait() reaps it with its resource usage."""

    live = []
    started = 0

    def __init__(self, cmd, work, name, pipe_stdout=False):
        # A fresh file per process, never truncating one under writeback.
        Proc.started += 1
        name = f"{name}-{Proc.started}"
        self.out_path = work / f"{name}.out"
        self.err_path = work / f"{name}.err"
        self.err = open(self.err_path, "wb")
        self.out = None if pipe_stdout else open(self.out_path, "wb")
        self.start = time.perf_counter()
        self.p = subprocess.Popen(
            [str(c) for c in cmd], cwd=ROOT, stderr=self.err,
            stdout=subprocess.PIPE if pipe_stdout else self.out,
            text=pipe_stdout)
        self.returncode = None
        self.wall_s = None
        self.rss_mb = None
        Proc.live.append(self)

    def poll(self):
        """True once the process has ended (reaping it)."""
        if self.returncode is None:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid:
                self._reaped(status, ru)
        return self.returncode is not None

    def wait(self, timeout=170):
        if self.returncode is None:
            killer = threading.Timer(timeout, self.p.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(self.p.pid, 0)
            finally:
                killer.cancel()
            self._reaped(status, ru)
        return self.returncode

    def _reaped(self, status, ru):
        self.wall_s = time.perf_counter() - self.start
        self.returncode = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.returncode
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.close()

    def close(self):
        for f in (self.out, self.err, self.p.stdout):
            if f is not None:
                f.close()
        if self in Proc.live:
            Proc.live.remove(self)

    def stdout_text(self):
        return self.out_path.read_text()

    def stderr_text(self):
        return self.err_path.read_text(errors="replace")

    @classmethod
    def stop_all(cls):
        for proc in list(cls.live):
            if not proc.poll():
                proc.p.kill()
                proc.wait()


def run(cmd, work, name, timeout=170):
    proc = Proc(cmd, work, name)
    proc.wait(timeout)
    return proc


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds domset + perfbench_probe; exits 2 on failure
    without printing a result."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    with open(log, "ab") as f:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                (out / "Makefile").unlink(missing_ok=True)
                tail = log.read_text(errors="replace")[-2000:]
                sys.exit(f"perfbench: build failed ({' '.join(step)}):\n{tail}")
    return out / "domset" / "domset", out / "perfbench_probe"


# ------------------------------------------------------------ workloads

class Bench:
    def __init__(self, workload, seed, seconds, work, domset, probe):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tally = Tally()
        self.domset, self.probe = domset, probe
        self.notes = []
        digests = json.loads((HERE / "fixture_digests.json").read_text())
        self.expected_digests = digests["graphs"]
        self.family = "gnp" if workload == "solve-gnp" else "ba"
        self.graph_flags = GNP if self.family == "gnp" else BA

    def note(self, text):
        self.notes.append(text)

    # -- fixtures ---------------------------------------------------------

    def check_graph_digest(self, digest, what):
        """Each fixture's digest must be stable, and match the recorded one
        when the seed is in perfbench/fixture_digests.json."""
        expected = self.expected_digests[self.family].get(str(self.seed))
        self.tally.check(expected in (None, digest),
                         f"{what}: graph digest {digest} != recorded "
                         f"{expected}")
        if not hasattr(self, "graph_digest"):
            self.graph_digest = digest
            self.note(f"graph {self.family} seed {self.seed} digest {digest}")
        self.tally.check(digest == self.graph_digest,
                         f"{what}: graph digest {digest} drifted from "
                         f"{self.graph_digest}")

    def gen(self, name):
        path = self.work / f"{name}.txt"
        proc = run([self.domset, "gen", *self.graph_flags, "--seed", self.seed,
                    "--out", path], self.work, f"gen-{name}")
        ok = self.tally.check(proc.returncode == 0, f"domset gen exit "
                              f"{proc.returncode}: {proc.stderr_text()[-300:]}")
        if ok:
            self.check_graph_digest(proc.stderr_text().split("digest ")[-1]
                                    .strip(), "domset gen")
        return path, proc.wall_s

    def convert(self, text, dcsr):
        proc = run([self.domset, "convert", "--in", text, "--out", dcsr,
                    "--verify"], self.work, "convert")
        ok = self.tally.check(proc.returncode == 0, f"domset convert exit "
                              f"{proc.returncode}: {proc.stderr_text()[-300:]}")
        if ok:
            self.check_graph_digest(proc.stdout_text().split()[-1],
                                    "domset convert")
        return proc.wall_s

    def solve_input(self, setup_repeats):
        """The workload's graph flags as the solve command reads them
        (`--seed` goes on separately), and the set-up samples in seconds:
        convert for the .dcsr input, gen for the text input.  Every
        repeat writes a new file: overwriting one still being written back
        to disk stalls on the writeback and times the disk, not the code."""
        if self.workload == "solve-gnp":
            text, _ = self.gen("graph")
            setup = [self.convert(text, self.work / f"graph-{i}.dcsr")
                     for i in range(setup_repeats)]
            return ["--graph", "file", "--path", self.work / "graph-0.dcsr"], \
                setup
        if self.workload == "solve-ba-text":
            setup = [self.gen(f"graph-{i}")[1] for i in range(setup_repeats)]
            return (["--graph", "file", "--path", self.work / "graph-0.txt",
                     "--parse-threads", PARSE_THREADS], setup)
        return BA, []

    def solver_config(self):
        """(k, threads) of the workload's cold solve."""
        if self.workload == "serve-ba-churn":
            return SERVE_K, SERVE_THREADS
        return SOLVE_K, SOLVE_THREADS

    def solver_flags(self):
        k, threads = self.solver_config()
        return ["--alg", "pipeline", "--k", k, "--threads", threads]

    # -- cold solves ------------------------------------------------------

    def cold_runs(self, graph_args, min_runs, seconds):
        """Cold `domset run` processes until `seconds` have passed (at
        least `min_runs`).  Returns (wall_ms list, rss_mb list, record)."""
        walls, rss, first, attempts = [], [], None, 0
        deadline = time.monotonic() + seconds
        while attempts < min_runs or time.monotonic() < deadline:
            attempts += 1
            proc = run([self.domset, "run", *self.solver_flags(), *graph_args,
                        "--seed", self.seed, "--json"], self.work, "run")
            if not self.tally.check(proc.returncode == 0,
                                    f"domset run exit {proc.returncode}: "
                                    f"{proc.stderr_text()[-300:]}"):
                continue
            rec = parse_run_record(proc.stdout_text())
            self.tally.check(rec["valid"], "domset run: set not dominating")
            if first is None:
                first = rec
            self.tally.check(rec == first, f"domset run: output changed "
                             f"between repeats ({rec} != {first})")
            walls.append(proc.wall_s * 1000.0)
            rss.append(proc.rss_mb)
            if attempts >= 400:
                break
        if first is None:
            raise RuntimeError("no cold run succeeded")
        return walls, rss, first

    # -- serving ----------------------------------------------------------

    def mutation_log(self, graph_args):
        path = self.work / "mutations.log"
        proc = run([self.probe, "mutlog", *graph_args, "--seed", self.seed,
                    "--mutations", LOG_MUTATIONS, "--batch", BATCH,
                    "--bias", "hub", "--out", path], self.work, "mutlog")
        if not self.tally.check(proc.returncode == 0, "perfbench_probe mutlog "
                                f"exit {proc.returncode}: "
                                f"{proc.stderr_text()[-300:]}"):
            raise RuntimeError("mutation log generation failed")
        self.check_graph_digest(proc.stdout_text().split()[-1], "mutlog")
        atoms = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")]
        return atoms

    def spawn_server(self, graph_args):
        """Starts `domset serve`; returns (proc, setup seconds, epoch-0
        digest) once the socket is ready."""
        sock = self.work / "s.sock"
        proc = Proc([self.domset, "serve", "--socket", sock, *SERVE_SOLVER,
                     *graph_args, "--seed", self.seed,
                     "--frontier-cap", FRONTIER_CAP],
                    self.work, "serve", pipe_stdout=True)
        killer = threading.Timer(READY_TIMEOUT_S, proc.p.kill)
        killer.start()
        try:
            line = proc.p.stdout.readline()
        finally:
            killer.cancel()
        ready_s = time.perf_counter() - proc.start
        if not line.startswith("serving "):
            proc.wait()
            raise RuntimeError(f"domset serve did not start: "
                               f"{proc.stderr_text()[-300:]}")
        fields = dict(kv.split("=", 1) for kv in line.split()[1:])
        return proc, ready_s, fields["digest"]

    def stop_server(self, proc):
        """Sends shutdown; returns the server's final-epoch line."""
        client = LineClient(self.work / "s.sock")
        self.tally.check(client.ask("shutdown")[0] == "ok", "shutdown refused")
        client.close()
        rest = proc.p.stdout.read()
        self.tally.check(proc.wait() == 0, f"domset serve exit "
                         f"{proc.returncode}: {proc.stderr_text()[-300:]}")
        return rest

    def setup_server(self, graph_args, spawns):
        """Spawns the server `spawns` times (the set-up samples) and keeps
        the last one; the epoch-0 digest must not change between spawns.
        Returns (server, set-up seconds, epoch-0 digest)."""
        setup, digests = [], set()
        for i in range(spawns):
            proc, ready_s, digest = self.spawn_server(graph_args)
            setup.append(ready_s)
            digests.add(digest)
            if i + 1 < spawns:
                self.stop_server(proc)
        self.tally.check(len(digests) == 1,
                         f"epoch-0 digest differs between spawns: {digests}")
        return proc, setup, digest

    def load_process(self, graph_args, seconds):
        """The `domset load` process running the query clients only, sized
        to last about `seconds`."""
        queries = max(1, round(QUERIES_PER_S * seconds))
        return Proc([self.domset, "load", "--socket", self.work / "s.sock",
                     *graph_args, "--seed", self.seed, "--clients",
                     QUERY_CLIENTS, "--queries", queries,
                     "--mutations", 0, "--json"], self.work, "load")

    def finish_load(self, load):
        """The process's domset-serve/1 facts, or None if it failed."""
        if not self.tally.check(load.wait() == 0, f"domset load exit "
                                f"{load.returncode}: "
                                f"{load.stderr_text()[-300:]}"):
            return None
        rec = parse_serve_record(load.stdout_text())
        self.tally.check(rec["conflicts"] == 0,
                         f"{rec['conflicts']} epoch-digest conflicts")
        # Queries are operations too; a refused one fails `domset load`.
        self.tally.check(True, "queries", count=rec["queries"])
        return rec

    def churn(self, server, graph_args, atoms, epoch0_digest, seconds):
        """This process is the mutator: it streams `atoms` to `server`,
        committing every BATCH and timing each commit round trip, for as
        long as one `domset load` process, sized to about `seconds`, keeps
        QUERY_CLIENTS query connections busy, so every query runs under
        churn.  It stops committing early at MAX_COMMITS.  Meanwhile a
        watcher reads `query digest`; every (epoch, digest) it sees must be
        the one the commits (or the spawn, for epoch 0) returned."""
        load = self.load_process(graph_args, seconds)
        watcher = DigestWatcher(self.work / "s.sock")
        mutator = LineClient(self.work / "s.sock")
        commits, epochs, admitted = [], {0: epoch0_digest}, 0
        start = time.perf_counter()
        for i in range(0, len(atoms) - BATCH + 1, BATCH):
            if load.poll():
                break
            if len(commits) >= MAX_COMMITS:
                self.note(f"the churn stopped at {MAX_COMMITS} commits, "
                          "before the query load ended")
                break
            for atom in atoms[i:i + BATCH]:
                kind, reply = mutator.ask("mutate " + atom)
                if not self.tally.check(kind == "ok",
                                        f"mutate {atom}: {reply}"):
                    raise RuntimeError("mutation refused")
                admitted += 1
            t0 = time.perf_counter()
            kind, reply = mutator.ask("commit")
            commits.append((time.perf_counter() - t0) * 1000.0)
            if not self.tally.check(kind == "ok", f"commit: {reply}"):
                raise RuntimeError("commit refused")
            epoch = int(reply["epoch"])
            self.tally.check(epochs.setdefault(epoch, reply["digest"]) ==
                             reply["digest"], f"epoch {epoch} seen with two "
                             "digests")
        else:
            self.note("the mutation log ran out before the query load ended")
        mutator_s = time.perf_counter() - start
        load_rec = self.finish_load(load)
        watched = watcher.finish()
        if load_rec is None:
            raise RuntimeError("the load process failed")
        if not commits:
            raise RuntimeError("the query load ended before the first commit")
        check_published(self.tally, epochs, watched)

        _, final = mutator.ask("query digest")
        mutator.close()
        final_epoch = int(final["epoch"])
        self.tally.check(final_epoch == len(commits) and
                         final["digest"] == epochs.get(final_epoch),
                         f"final epoch {final} != last commit")
        last_line = self.stop_server(server)
        self.tally.check(f"digest={final['digest']}" in last_line,
                         f"server's final line {last_line!r} disagrees")
        return {
            "commits": commits,
            "admitted": atoms[:admitted],
            "mutator_s": mutator_s,
            "queries": load_rec["queries"],
            "watched": len(watched),
            "query_p50_ms": load_rec["query_p50_ms"],
            "query_p99_ms": load_rec["query_p99_ms"],
            "final_size": int(final["size"]),
            "final_digest": final["digest"],
            "server_rss_mb": server.rss_mb,
        }

    def replay_check(self, graph_args, churn):
        log = self.work / "admitted.log"
        log.write_text("".join(a + "\n" for a in churn["admitted"]))
        proc = run([self.domset, "replay", *SERVE_SOLVER, *graph_args,
                    "--seed", self.seed, "--mutations", log, "--batch", BATCH,
                    "--frontier-cap", FRONTIER_CAP, "--sample-full", 0,
                    "--json"], self.work, "replay")
        ok = self.tally.check(proc.returncode == 0, f"domset replay exit "
                              f"{proc.returncode}: {proc.stderr_text()[-300:]}")
        if ok:
            digest = json.loads(proc.stdout_text())["summary"]["final_digest"]
            self.tally.check(digest == churn["final_digest"],
                             f"served digest {churn['final_digest']} != "
                             f"offline replay {digest}")

    # -- the two modes ----------------------------------------------------

    def end_to_end(self):
        graph_args, setup = self.solve_input(SETUP_REPEATS)
        if self.workload != "serve-ba-churn":
            walls, rss, rec = self.cold_runs(graph_args, MIN_COLD_RUNS,
                                             self.seconds)
            # The fastest cold run, not the median: see "Noise" in
            # README.md.  The serve-only metrics are analogs that repeat
            # it (a one-shot user commits, and reads, a set by a cold run).
            fastest = min(walls)
            self.note(f"cold runs: {len(walls)}; wall ms min {fastest:.1f} "
                      f"p25 {percentile(walls, 25):.1f} "
                      f"p50 {statistics.median(walls):.1f} "
                      f"p90 {percentile(walls, 90):.1f}")
            return {
                "time_to_set_ms": (fastest, "ms"),
                "ds_size": (rec["size"], "count"),
                "rounds": (rec["rounds"], "count"),
                "messages_sent": (rec["messages_sent"], "count"),
                "max_message_bits": (rec["max_message_bits"], "bits"),
                "commit_p50_ms": (fastest, "ms"),
                "commit_p90_ms": (fastest, "ms"),
                "query_p99_ms": (fastest, "ms"),
                "mutations_per_s": (rec["edges"] / (fastest / 1000.0), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
            }

        walls, _, rec = self.cold_runs(graph_args, SERVE_COLD_RUNS, 0)
        atoms = self.mutation_log(graph_args)
        server, setup, epoch0 = self.setup_server(graph_args, SETUP_REPEATS)
        # Half of --seconds: the offline replay check afterwards costs
        # about as much again, so a serve run lasts about as long as a
        # solve run.
        churn = self.churn(server, graph_args, atoms, epoch0,
                           self.seconds / 2)
        self.replay_check(graph_args, churn)
        commits = churn["commits"]
        self.note(f"commits: {len(commits)} in {churn['mutator_s']:.1f} s; "
                  f"{describe_tail(len(commits))}; queries: "
                  f"{churn['queries']}; digest checks: {churn['watched']}")
        return {
            "time_to_set_ms": (min(walls), "ms"),
            "ds_size": (churn["final_size"], "count"),
            "rounds": (rec["rounds"], "count"),
            "messages_sent": (rec["messages_sent"], "count"),
            "max_message_bits": (rec["max_message_bits"], "bits"),
            "commit_p50_ms": (statistics.median(commits), "ms"),
            "commit_p90_ms": (percentile(commits, 90), "ms"),
            "query_p99_ms": (churn["query_p99_ms"], "ms"),
            "mutations_per_s": (len(churn["admitted"]) / churn["mutator_s"],
                                "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (churn["server_rss_mb"], "MB"),
        }

    def per_layer(self):
        """Untraced reference pass (cold runs + a churn) on the workload's
        graph, then the traced probe on the same inputs; the probe's sets
        and final digest must equal the untraced ones."""
        graph_args, _ = self.solve_input(1)
        text = next(self.work.glob("graph*.txt"), None) or self.gen("graph")[0]
        dcsr = self.work / "graph-0.dcsr"
        if not dcsr.exists():
            self.convert(text, dcsr)

        walls, _, rec = self.cold_runs(graph_args, TRACE_REPEATS, 0)
        atoms = self.mutation_log(graph_args)
        server, _, epoch0 = self.setup_server(graph_args, 1)
        churn = self.churn(server, graph_args, atoms, epoch0,
                           self.seconds / 2)

        spans_path = self.work / "spans.tsv"
        k, threads = self.solver_config()
        proc = run([self.probe, "trace", *graph_args, "--seed", self.seed,
                    "--k", k, "--threads", threads, "--text", text,
                    "--text-threads", PARSE_THREADS, "--dcsr", dcsr,
                    "--repeats", TRACE_REPEATS,
                    "--log", self.work / "mutations.log",
                    "--commits", len(churn["commits"]), "--batch", BATCH,
                    "--churn-k", SERVE_K, "--churn-threads", SERVE_THREADS,
                    "--frontier-cap", FRONTIER_CAP, "--spans-out", spans_path],
                   self.work, "probe")
        self.tally.check(proc.returncode == 0, f"perfbench_probe trace exit "
                         f"{proc.returncode}: {proc.stderr_text()[-300:]}")
        spans, counts, info = parse_spans(spans_path.read_text())
        keep = build_dir() / "traces"
        keep.mkdir(exist_ok=True)
        shutil.copy(spans_path, keep / f"{self.workload}-{self.seed}.spans.tsv")
        self.tally.check(info.get("solve.digest") == rec["digest"],
                         f"traced set {info.get('solve.digest')} != untraced "
                         f"{rec['digest']}")
        traced = info.get("churn.final_digest")
        self.tally.check(traced == churn["final_digest"],
                         f"traced final digest {traced} != served "
                         f"{churn['final_digest']}")
        self.check_graph_digest(info.get("graph.digest"), "probe")
        self.note(f"spans: {len(spans)}; commits: {len(churn['commits'])}")
        return layer_metrics(spans, counts,
                             statistics.median(churn["commits"]),
                             churn["query_p50_ms"])


def describe_tail(count):
    p, beyond = highest_supported_percentile(count)
    if p is None:
        return f"no percentile has {TAIL_SAMPLES} samples beyond it"
    return f"highest percentile with >= {TAIL_SAMPLES} beyond: p{p:g} " \
           f"({beyond} beyond)"


def paired_difference(minuend, *subtrahends):
    """Median over the probe's repeats of minuend[i] - sum of the
    subtrahends[.][i]: each repeat's figures were taken seconds apart, so
    pairing them keeps the host's slow drifts out of the difference."""
    if not minuend or any(len(s) != len(minuend) for s in subtrahends):
        raise ValueError("paired series differ in length: "
                         f"{[len(minuend)] + [len(s) for s in subtrahends]}")
    return statistics.median(m - sum(s[i] for s in subtrahends)
                             for i, m in enumerate(minuend))


def spans_per_subtree(spans, root):
    """Mean number of spans in the subtree of a span named `root`, the
    root included."""
    roots = [sid for sid, (_, name, _, _) in spans.items() if name == root]
    inside = 0
    for sid in spans:
        node = sid
        while node != -1 and spans[node][1] != root:
            node = spans[node][0]
        inside += node != -1
    return inside / len(roots)


def layer_metrics(spans, counts, client_commit_ms, query_p50_ms):
    """Per-layer metrics from the probe's spans and counters."""
    by_name = {}
    for sid, (_, name, start, end) in spans.items():
        by_name.setdefault(name, []).append(sid)

    def durations(name, scale=1e-6):
        return [(spans[s][3] - spans[s][2]) * scale for s in by_name[name]]

    def med(name, scale=1e-6):
        return statistics.median(durations(name, scale))

    def total(name):
        return sum(counts[name])

    def mean(name):
        return statistics.fmean(counts[name])

    selfs = self_times(spans)
    ms, us = 1e-6, 1e-3
    lp, rounding = durations("core.lp"), durations("core.rounding")
    solve = durations("api.solve")
    empty = by_name["trace.empty_batch"][0]
    span_ns = (spans[empty][3] - spans[empty][2]) / len(by_name["trace.empty"])
    sim_rounds = counts["sim.rounds"][0]
    # A commit span's children are its repair, snapshot, verify and
    # publish; their sum is the commit's duration less its self time.
    window = [(spans[c][3] - spans[c][2] - selfs[c]) * ms
              for c in by_name["commit"]]
    repair = durations("dyn.repair")
    pin = by_name["serve.pin_batch"][0]
    return {
        "graph.parse_ms": (med("graph.parse"), "ms"),
        "graph.load_ms": (med("graph.load"), "ms"),
        "graph.build_ms": (med("graph.build"), "ms"),
        "sim.setup_ms": (med("sim.setup"), "ms"),
        "sim.round_ms": (med("sim.run") / sim_rounds, "ms"),
        "core.lp_ms": (statistics.median(lp), "ms"),
        "core.rounding_ms": (statistics.median(rounding), "ms"),
        "core.lp_rounds": (counts["core.lp_rounds"][0], "count"),
        "core.rounding_rounds": (counts["core.rounding_rounds"][0], "count"),
        "core.lp_messages": (counts["core.lp_messages"][0], "count"),
        "core.rounding_messages": (counts["core.rounding_messages"][0],
                                   "count"),
        "core.lp_objective": (counts["core.lp_objective"][0], "count"),
        "api.solve_ms": (statistics.median(solve), "ms"),
        "api.overhead_ms": (paired_difference(solve, lp, rounding), "ms"),
        "verify.check_ms": (med("verify.check"), "ms"),
        "verify.epoch_ms": (med("verify.epoch"), "ms"),
        "dyn.initial_solve_ms": (med("dyn.initial_solve"), "ms"),
        "dyn.apply_us": (med("dyn.apply", us), "us"),
        "dyn.repair_p50_ms": (statistics.median(repair), "ms"),
        "dyn.repair_p90_ms": (percentile(repair, 90), "ms"),
        "dyn.snapshot_ms": (med("dyn.snapshot"), "ms"),
        "dyn.commits": (len(repair), "count"),
        "dyn.ball_nodes": (mean("dyn.ball_nodes"), "count"),
        "dyn.capped_nodes": (mean("dyn.capped_nodes"), "count"),
        "dyn.interior_nodes": (mean("dyn.interior_nodes"), "count"),
        "dyn.interior_fraction": (total("dyn.interior_nodes") /
                                  max(1.0, total("dyn.ball_nodes")), "ratio"),
        "dyn.holes_patched": (mean("dyn.holes_patched"), "count"),
        "dyn.full_resolves": (total("dyn.full_resolves"), "count"),
        "dyn.changed": (mean("dyn.changed"), "count"),
        "serve.publish_ms": (med("serve.publish"), "ms"),
        "serve.commit_wait_ms": (client_commit_ms -
                                 statistics.median(window), "ms"),
        "serve.pin_ns": ((spans[pin][3] - spans[pin][2]) /
                         counts["serve.pin_calls"][0], "ns"),
        "serve.handle_member_us": (med("serve.handle_member", us), "us"),
        "serve.handle_set_ms": (med("serve.handle_set"), "ms"),
        "serve.query_p50_us": (query_p50_ms * 1000.0, "us"),
        "trace.overhead_ms": (paired_difference(
            durations("solve_path"), counts["untraced.solve_path_ms"]),
            "ms"),
        "trace.solve_spans_ns": (spans_per_subtree(spans, "solve_path") *
                                 span_ns, "ns"),
        "trace.span_ns": (span_ns, "ns"),
        "trace.solve_self_ms": (statistics.median(
            selfs[s] * ms for s in by_name["solve_path"]), "ms"),
        "trace.commit_self_us": (statistics.median(
            selfs[s] * us for s in by_name["commit"]), "us"),
    }


class LineClient:
    """One blocking domset-serve/1 protocol connection; a reply that takes
    longer than REPLY_TIMEOUT_S raises RuntimeError."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REPLY_TIMEOUT_S)
        self.sock.connect(str(path))
        self.reader = self.sock.makefile("r", encoding="ascii")

    def ask(self, line):
        try:
            self.sock.sendall((line + "\n").encode("ascii"))
            reply = self.reader.readline()
        except OSError as e:
            raise RuntimeError(f"no reply to {line!r}: {e}") from e
        if not reply:
            raise RuntimeError(f"connection closed after {line!r}")
        return parse_reply(reply)

    def close(self):
        self.reader.close()
        self.sock.close()


class DigestWatcher(threading.Thread):
    """A connection of the harness's own that sends `query digest` every
    WATCH_INTERVAL_S until finish(), which returns every (epoch, digest)
    seen."""

    def __init__(self, path):
        super().__init__(daemon=True)
        self.client = LineClient(path)
        self.seen = []
        self.error = None
        self.done = threading.Event()
        self.start()

    def run(self):
        try:
            while not self.done.wait(WATCH_INTERVAL_S):
                kind, reply = self.client.ask("query digest")
                if kind != "ok":
                    raise RuntimeError(f"query digest: {reply}")
                self.seen.append((int(reply["epoch"]), reply["digest"]))
        except RuntimeError as e:
            self.error = e
        finally:
            self.client.close()

    def finish(self):
        self.done.set()
        self.join()
        if self.error is not None:
            raise self.error
        return self.seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    os.chdir(ROOT)
    # A terminated run still stops and reaps its children (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = build_dir() / "work" / f"{a.workload}-{a.seed}-{a.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Relative paths keep the server socket path short.
    work = Path(os.path.relpath(work, ROOT))
    bench = Bench(a.workload, a.seed, a.seconds, work, *build())
    tally = bench.tally
    try:
        metrics = bench.per_layer() if a.trace else bench.end_to_end()
    except RuntimeError as e:
        # A refused request, a timeout or a dead process: the run has no
        # complete metrics, so it prints no result.
        tally.check(False, str(e))
        print(f"operations: {tally.attempted} attempted, {tally.failed} "
              "failed", file=sys.stderr)
        return 1
    finally:
        Proc.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    for text in bench.notes:
        print(text)
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"error_rate {tally.error_rate:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
