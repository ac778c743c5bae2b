#!/usr/bin/env python3
"""End-to-end benchmark of the `distperm` binary.

Run from the repository root:

    python3 perfbench/run.py --workload survey_200k_d8 --seed 1 --seconds 30 --trace 0

Builds `distperm` (release) and the benchmark's own helper package from
source, generates the workload's inputs from `--seed` with the helper's
own RNG, drives the binary as child processes exactly as a user runs it,
checks every output, and prints one JSON result as the last line of
stdout.  `--trace 0` reports the end-to-end metrics; `--trace 1` also
builds `perfbench/trace`, which times calls into each crate's public
functions on the same inputs, and reports the per-layer metrics (for
survey and count, traced replays alternate with untraced ops instead of
the timed phase).  perfbench/WORKLOADS.md explains the design.

Workloads (every one a closed loop with one op outstanding):

- survey_200k_d8: `distperm survey --ks 4,8,12,16 --threads 1` on 200k x 8;
- count_1m_d2: `distperm count --k 24 --threads 2` on 10^6 x 2;
- serve_50k_mixed: `distperm build` then `distperm serve --load`; each op
  is one 64-query batch (32 exact knn 3, 32 knn 3 frac=0.05).

The timed phase is split into ROUNDS rounds.  Each round sets up again
(a warm-up op, or for serving a fresh build and a fresh server process),
so samples spread over time and over fresh processes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
ROUNDS = 5
SERVE_POOL = 16  # distinct query batches, cycled
SERVE_BATCH = 64
SERVE_WARMUP = 2  # untimed batches per server session
CHILD_TIMEOUT_S = 120

WORKLOADS = {
    "survey_200k_d8": {"n": 200_000, "dim": 8},
    "count_1m_d2": {"n": 1_000_000, "dim": 2},
    "serve_50k_mixed": {"n": 50_000, "dim": 8},
}

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build


def build(trace):
    """Builds the binaries from source; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    steps = [
        ["cargo", "build", "--release", "-q", "-p", "dp-cli"],
        ["cargo", "build", "--release", "-q", "--manifest-path",
         os.path.join(BENCH_DIR, "tools", "Cargo.toml")],
    ]
    if trace:
        steps.append(["cargo", "build", "--release", "-q", "--manifest-path",
                      os.path.join(BENCH_DIR, "trace", "Cargo.toml")])
    for argv in steps:
        # stdout of cargo goes to stderr so the result stays the last line.
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    rel = os.path.join(target, "release")
    return {
        "distperm": os.path.join(rel, "distperm"),
        "tools": os.path.join(rel, "perfbench-tools"),
        "trace": os.path.join(rel, "perfbench-trace"),
    }


# ------------------------------------------------------- child processes


class Child:
    """One finished child: wall time, exit code, output and its own peak RSS."""

    def __init__(self, wall_s, code, stdout, stderr, maxrss_kib):
        self.wall_s = wall_s
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.rss_mib = maxrss_kib / 1024.0


def run_child(argv, work):
    """Runs argv to exit; times it and reads its rusage with wait4."""
    err_path = os.path.join(work, "child.err")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=work, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    with open(err_path, "rb") as err:
        err_text = err.read().decode(errors="replace")
    return Child(wall, p.returncode, out, err_text, usage.ru_maxrss)


def tool(bins, work, *args):
    child = run_child([bins["tools"], *map(str, args)], work)
    if child.code != 0:
        raise BenchError(f"perfbench-tools {args[0]} failed: {child.stderr.strip()}")
    return child.stdout.decode()


def calibrate(bins, work):
    """The calibration loops' times, as {"calib.alu_ms": ..., ...}."""
    fields = dict(kv.split("=") for kv in tool(bins, work, "calib").split())
    return {f"calib.{name}": float(value) for name, value in fields.items()}


# --------------------------------------------------------------- results


class Tally:
    """Ops attempted and failed, latency samples, setup samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies_ms = []
        self.rss_mib = []
        self.setup_s = []
        self.timed_s = 0.0
        self.items = 0

    def op(self, problem):
        """Counts one op; `problem` is None or why it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return problem is None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def e2e_metrics(t):
    if not t.latencies_ms or not t.setup_s or t.timed_s <= 0:
        raise BenchError(f"no timed op succeeded ({t.failed} of {t.attempted} failed): "
                         + "; ".join(t.problems))
    return {
        "setup_s": statistics.median(t.setup_s),
        "op_p50_ms": statistics.median(t.latencies_ms),
        "op_p90_ms": percentile(t.latencies_ms, 90),
        "items_per_s": t.items / t.timed_s,
        "peak_rss_mib": statistics.median(t.rss_mib),
    }


# ------------------------------------------------- batch (exit) workloads


def check_survey(stdout):
    text = stdout.decode()
    rows = [ln.split() for ln in text.splitlines()]
    ks = [r[0] for r in rows if len(r) == 9 and r[0].isdigit()]
    if ks != ["4", "8", "12", "16"] or "database survey: n = 200000" not in text:
        return "survey report lacks the n = 200000 header or the k = 4, 8, 12, 16 rows"
    return None


def count_checker(bins, work, db):
    def check(stdout):
        text = stdout.decode()
        sites = distinct = None
        for line in text.splitlines():
            if line.startswith("sites (k = 24): ["):
                sites = line.split("[", 1)[1].rstrip("]").replace(" ", "")
            elif line.startswith("distinct distance permutations: "):
                distinct = line.rsplit(" ", 1)[1]
        if sites is None or distinct is None:
            return "count output lacks the site list or the distinct count"
        recount = tool(bins, work, "distinct", db, sites).strip()
        if recount != f"distinct={distinct}":
            return f"distinct count {distinct} but an independent recount gives {recount}"
        return None
    return check


class ExitOp:
    """One op that runs `distperm` to exit; every op's stdout must equal the first.

    The first output is checked in full; a later op that repeats it
    repeats its verdict.
    """

    def __init__(self, bins, work, argv, check_first):
        self.argv = [bins["distperm"], *argv]
        self.work = work
        self.check_first = check_first
        self.first = None  # (stdout, problem) of the first op that exited cleanly

    def __call__(self):
        """Runs the op; returns (child, problem or None)."""
        child = run_child(self.argv, self.work)
        if child.code != 0:
            return child, f"exit code {child.code}: {child.stderr.strip()[:200]}"
        if self.first is None:
            self.first = (child.stdout, self.check_first(child.stdout))
        elif child.stdout != self.first[0]:
            return child, "stdout differs from the first op's"
        return child, self.first[1]


def run_exit_workload(op, items_per_op, seconds):
    t = Tally()
    for r in range(ROUNDS):
        child, problem = op()  # set-up: one untimed warm-up op
        t.op(problem)
        t.setup_s.append(child.wall_s)
        slice_end = time.perf_counter() + seconds / ROUNDS
        begin = time.perf_counter()
        while True:
            child, problem = op()
            if t.op(problem):
                t.latencies_ms.append(child.wall_s * 1e3)
                t.rss_mib.append(child.rss_mib)
                t.items += items_per_op
            if time.perf_counter() >= slice_end:
                break
        t.timed_s += time.perf_counter() - begin
    return t


# ------------------------------------------------------------- serving


def serve_batches(queries_text):
    """The query pool: SERVE_POOL batches of SERVE_BATCH protocol lines.

    Even positions are exact `knn 3`, odd positions `knn 3 frac=0.05`.
    """
    points = queries_text.splitlines()
    pool = []
    for b in range(SERVE_POOL):
        lines = []
        for i in range(SERVE_BATCH):
            coords = points[b * SERVE_BATCH + i]
            lines.append(f"knn 3 {coords}" if i % 2 == 0 else f"knn 3 frac=0.05 {coords}")
        pool.append(lines)
    return pool


class Server:
    """A `distperm serve` child speaking the line protocol over pipes."""

    def __init__(self, argv, work):
        self.err = open(os.path.join(work, "serve.err"), "wb")
        self.proc = subprocess.Popen(argv, cwd=work, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err)
        self.killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.killer.start()

    def readline(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("server closed its output")
        return line.decode().rstrip("\n")

    def wait_ready(self):
        while not self.readline().startswith("ready "):
            pass

    def batch(self, batch_id, lines):
        """Sends one batch; returns (round-trip seconds, reply lines)."""
        payload = f"begin {batch_id}\n" + "\n".join(lines) + "\nend\n"
        t0 = time.perf_counter()
        self.proc.stdin.write(payload.encode())
        self.proc.stdin.flush()
        replies = []
        while True:
            line = self.readline()
            replies.append(line)
            if line.startswith(("done ", "shed ")):
                break
        return time.perf_counter() - t0, replies

    def close(self):
        """Ends the session; returns (trailing lines, peak RSS MiB, exit code)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the server has already exited; its status is read below
        try:
            tail = self.proc.stdout.read().decode().splitlines()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.killer.cancel()
            self.err.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return tail, usage.ru_maxrss / 1024.0, self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def check_replies(batch_id, replies, expected_ids, canonical):
    """Validates one batch reply; returns None or the problem."""
    done = replies[-1].split()
    if done[:5] != ["done", batch_id, f"ok={SERVE_BATCH}", "degraded=0", "failed=0"]:
        return f"batch {batch_id} ended with {replies[-1]!r}"
    answers = [ln for ln in replies if ln.startswith("ok ")]
    other = [ln for ln in replies
             if not ln.startswith(("ok ", "batch ", "done "))]
    if other:
        return f"batch {batch_id} got {other[0]!r}"
    if len(answers) != SERVE_BATCH:
        return f"batch {batch_id} got {len(answers)} answers"
    for i in range(0, SERVE_BATCH, 2):
        ids = " ".join(tok.split(":")[0] for tok in answers[i].split()[3:])
        if ids != expected_ids[i]:
            return f"batch {batch_id} exact query {i}: ids {ids} but brute force gives {expected_ids[i]}"
    if canonical is not None and answers != canonical:
        return f"batch {batch_id} answers differ from the first time this batch was served"
    return None


def run_serve_workload(bins, work, db, pool, expected, seconds):
    t = Tally()
    store = os.path.join(work, "index.dps")
    build_argv = [bins["distperm"], "build", "--vectors", db, "--k", "12",
                  "--threads", "2", "--out", store]
    serve_argv = [bins["distperm"], "serve", "--load", store, "--threads", "2"]
    first_build = None
    canonical = [None] * SERVE_POOL
    next_batch = 0
    for r in range(ROUNDS):
        t0 = time.perf_counter()
        built = run_child(build_argv, work)
        if first_build is None:
            first_build = built.stdout
        problem = None
        if built.code != 0:
            problem = f"build exit code {built.code}: {built.stderr.strip()[:200]}"
        elif built.stdout != first_build:
            problem = "build stdout differs from the first build's"
        if not t.op(problem):
            continue
        server = Server(serve_argv, work)
        try:
            server.wait_ready()
            session_batches = 0
            timed = False
            begin = slice_end = None
            while True:
                if not timed and session_batches == SERVE_WARMUP:
                    t.setup_s.append(time.perf_counter() - t0)
                    timed = True
                    begin = time.perf_counter()
                    slice_end = begin + seconds / ROUNDS
                p = next_batch % SERVE_POOL
                batch_id = f"r{r}b{session_batches}"
                wall, replies = server.batch(batch_id, pool[p])
                problem = check_replies(batch_id, replies, expected[p], canonical[p])
                if problem is None and canonical[p] is None:
                    canonical[p] = [ln for ln in replies if ln.startswith("ok ")]
                next_batch += 1
                session_batches += 1
                if t.op(problem) and timed:
                    t.latencies_ms.append(wall * 1e3)
                    t.items += SERVE_BATCH
                if timed and time.perf_counter() >= slice_end:
                    break
            t.timed_s += time.perf_counter() - begin
            tail, rss, code = server.close()
        except (BenchError, OSError) as e:
            # The server died or hung up: a failed op, and the round ends.
            t.op(f"round {r}: {e}")
            server.kill()
            continue
        except BaseException:
            server.kill()
            raise
        bye = f"bye batches={session_batches} queries={session_batches * SERVE_BATCH} shed=0 errors=0"
        problem = None
        if code != 0 or bye not in tail:
            problem = f"session ended with exit code {code} and {tail!r}"
        if t.op(problem):
            t.rss_mib.append(rss)
    return t


# ----------------------------------------------------------------- trace


TRACE_PAIRS = 5


def traced_op(bins, work, args):
    """One run of perfbench-trace; returns its per-layer values."""
    child = run_child([bins["trace"], *args], work)
    if child.code != 0:
        raise BenchError(f"perfbench-trace failed: {child.stderr.strip()[:400]}")
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


def trace_metrics(pairs):
    """Per-layer medians over (untraced op ms, traced layers) pairs.

    The spans are tied to the untraced op of the same pair, so host drift
    between pairs cancels out of `cli.unattributed_ms`.
    """
    layers = {name: statistics.median(p[1][name] for p in pairs) for name in pairs[0][1]}
    del layers["trace.attributed_ms"], layers["trace.op_ms"]
    layers["cli.unattributed_ms"] = statistics.median(
        op - p["trace.attributed_ms"] for op, p in pairs)
    layers["trace.attributed_pct"] = statistics.median(
        100.0 * p["trace.attributed_ms"] / op for op, p in pairs)
    layers["trace.overhead_ms"] = statistics.median(
        p["trace.op_ms"] - op for op, p in pairs)
    return layers


def run_exit_trace(bins, work, op, workload, db):
    """Alternates an untraced op with a traced replay in a fresh process."""
    t = Tally()
    pairs = []
    for _ in range(TRACE_PAIRS):
        child, problem = op()
        if t.op(problem):
            t.latencies_ms.append(child.wall_s * 1e3)
        pairs.append((child.wall_s * 1e3, traced_op(bins, work, [workload, db])))
    return t, trace_metrics(pairs)


PER_LAYER_UNITS = {
    "datasets.parse_ms": "ms",
    "datasets.rho_ms": "ms",
    "metric.transpose_ms": "ms",
    "metric.distances_ms": "ms",
    "metric.bytes_computed_mb": "MB",
    "permutation.count_ms": "ms",
    "permutation.sort_ms": "ms",
    "permutation.huffman_ms": "ms",
    "permutation.keys": "count",
    "permutation.distinct": "count",
    "core.survey_ms": "ms",
    "core.count_ms": "ms",
    "store.write_ms": "ms",
    "store.read_ms": "ms",
    "store.bytes": "bytes",
    "index.build_ms": "ms",
    "index.exact_query_ms": "ms",
    "index.approx_query_ms": "ms",
    "index.exact_evals": "count",
    "index.approx_evals": "count",
    "serve.protocol_parse_ms": "ms",
    "serve.engine_ms": "ms",
    "serve.session_overhead_ms": "ms",
    "cli.unattributed_ms": "ms",
    "trace.attributed_pct": "%",
    "trace.overhead_ms": "ms",
    "calib.alu_ms": "ms",
    "calib.mem_ms": "ms",
    "calib.parse_ms": "ms",
}


# ------------------------------------------------------------------ main


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        raise BenchError("run from the repository root: crates/cli/Cargo.toml not found")
    shape = WORKLOADS[args.workload]
    bins = build(args.trace == 1)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        db = os.path.join(work, "db.vec")
        db_bytes = tool(bins, work, "vectors", db, shape["n"], shape["dim"], args.seed).strip()
        print(f"input: {args.workload} n={shape['n']} d={shape['dim']} {db_bytes} seed={args.seed}")
        calib = [calibrate(bins, work)]
        trace = args.trace == 1
        if args.workload in ("survey_200k_d8", "count_1m_d2"):
            if args.workload == "survey_200k_d8":
                argv = ["survey", "--vectors", db, "--ks", "4,8,12,16", "--threads", "1"]
                op = ExitOp(bins, work, argv, check_survey)
                items = shape["n"] * 4
            else:
                argv = ["count", "--vectors", db, "--k", "24", "--threads", "2"]
                op = ExitOp(bins, work, argv, count_checker(bins, work, db))
                items = shape["n"]
            if trace:
                tally, metrics = run_exit_trace(bins, work, op, args.workload, db)
            else:
                tally = run_exit_workload(op, items, args.seconds)
                metrics = e2e_metrics(tally)
        else:
            queries = os.path.join(work, "queries.txt")
            tool(bins, work, "queries", queries, SERVE_POOL * SERVE_BATCH, shape["dim"],
                 args.seed ^ 0x51DE)
            with open(queries) as f:
                pool = serve_batches(f.read())
            brute = tool(bins, work, "knn", db, queries, 3).splitlines()
            expected = [brute[b * SERVE_BATCH:(b + 1) * SERVE_BATCH] for b in range(SERVE_POOL)]
            tally = run_serve_workload(bins, work, db, pool, expected, args.seconds)
            metrics = e2e_metrics(tally)
            if trace:
                layers = traced_op(bins, work, [args.workload, db, queries])
                metrics = trace_metrics([(metrics["op_p50_ms"], layers)])
        calib.append(calibrate(bins, work))
        print(f"ops: {len(tally.latencies_ms)} timed of {tally.attempted} attempted, "
              f"{tally.failed} failed; p90 has {len(tally.latencies_ms) // 10} samples beyond it")
        for problem in tally.problems:
            print(f"failed: {problem}")
        calib = {name: statistics.median(c[name] for c in calib) for name in calib[0]}
        print("calibration: " + " ".join(f"{k}={v:.3f}" for k, v in calib.items()))
        if trace:
            metrics.update(calib)
            units = PER_LAYER_UNITS
        else:
            units = E2E_UNITS
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
