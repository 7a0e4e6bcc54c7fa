"""primework benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a primework checkout; the program is imported from
its src/ directory.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.  The lines before it are
a human-readable report: environment, sample counts, the input-property
report, and every metric by name with its unit.

--trace 0 measures the end-to-end metrics; --trace 1 replays a fixed
number of blocks twice, untraced and traced, and reports the per-layer
metrics.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fixed import PROBES  # noqa: E402

SETUP_PROBES = 8  # fresh interpreters timed for set-up, besides the worker
RUN_LIMIT_S = 170  # a run must end well within 180 s


class BenchError(Exception):
    pass


class Worker:
    """A worker process: started, timed to its "ready" line, fed a job."""

    def __init__(self, src, workload, deadline):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH_DIR / "worker.py"), str(src),
             workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready != b"ready\n":
            self.finish(b"")
            raise BenchError(f"worker failed to start: {ready!r}")

    def finish(self, job):
        """Send the job, wait for the worker to exit, return its stdout."""
        try:
            out, _ = self.proc.communicate(
                job, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker ran past the time limit")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out


def run_worker(src, workload, job, deadline):
    w = Worker(src, workload, deadline)
    blocks, summary = [], None
    for line in w.finish(json.dumps(job).encode()).splitlines():
        rec = json.loads(line)
        if "summary" in rec:
            summary = rec["summary"]
        else:
            blocks.append(rec["answers"])
    if summary is None or len(blocks) != summary["blocks"]:
        raise BenchError("worker output incomplete")
    return w.setup_s, blocks, summary


def measure_setup(src, workload, deadline):
    """Set-up times of fresh interpreters; the first start is untimed so
    that byte-code caches are written before anything is measured."""
    Worker(src, workload, deadline).finish(b"")
    samples = []
    for _ in range(SETUP_PROBES):
        w = Worker(src, workload, deadline)
        w.finish(b"")
        samples.append(w.setup_s)
    return samples


def check_answers(workload, seed, blocks):
    """Oracle verdicts for every answer: (attempted, errors, inconclusive,
    max bits, queries)."""
    judge = oracle.ORACLES[workload](seed)
    errors, inconclusive, bits, queries = [], 0, 0, []
    for i, answers in enumerate(blocks):
        block = workloads.block(workload, seed, i)
        if len(block) != len(answers):
            raise BenchError(f"block {i}: {len(answers)} answers for {len(block)} queries")
        for q, a in zip(block, answers):
            err, inc, b = judge.check(q, a)
            if err:
                errors.append(err)
            inconclusive += inc
            bits = max(bits, b)
            queries.append(q)
    return len(queries), errors, inconclusive, bits, queries


def input_properties(workload, seed, queries):
    """(function texts of the queries that take one, share of queries by
    shape)."""
    if workload == "corpus-sweep":
        fns = workloads.corpus_functions(seed)
        texts = [fns[q[0]][0] for q in queries]
        # the strata of workloads.CORPUS_STRATA, plus the five fixed ones
        shapes = Counter("deg%d/%s" % workloads.corpus_stratum(fns[q[0]][1])[:2]
                         for q in queries)
    elif workload == "density-sieve":
        texts = [workloads.DENSITY_SYSTEMS[q[1]] for q in queries
                 if q[0] in ("bh", "count")]
        shapes = Counter(q[0] if q[0] in ("ap", "dlvp")
                         else "linear" if q[1] <= 2 else "nonlinear"
                         for q in queries)
    else:
        texts = [t for t in (workloads.function_text(q[0]) for q in queries)
                 if t is not None]
        shapes = Counter("system" if len(s) > 1 else s[0][0] if s else "none"
                         for _, s, _ in queries)
    n = len(queries)
    return texts, {k: round(v / n, 4) for k, v in sorted(shapes.items())}


def member_functions(workload, seed, queries):
    """Distinct member expressions the traced queries analyse."""
    if workload == "corpus-sweep":
        return len({q[0] for q in queries})
    if workload == "density-sieve":
        return len({m.strip() for s in workloads.DENSITY_SYSTEMS for m in s.split(";")})
    texts = {workloads.function_text(q[0]) for q in queries} - {None}
    return len({m.strip() for t in texts for m in t.split(";")})


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_timed(args, src, deadline, report):
    w = args.workload
    setups = measure_setup(src, w, deadline)
    job = {"workload": w, "seed": args.seed, "seconds": args.seconds,
           "blocks": None, "trace": False}
    worker_setup, blocks, summary = run_worker(src, w, job, deadline)
    setups.append(worker_setup)
    attempted, errors, inconclusive, bits, queries = check_answers(w, args.seed, blocks)
    errors += check_fixed(summary, report)
    attempted += len(summary["fixed"].get("readme", ()))

    lat = summary["latencies"]
    n = len(lat)
    p90 = percentile(lat, 90)
    metrics = {
        "queries_per_s": (n / sum(lat), "queries/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (summary["rss_kb"] / 1024, "MB"),
        "conclusive_ratio": (1 - inconclusive / n, "fraction"),
    }
    texts, shapes = input_properties(w, args.seed, queries)
    distinct = len(set(texts))
    report += [
        f"queries: {n} in {summary['blocks']} blocks; timed {sum(lat):.3f} s "
        f"of a {summary['loop_wall']:.3f} s loop; "
        f"{sum(1 for v in lat if v > p90)} samples above p90",
        f"setup: median of {len(setups)} fresh interpreters "
        f"(min {min(setups):.4f} s, max {max(setups):.4f} s)",
        f"failed_ratio: {len(errors) / attempted:.6f} fraction "
        f"({len(errors)} of {attempted})",
        f"inconclusive_ratio: {inconclusive / n:.6f} fraction ({inconclusive} of {n})",
        f"inputs: {distinct} distinct functions in {len(texts)} queries that "
        f"take one (reuse share {1 - distinct / len(texts):.4f}); "
        f"shape share {shapes}; "
        f"closed only by the horizon {inconclusive / n:.4f}; "
        f"largest value {bits} bits",
    ]
    return attempted, errors, metrics


def check_fixed(summary, report):
    """README examples must match their documented output; the roadmap's
    defect probes are reported, not counted as failures."""
    fixed = summary["fixed"]
    errors = oracle.check_readme(fixed["readme"]) if "readme" in fixed else []
    if "probes" in fixed:
        still_open = Counter(defect for (_argv, defect, present), (rc, out)
                             in zip(PROBES, fixed["probes"]) if present(rc, out))
        report.append(
            f"known defects: {sum(still_open.values())} of {len(PROBES)} "
            f"probes still show their defect {dict(still_open)}")
    return errors


# Functions with their own per-layer metrics, beyond the module totals.
PER_FUNCTION = (
    ("expr.parse_function", ("calls", "self_s")),
    ("expr.evaluate", ("calls", "self_s", "raised")),
    ("expr.evaluate_mod", ("calls", "self_s", "raised")),
    ("analysis.poly_normal_form", ("calls", "self_s")),
    ("analysis.classify", ("calls", "self_s")),
    ("analysis.envelope_outside_bound", ("calls", "self_s")),
    ("arith.primality", ("calls", "self_s")),
    ("arith.factorize", ("calls", "self_s", "raised")),
    ("arith.sieve_primes", ("calls", "self_s")),
    ("arith.multiplicative_order", ("calls", "self_s")),
    ("density.omega_p", ("calls", "self_s")),
)


def run_traced(args, src, deadline, report):
    w = args.workload
    job = {"workload": w, "seed": args.seed, "seconds": args.seconds,
           "blocks": workloads.TRACE_BLOCKS[w], "trace": False}
    _, plain_blocks, plain = run_worker(src, w, job, deadline)
    _, traced_blocks, traced = run_worker(src, w, dict(job, trace=True), deadline)
    attempted, errors, _inc, _bits, queries = check_answers(w, args.seed, plain_blocks)
    errors += check_fixed(plain, report)
    readme = plain["fixed"].get("readme", [])
    attempted += len(readme)
    if traced_blocks != plain_blocks or traced["fixed"] != plain["fixed"]:
        errors.append("traced run answers differ from the untraced run")

    spans = traced["trace"]["functions"]
    items = traced["trace"]["items"]
    n = len(queries) + len(readme)

    def stat(fn, k):
        return spans.get(fn, [0, 0.0, 0.0, 0])[k]

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer), "s")
    for fn, stats in PER_FUNCTION:
        for s in stats:
            k, unit = {"calls": (0, "count"), "self_s": (2, "s"),
                       "raised": (3, "count")}[s]
            metrics[f"{fn}.{s}"] = (stat(fn, k), unit)
    metrics["analysis.iter_points.points"] = (items.get("analysis.iter_points", 0), "count")
    metrics["cli.main.self_s"] = (stat("cli.main", 2), "s")
    metrics["expr.evaluate.calls_per_query"] = (stat("expr.evaluate", 0) / n, "calls/query")
    fns = member_functions(w, args.seed, queries) + len(readme)
    metrics["analysis.poly_normal_form.calls_per_function"] = (
        stat("analysis.poly_normal_form", 0) / fns, "calls/function")
    metrics["trace.overhead_ratio"] = (traced["loop_wall"] / plain["loop_wall"], "ratio")
    top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:8]
    report += [
        f"traced: {n} queries ({len(queries)} generated, {len(readme)} README); "
        f"untraced loop {plain['loop_wall']:.3f} s, traced {traced['loop_wall']:.3f} s",
        "answers of the traced run equal the untraced run: "
        f"{traced_blocks == plain_blocks and traced['fixed'] == plain['fixed']}",
        "top self time: " + ", ".join(f"{k} {v[2]:.3f} s" for k, v in top),
    ]
    return attempted, errors, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "primework" / "__init__.py").is_file():
        print(f"error: no primework sources under {src}; run from the root "
              "of a primework checkout", file=sys.stderr)
        return 2

    report = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}",
        f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  "
        f"commit {git_commit(root)}",
    ]
    try:
        if args.trace:
            attempted, errors, metrics = run_traced(args, src, deadline, report)
        else:
            attempted, errors, metrics = run_timed(args, src, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in errors[:20]:
        report.append(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    print("\n".join(report))
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
