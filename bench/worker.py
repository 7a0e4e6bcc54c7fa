"""One benchmark client: a fresh single-threaded interpreter running one
workload as a closed loop (the next query starts when the previous one
returns).

    python -I worker.py SRC_DIR WORKLOAD

The worker imports primework from SRC_DIR and prints "ready" on stdout;
the parent times set-up up to that line.  It then reads a JSON job from
stdin.  An empty job ends the process (a set-up probe).  Otherwise it
runs blocks of queries, timing each call alone, and writes one JSON line
of answers per block and a final summary line to stdout.  Block inputs
are generated between the timed calls.  A cli-mixed worker then runs
the README examples, and after a timed run also the defect probes.
Nothing here checks answers: the parent does that after the worker has
exited.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _import_program(src, workload):
    sys.path.insert(0, src)
    import primework
    if workload == "cli-mixed":
        import primework.cli  # noqa: F401  (what a CLI user loads)
    where = os.path.dirname(os.path.abspath(primework.__file__))
    if where != os.path.join(src, "primework"):
        raise SystemExit(f"primework imported from {where}, not {src}")


def _status(verdict):
    w = verdict.witness
    return [verdict.status.value[0],
            None if w is None else w.point[0],
            None if w is None else w.values[0],
            verdict.obstruction]


class CorpusClient:
    def __init__(self, seed):
        from primework import (check_condition_B, check_condition_C,
                               find_value_witness, parse_function)
        import workloads
        self.fns = [parse_function(text)
                    for text, _ in workloads.corpus_functions(seed)]
        self.B, self.C, self.E = (check_condition_B, check_condition_C,
                                  find_value_witness)

    def run(self, query):
        f = self.fns[query[0]]
        m = query[1]
        return [_status(self.B(f, m)), _status(self.C(f, m)),
                _status(self.E(f, m, "E"))]


class CliClient:
    def __init__(self, seed):
        from primework.cli import main
        self.main = main

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except Exception as exc:  # a traceback escaping the entry point
            rc = "raised " + type(exc).__name__
        return [rc, out.getvalue()]

    def run(self, query):
        return self.call(query[0])


class DensityClient:
    def __init__(self, seed):
        import primework
        import workloads
        self.pw = primework
        self.systems = [primework.parse_system(s)
                        for s in workloads.DENSITY_SYSTEMS]

    def run(self, query):
        pw = self.pw
        kind = query[0]
        if kind == "bh":
            c = pw.bateman_horn_constant(self.systems[query[1]], query[2])
            return [c.value, c.cutoff, c.obstruction]
        if kind == "count":
            return pw.actual_count(self.systems[query[1]], query[2])
        if kind == "ap":
            return [list(e) for e in pw.least_prime_ap(query[1]).entries]
        if kind == "dlvp":
            return pw.dlvp_ratio(query[1], query[2], query[3])
        raise ValueError(kind)


CLIENTS = {"corpus-sweep": CorpusClient, "cli-mixed": CliClient,
           "density-sieve": DensityClient}


def _run_job(job, out):
    import workloads
    import fixed
    name, seed = job["workload"], job["seed"]
    tracer = None
    if job["trace"]:
        # before the client binds any primework function
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    client = CLIENTS[name](seed)
    clock = time.perf_counter
    latencies = []
    blocks = job["blocks"]  # a fixed count, or None to run for job["seconds"]
    start = clock()
    i = 0
    while (i < blocks if blocks is not None
           else i == 0 or clock() - start < job["seconds"]):
        queries = workloads.block(name, seed, i)
        answers = []
        for q in queries:
            t0 = clock()
            a = client.run(q)
            latencies.append(clock() - t0)
            answers.append(a)
        out.write(json.dumps({"block": i, "answers": answers}) + "\n")
        i += 1
    loop_wall = clock() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fixed_answers = {}
    if name == "cli-mixed":
        fixed_answers["readme"] = [client.call(argv) for argv, _ in fixed.README]
        if blocks is None:  # the defect probes are reported by timed runs
            fixed_answers["probes"] = [client.call(argv) for argv, *_ in fixed.PROBES]
    summary = {"blocks": i, "latencies": latencies, "loop_wall": loop_wall,
               "rss_kb": rss_kb, "fixed": fixed_answers,
               "trace": tracer.summary() if tracer else None}
    out.write(json.dumps({"summary": summary}) + "\n")


def main():
    src, workload = sys.argv[1], sys.argv[2]
    _import_program(src, workload)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    raw = sys.stdin.read()
    if not raw.strip():
        return
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    _run_job(json.loads(raw), out)
    out.flush()


if __name__ == "__main__":
    main()
