"""Self-test of the benchmark itself (not of primework).

    python3 bench/selftest.py          # from the root of a checkout

Checks that:
  * each generator is deterministic for a seed and differs across seeds;
  * count metrics (calls, items, failed and inconclusive counts) repeat
    exactly across two runs of the same seed;
  * every oracle reports a corrupted answer as failed: changed values
    and witnesses, false FAILS verdicts, a left-out witness, an exit
    code of 1 on a valid CLI query and a changed number in a text
    report; and the README check reports a changed line.
Takes about two minutes; exits 1 when any check fails.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import fixed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "calls/query", "calls/function")
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_generators():
    for w in workloads.WORKLOADS:
        a = [workloads.block(w, 7, i) for i in range(3)]
        b = [workloads.block(w, 7, i) for i in range(3)]
        c = [workloads.block(w, 8, i) for i in range(3)]
        expect(a == b, f"{w}: same seed gives the same blocks")
        expect(a != c, f"{w}: another seed gives other blocks")
        expect(a[0] != a[1], f"{w}: blocks of one seed differ")
    expect(workloads.corpus_functions(7) == workloads.corpus_functions(7)
           and workloads.corpus_functions(7) != workloads.corpus_functions(8),
           "corpus-sweep: functions follow the seed")


def bench_run(w, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names(declared):
    """Both kinds of run report exactly the metrics BENCHMARK.json names."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = bench_run("corpus-sweep", 3, trace)["metrics"]
        want = {m["name"]: m["unit"] for m in declared[key]}
        expect({k: v["unit"] for k, v in got.items()} == want,
               f"--trace {trace} reports the {key} metrics of BENCHMARK.json")
        if key == "end_to_end":
            expect(all(v["value"] > 0 for v in got.values()),
                   "every end-to-end metric is nonzero")


def check_counts_repeat(src, deadline):
    for w in workloads.WORKLOADS:
        first, second = bench_run(w, 3, 1), bench_run(w, 3, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] in COUNT_UNITS}
        again = {k: v["value"] for k, v in second["metrics"].items()
                 if v["unit"] in COUNT_UNITS}
        expect(counts == again and len(counts) > 10,
               f"{w}: {len(counts)} count metrics repeat exactly")
        expect((first["attempted"], first["failed"])
               == (second["attempted"], second["failed"]),
               f"{w}: attempted and failed repeat exactly")
        job = {"workload": w, "seed": 3, "seconds": 0, "blocks": 2,
               "trace": False}
        tallies = []
        for _ in range(2):
            _, blocks, _ = run.run_worker(src, w, job, deadline)
            _, errors, inconclusive, _, _ = run.check_answers(w, 3, blocks)
            tallies.append((len(errors), inconclusive))
        expect(tallies[0] == tallies[1],
               f"{w}: failed and inconclusive counts repeat exactly {tallies[0]}")


def corruptions(w, query, answer):
    """Wrong variants of one correct answer."""
    if w == "corpus-sweep":
        for k in range(3):
            status, x, value, obstruction = answer[k]
            bad = copy.deepcopy(answer)
            if status == "h":
                bad[k] = [status, x, value + 1, obstruction]
                yield bad
                bad = copy.deepcopy(answer)
                bad[k] = ["f", None, None, None]  # a false FAILS
                yield bad
                if x > 1:
                    bad = copy.deepcopy(answer)
                    bad[k] = [status, x - 1, value, obstruction]
                    yield bad
            elif status == "f":
                bad[k] = ["h", 1, 0, None]
                yield bad
    elif w == "density-sieve":
        kind = query[0]
        if kind == "bh":
            yield [answer[0] * (1 + 1e-9)] + answer[1:]
        elif kind == "count":
            yield answer + 1
        elif kind == "dlvp":
            yield answer * (1 + 1e-9)
        else:  # a later prime of the same progression is not the least
            bad = copy.deepcopy(answer)
            bad[0][1] += query[1]
            yield bad
    else:
        yield from cli_corruptions(query, answer)


# A number the text report prints as part of an answer.
_TEXT_NUMBER = re.compile(r"(value=|values: \[?|count: |least prime: |\*: )(\d+)")


def cli_corruptions(query, answer):
    argv = query[0]
    rc, out = answer
    yield ["raised ValueError", ""]
    yield [1, ""]  # a usage or WorkbenchError exit on a valid query
    if rc != 0:
        return
    if "--json" not in argv:
        hit = _TEXT_NUMBER.search(out)
        if hit:
            yield [rc, out[:hit.start(2)] + str(int(hit[2]) + 1) + out[hit.end(2):]]
        if argv[0] == "conditions":  # a false FAILS, for A and for B to G
            for pattern in (r"^A: holds$", r"^[B-G]: holds.*$"):
                bad = re.sub(pattern, lambda h: h[0][:3] + "fails", out,
                             count=1, flags=re.M)
                if bad != out:
                    yield [rc, bad]
        if argv[0] == "crt-analogy":  # a witness left out
            bad = re.sub(r"^(witness mod \d+: )x=.*$", r"\1none", out,
                         count=1, flags=re.M)
            if bad != out:
                yield [rc, re.sub(r"^status: \w+", "status: Inapplicable", bad)]
        return
    doc = json.loads(out)
    text = json.dumps(doc)
    if '"values": [' in text:
        start = text.index('"values": [') + len('"values": [')
        end = start
        while text[end].isdigit():
            end += 1
        if end > start:
            yield [rc, text[:start] + str(int(text[start:end]) + 1) + text[end:]]
    res = doc["results"]
    if argv[0] == "conditions" and "verdicts" in res:
        for letter, verdict in sorted(res["verdicts"].items()):
            if verdict["status"] == "holds":  # a false FAILS
                bad = copy.deepcopy(doc)
                bad["results"]["verdicts"][letter] = {
                    "status": "fails", "witness": None, "obstruction": None,
                    "horizon": None}
                yield [rc, json.dumps(bad)]
                break
    if argv[0] == "crt-analogy" and res["result"]["witness_a"] is not None:
        bad = copy.deepcopy(doc)
        bad["results"]["result"].update(witness_a=None, status="Inapplicable")
        yield [rc, json.dumps(bad)]


def check_oracles(src, deadline):
    for w in workloads.WORKLOADS:
        job = {"workload": w, "seed": 5, "seconds": 0, "blocks": 1,
               "trace": False}
        _, blocks, summary = run.run_worker(src, w, job, deadline)
        _, errors, _, _, _ = run.check_answers(w, 5, blocks)
        expect(not errors, f"{w}: the oracle accepts the program's answers")
        judge = oracle.ORACLES[w](5)
        tried = caught = 0
        for q, a in zip(workloads.block(w, 5, 0), blocks[0]):
            for bad in corruptions(w, q, a):
                tried += 1
                caught += judge.check(q, bad)[0] is not None
        expect(tried > 0 and caught == tried,
               f"{w}: the oracle reports {caught} of {tried} corrupted answers")
        if w == "cli-mixed":
            readme = summary["fixed"]["readme"]
            expect(not oracle.check_readme(readme), "README examples match")
            bad = copy.deepcopy(readme)
            bad[0][1] = bad[0][1].replace("x=11", "x=12")
            expect(len(oracle.check_readme(bad)) == 1,
                   "a changed README line is reported")
    expect(fixed.matches_documented("a\nb\nc\n", ["a", "...", "c"])
           and not fixed.matches_documented("a\nb\n", ["a", "c"]),
           "documented-output matching honours '...'")


def main():
    src = Path.cwd() / "src"
    if not (src / "primework" / "__init__.py").is_file():
        print("run from the root of a primework checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 600
    check_generators()
    check_metric_names(json.loads((Path.cwd() / "BENCHMARK.json").read_text()))
    check_oracles(src, deadline)
    check_counts_repeat(src, deadline)
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
