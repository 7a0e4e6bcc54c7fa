"""Command line front end.

One subcommand per module family.  Every run prints either a short
text report or a stable JSON document (--json).  JSON output is byte
deterministic: no timing jitter is recorded and integers that can
exceed 64 bits are emitted as decimal strings, so two runs with the
same arguments and config produce identical bytes.

Exit codes: 0 conclusive success, 1 usage or validation error,
2 when any requested check came back Unknown.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import os
import sys

from .analogy import LiftStatus, check_crt_analogy
from .arith import is_prime
from .checks import run_checks
from .conditions import Status, check_system_conditions, condition_report
from .config import SCAN_HORIZON, WorkbenchConfig, resolve_config
from .counting import phi_general, pi_general_exact
from .density import (ap_product_inequality, density_estimate, dlvp_ratio,
                      least_prime_ap)
from .errors import InvalidArgument, WorkbenchError
from .expr import parse_function, parse_system
from .factorial import least_factorial_witness
from .fermat import fermat_in_zm, known_fermat_records
from .witness import s_f, s_system

SCHEMA_VERSION = 1
_I64 = 2**63


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit_with(message))

    @staticmethod
    def _exit_with(message):
        print(f"error: {message}", file=sys.stderr)
        return 1


def _jsonable(obj):
    """Stable JSON form: dataclasses become dicts, enums their values,
    wide integers decimal strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _I64 else obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    return str(obj)


def _functions(args):
    if getattr(args, "system", None):
        return parse_system(args.system)
    if getattr(args, "function", None):
        return (parse_function(args.function),)
    raise _UsageError("provide --function or --system")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required "
                              f"for this command")


def _horizon(args, default):
    """--horizon, or the command's default when it is not given."""
    if args.horizon is None:
        return default
    if args.horizon < 0:
        raise InvalidArgument("--horizon must be nonnegative")
    return args.horizon


def _fmt_witness(w):
    if w is None:
        return "none"
    point = w.point[0] if len(w.point) == 1 else w.point
    values = w.values[0] if len(w.values) == 1 else w.values
    return f"x={point} value={values}"


def _verdict_line(name, verdict):
    parts = [f"{name}: {verdict.status.value}"]
    if verdict.witness is not None:
        parts.append(_fmt_witness(verdict.witness))
    if verdict.obstruction is not None:
        parts.append(f"obstruction={verdict.obstruction}")
    if verdict.status is Status.UNKNOWN:
        parts.append(f"horizon={verdict.horizon}")
    return "  ".join(parts)


# --- handlers ------------------------------------------------------------
# each returns (payload, conclusive, text_lines, ok)

def _cmd_conditions(args, config):
    fs = _functions(args)
    _require(args, "modulus")
    horizon = _horizon(args, SCAN_HORIZON)
    if len(fs) > 1:
        verdict = check_system_conditions(fs, args.modulus, horizon, config)
        lines = [_verdict_line("H/I", verdict)]
        return ({"system": [str(f) for f in fs], "modulus": args.modulus,
                 "verdict": verdict},
                verdict.status is not Status.UNKNOWN, lines, True)
    report = condition_report(fs[0], args.modulus, horizon, config)
    lines = [_verdict_line(k, v) for k, v in sorted(report.verdicts.items())]
    seq = [v for _, v in report.coprime_sequence.entries]
    lines.append(f"coprime sequence: {seq}")
    conclusive = all(v.status is not Status.UNKNOWN
                     for v in report.verdicts.values())
    return ({"function": str(fs[0]), "modulus": args.modulus,
             "verdicts": report.verdicts,
             "coprime_sequence": report.coprime_sequence},
            conclusive, lines, True)


def _cmd_sfm(args, config):
    fs = _functions(args)
    _require(args, "modulus")
    horizon = _horizon(args, SCAN_HORIZON)
    if len(fs) > 1:
        rec = s_system(fs, args.modulus, horizon, config)
    else:
        rec = s_f(fs[0], args.modulus, horizon, config)
    if rec.point is None:
        lines = ["no witness" if rec.conclusive
                 else f"unknown (horizon {horizon})"]
        primality = None
    else:
        point = rec.point[0] if len(rec.point) == 1 else rec.point
        tags = ["prime" if is_prime(v, config) else "composite"
                for v in rec.values]
        primality = [t == "prime" for t in tags]
        vals = ", ".join(f"{v} ({t})" for v, t in zip(rec.values, tags))
        lines = [f"least witness: x={point}  values: {vals}"]
    return ({"system": [str(f) for f in fs], "record": rec,
             "values_prime": primality},
            rec.conclusive, lines, True)


def _cmd_phi(args, config):
    fs = _functions(args)
    _require(args, "modulus")
    res = phi_general(fs, args.modulus, args.box, config)
    lines = [f"count: {res.count}  (box {res.box}, "
             f"{'exact' if res.exact else 'lower bound'})"]
    return ({"system": [str(f) for f in fs], "result": res},
            res.exact, lines, True)


def _cmd_pi(args, config):
    fs = _functions(args)
    if len(fs) != 1:
        raise _UsageError("pi takes a single --function")
    _require(args, "limit")
    res = pi_general_exact(fs[0], args.limit, config=config)
    incomplete = "" if res.enumeration_complete else ", incomplete"
    lines = [f"count: {res.value}  (method {res.method}{incomplete})",
             f"subset: {sorted(res.subset)}"]
    return ({"function": str(fs[0]), "result": res},
            res.enumeration_complete, lines, True)


def _cmd_crt_analogy(args, config):
    fs = _functions(args)
    _require(args, "a", "b")
    res = check_crt_analogy(fs, args.a, args.b, args.box, config)
    lines = [f"status: {res.status.value}",
             f"witness mod {res.a}: {_fmt_witness(res.witness_a)}",
             f"witness mod {res.b}: {_fmt_witness(res.witness_b)}",
             f"witness mod {res.a * res.b}: {_fmt_witness(res.witness_ab)}"]
    return ({"system": [str(f) for f in fs], "result": res},
            res.status is not LiftStatus.UNKNOWN, lines, True)


def _cmd_fermat(args, config):
    if args.modulus is not None:
        value = fermat_in_zm(args.modulus, config.x_min, config)
        lines = [f"least term in Z_{args.modulus}*: "
                 f"{value if value is not None else 'none'}"]
        return ({"modulus": args.modulus, "least_member": value},
                True, lines, True)
    if args.limit is not None and args.limit < 0:
        raise InvalidArgument("--limit must be nonnegative")
    records = known_fermat_records(config)
    if args.limit is not None:
        records = tuple(r for r in records if r.x <= args.limit)
    lines = []
    for r in records:
        factors = " * ".join(str(d) for d in r.known_factors) or "-"
        lines.append(f"x={r.x}  {r.status.value:9}  known factors: {factors}")
    return ({"records": records}, True, lines, True)


def _cmd_density(args, config):
    _require(args, "limit")
    cutoff = _horizon(args, 10**5)
    if args.a is not None or args.b is not None:
        _require(args, "a", "b")
        ratio = dlvp_ratio(args.a, args.b, args.limit, config)
        lines = [f"normalized count for {args.a} mod {args.b} "
                 f"up to {args.limit}: {ratio:.4f}"]
        return ({"a": args.a, "b": args.b, "x": args.limit, "ratio": ratio},
                True, lines, True)
    fs = _functions(args)
    est = density_estimate(fs, cutoff, args.limit, config)
    lines = [f"constant: {est.constant:.6f}  (cutoff {est.prime_cutoff})",
             f"predicted: {est.predicted_sum:.1f}  actual: {est.actual}"]
    if est.obstruction is not None:
        lines.insert(0, f"fixed prime divisor {est.obstruction}: "
                        f"density constant is 0")
    return ({"system": [str(f) for f in fs], "estimate": est},
            True, lines, True)


def _cmd_ap(args, config):
    if args.a is not None or args.b is not None:
        _require(args, "a", "b", "limit")
        rep = ap_product_inequality(args.a, args.b, args.limit, config)
        if rep.c_star is None:
            return ({"report": rep}, False,
                    [f"unknown  horizon={config.horizon}"], True)
        lines = [f"violations up to n={args.limit}: "
                 f"{list(rep.violations) or 'none'}",
                 f"holds for all n > {rep.c_star}"]
        return ({"report": rep}, True, lines, True)
    k = args.modulus if args.modulus is not None else args.limit
    if k is None:
        raise _UsageError("--modulus (or --limit) is required for this command")
    table = least_prime_ap(k, config)
    lines = [f"modulus {table.k}:"]
    lines += [f"  l={l}  least prime: {p}" for l, p in table.entries]
    if table.p_k is None:
        lines.append(f"unknown  horizon={config.horizon}")
        return ({"table": table}, False, lines, True)
    lines.append(f"growth exponent estimate: {table.empirical_exponent:.3f}")
    return ({"table": table}, True, lines, True)


def _cmd_factorial(args, config):
    fs = _functions(args)
    _require(args, "limit")
    horizon = _horizon(args, SCAN_HORIZON)
    w = least_factorial_witness(fs, args.limit, horizon, config)
    if w is None:
        lines = [f"no witness found (horizon {horizon})"]
        return ({"system": [str(f) for f in fs], "l": args.limit,
                 "witness": None}, False, lines, True)
    point = w.point[0] if len(w.point) == 1 else w.point
    lines = [f"least witness: x={point}  values: {list(w.values)}",
             f"all prime: {w.all_prime}  least value prime: "
             f"{w.least_value_prime}"]
    return ({"system": [str(f) for f in fs], "witness": w},
            True, lines, True)


def _cmd_verify_paper(args, config):
    results = run_checks(config)
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"ok   {r.name}")
        else:
            lines.append(f"FAIL {r.name}  expected {r.expected!r} "
                         f"got {r.actual!r}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return ({"checks": results, "passed": passed, "total": len(results)},
            True, lines, passed == len(results))


# name -> (handler, help text)
_COMMANDS = {
    "conditions": (_cmd_conditions,
                   "necessary-condition report for a function mod m"),
    "sfm": (_cmd_sfm, "least witness with values coprime to m"),
    "phi": (_cmd_phi, "count distinct residue patterns that are units mod m"),
    "pi": (_cmd_pi,
           "count distinct values up to a limit via pairwise coprimality"),
    "crt-analogy": (_cmd_crt_analogy,
                    "test whether unit witnesses lift to a product modulus"),
    "fermat": (_cmd_fermat,
               "doubly exponential terms: records, membership mod m"),
    "density": (_cmd_density,
                "density constants, predicted vs actual prime counts"),
    "ap": (_cmd_ap, "least primes in arithmetic progressions"),
    "factorial": (_cmd_factorial,
                  "witnesses with values coprime to and below l!"),
    "verify-paper": (_cmd_verify_paper, "run the built-in verification corpus"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call of the process and
    reused: parse_args leaves a parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--function", "-f", help="expression, e.g. 'x^3+1'")
    common.add_argument("--system", "-s",
                        help="semicolon-joined expressions, e.g. 'x; x+2'")
    common.add_argument("--modulus", type=int)
    common.add_argument("--a", type=int)
    common.add_argument("--b", type=int)
    common.add_argument("--limit", type=int)
    common.add_argument("--box", type=int)
    common.add_argument("--horizon", type=int)
    common.add_argument("--json", action="store_true")
    common.add_argument("--seed", type=int)
    common.add_argument("--strict-positive-n", action="store_true",
                        default=None)
    common.add_argument("--x-min", type=int)

    parser = _Parser(prog="primework",
                     description="number-theoretic function workbench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # --horizon stays per-command (scan bound); the rest tune the config
    overrides = {k: v for k, v in
                 {"seed": args.seed,
                  "strict_positive_n": args.strict_positive_n,
                  "x_min": args.x_min}.items() if v is not None}
    try:
        config = resolve_config(overrides)
        payload, conclusive, lines, ok = _COMMANDS[args.command][0](args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": _jsonable(config),
            "results": _jsonable(payload),
            "conclusive": conclusive,
            # pinned to zero so identical runs emit identical bytes
            "elapsed_ms": 0,
        }
        text = json.dumps(envelope, sort_keys=True, indent=2)
    else:
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`primework ... | head -1`); point it
        # at devnull so the flush at exit raises nothing either, as the
        # note on SIGPIPE in the signal module's docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if not ok:
        return 1
    return 0 if conclusive else 2


if __name__ == "__main__":
    raise SystemExit(main())
