"""Command line front end.

One subcommand per module family.  Every run prints either a short
text report or a stable JSON document (--json).  JSON output is byte
deterministic: no timing jitter is recorded and integers that can
exceed 64 bits are emitted as decimal strings, so two runs with the
same arguments and config produce identical bytes.  One writer walks
the results once and appends the bytes that Python's json encoder
writes, with sort_keys=True and indent=2, for their plain form:
dataclass fields and dict keys sorted, enums as their values, sets
sorted, anything else as its str() (the README states every rule).

An argv made only of a subcommand and known options, each given once,
is read by a fast path that builds the Namespace argparse would;
argparse parses every other argv (abbreviations, repeats, --help, bad
values), so it alone prints usage, help and error text.

Exit codes: 0 conclusive success, 1 usage or validation error,
2 when any requested check came back Unknown.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

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


# --- JSON writer -----------------------------------------------------------
# _emit appends the JSON text of one value to out; nl is the newline and
# indent of the value's own line, and a container's items go one level
# deeper.  Each type gets its emitter on first sight, by _emitter's checks
# in order: subclasses of str, float and int are written as json writes
# them, then come enums, dataclass instances, dicts, sequences and sets,
# and anything else is its str().

def _emit(obj, out, nl):
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is int:
        out.append(repr(obj) if -_I64 < obj < _I64 else f'"{obj}"')
    else:
        (_EMITTERS.get(t) or _emitter(t))(obj, out, nl)


def _emit_float(obj, out, nl):
    if obj != obj:
        out.append("NaN")
    elif obj == _INF:
        out.append("Infinity")
    elif obj == -_INF:
        out.append("-Infinity")
    else:
        out.append(float.__repr__(obj))


def _emit_pairs(pairs, out, nl):
    """An object of (quoted key and ": ", value) pairs, in their order."""
    if not pairs:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in pairs:
        out.append(sep + key)
        _emit(value, out, inner)
        sep = "," + inner
    out.append(nl + "}")


def _emit_dict(obj, out, nl):
    keyed = {str(k): v for k, v in obj.items()}
    _emit_pairs([(_quote(k) + ": ", v) for k, v in sorted(keyed.items())],
                out, nl)


def _emit_list(obj, out, nl):
    if not obj:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for value in obj:
        out.append(sep)
        _emit(value, out, inner)
        sep = "," + inner
    out.append(nl + "]")


def _emitter(t):
    """The emitter of type t, kept for its next value."""
    if issubclass(t, str):
        def emit(obj, out, nl):
            out.append(_quote(obj))
    elif issubclass(t, float):
        emit = _emit_float
    elif issubclass(t, int):  # bool has its own entry
        def emit(obj, out, nl):
            out.append(int.__repr__(obj) if -_I64 < obj < _I64
                       else _quote(str(obj)))
    elif issubclass(t, enum.Enum):
        def emit(obj, out, nl):
            _emit(obj.value, out, nl)
    elif dataclasses.is_dataclass(t):
        keys = sorted((f.name, _quote(f.name) + ": ")
                      for f in dataclasses.fields(t))

        def emit(obj, out, nl):
            _emit_pairs([(key, getattr(obj, name)) for name, key in keys],
                        out, nl)
    elif issubclass(t, dict):
        emit = _emit_dict
    elif issubclass(t, (list, tuple)):
        emit = _emit_list
    elif issubclass(t, (set, frozenset)):
        def emit(obj, out, nl):
            _emit_list(sorted(obj), out, nl)
    else:
        def emit(obj, out, nl):
            out.append(_quote(str(obj)))
    _EMITTERS[t] = emit
    return emit


_INF = float("inf")
_EMITTERS = {
    type(None): lambda obj, out, nl: out.append("null"),
    bool: lambda obj, out, nl: out.append("true" if obj else "false"),
    float: _emit_float,
    dict: _emit_dict,
    list: _emit_list,
    tuple: _emit_list,
}


def _dumps(obj, nl="\n"):
    """The JSON text of obj's plain form, as the json encoder writes it
    with sort_keys=True and indent=2, at the indent of nl."""
    out = []
    _emit(obj, out, nl)
    return "".join(out)


# one entry: --seed takes any int, so a table could grow without bound
@functools.lru_cache(maxsize=1)
def _config_block(config):
    return _dumps(config, "\n  ")


def _envelope(command, config, payload, conclusive):
    """The --json document, its keys in sorted order."""
    out = ['{\n  "command": ', _quote(command), ',\n  "conclusive": ']
    _emit(conclusive, out, "\n  ")
    # elapsed_ms is pinned to zero so identical runs emit identical bytes
    out.append(',\n  "config": ' + _config_block(config)
               + ',\n  "elapsed_ms": 0,\n  "results": ')
    _emit(payload, out, "\n  ")
    out.append(f',\n  "schema_version": {SCHEMA_VERSION}\n}}')
    return "".join(out)


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


# Every subcommand's options, in the order --help lists them, as (flags,
# type, default, help): type str and int take a value, bool is a flag.
# A flag's default of None leaves the config's own value standing.
_OPTIONS = (
    (("--function", "-f"), str, None, "expression, e.g. 'x^3+1'"),
    (("--system", "-s"), str, None,
     "semicolon-joined expressions, e.g. 'x; x+2'"),
    (("--modulus",), int, None, None),
    (("--a",), int, None, None),
    (("--b",), int, None, None),
    (("--limit",), int, None, None),
    (("--box",), int, None, None),
    (("--horizon",), int, None, None),
    (("--json",), bool, False, None),
    (("--seed",), int, None, None),
    (("--strict-positive-n",), bool, None, None),
    (("--x-min",), int, None, None),
)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call of the process and
    reused: parse_args leaves a parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    for flags, kind, default, help_text in _OPTIONS:
        if kind is bool:
            common.add_argument(*flags, action="store_true", default=default,
                                help=help_text)
        else:
            common.add_argument(*flags, type=None if kind is str else kind,
                                help=help_text)

    parser = _Parser(prog="primework",
                     description="number-theoretic function workbench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


# --- argv fast path ----------------------------------------------------------

def _dest(flags):
    """The attribute argparse names after an option's first flag."""
    return flags[0][2:].replace("-", "_")


_OPTION_OF = {flag: (_dest(flags), kind)
              for flags, kind, _, _ in _OPTIONS for flag in flags}
_DEFAULTS = {_dest(flags): default for flags, _, default, _ in _OPTIONS}
# ASCII digits only: int() reads them alike on every Python, and argparse
# reads a leading "-" and digits as a value, since no flag looks like one
_INT_WORD = re.compile(r"-?[0-9]+").fullmatch


def _fast_args(argv):
    """The Namespace argparse builds for argv, when argv is a subcommand
    followed only by known options, each once: a text option with its
    value as the next word (not starting with "-") or after "=" of its
    long form, an int option with its value as the next word, a flag on
    its own.  None for any other argv."""
    if not argv or type(argv[0]) is not str or argv[0] not in _COMMANDS:
        return None
    values = {}
    i, n = 1, len(argv)
    while i < n:
        word = argv[i]
        if type(word) is not str:
            return None
        flag, eq, value = word.partition("=")
        dest, kind = _OPTION_OF.get(flag, (None, None))
        if dest is None or dest in values:
            return None
        if eq:
            if kind is not str or not value or flag[1] != "-":
                return None
            i += 1
        elif kind is bool:
            value = True
            i += 1
        else:
            if i + 1 == n or type(argv[i + 1]) is not str:
                return None
            value = argv[i + 1]
            i += 2
            if kind is str:
                if value.startswith("-"):
                    return None
            elif not _INT_WORD(value):
                return None
            else:
                try:
                    value = int(value)
                except ValueError:  # past the int digit limit
                    return None
        values[dest] = value
    return argparse.Namespace(command=argv[0], **{**_DEFAULTS, **values})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
        text = _envelope(args.command, config, payload, conclusive)
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
