"""Independent checks of every answer the worker returns.

The oracles recompute what they need with bench/reference.py: their own
Horner evaluation of the generated coefficients, their own evaluator of
each generated shape, their own sieve and primality test, and closed
root-count formulas for the density systems.  None of them imports
primework.  Each check returns (error, inconclusive, bits): error is
None when the answer is right, inconclusive marks an Unknown verdict or
CLI exit 2, and bits is the largest value bit length in the answer.
"""

from __future__ import annotations

import ast
import json
import math
import re

import fixed
import workloads
from reference import (attained_values, divides_every_value, eval_shape,
                       first_point, fixed_prime_of, horner, is_prime,
                       least_primes_mod, points, prime_factors, shape_arity,
                       sieve, values_gcd)

HORIZON = 10**4  # the library's default scan horizon


def _bits(*values):
    return max((abs(v).bit_length() for v in values if isinstance(v, int)),
               default=0)


# --- corpus-sweep --------------------------------------------------------

def _eventually_below_one(coeffs):
    """For a negative lead: X with f(x) < 1 for every x >= X.  With S the
    sum of |c_i| below the lead, f(x) <= x^(d-1) * (S - |lead| * x)."""
    lead = coeffs[-1]
    s = sum(abs(c) for c in coeffs[:-1])
    return s // -lead + 2


class CorpusOracle:
    """B, C and E verdicts for one (polynomial, modulus) query."""

    def __init__(self, seed):
        self.coeffs = [c for _, c in workloads.corpus_functions(seed)]
        self._memo = {}

    def check(self, query, answer):
        key = (query[0], query[1], json.dumps(answer))
        if key not in self._memo:
            self._memo[key] = self._check(self.coeffs[query[0]], query[1], answer)
        return self._memo[key]

    def _check(self, coeffs, m, answer):
        def f(x):
            return horner(coeffs, x)

        preds = {
            "B": lambda v: math.gcd(v, m) == 1,
            "C": lambda v: v % m != 0,
            "E": lambda v: v > 1 and math.gcd(v, m) == 1,
        }
        inconclusive = False
        bits = 0
        for letter, (status, x, value, obstruction) in zip("BCE", answer):
            ok = preds[letter]
            if status == "h":
                bits = max(bits, _bits(value))
                if value != f(x) or not ok(value):
                    return f"{letter}: witness x={x} value={value} wrong", False, bits
                if any(ok(f(t)) for t in range(1, x)):
                    return f"{letter}: witness x={x} is not least", False, bits
            elif status == "f":
                if not self._fails(letter, coeffs, m, obstruction, ok):
                    return f"{letter}: fails with obstruction {obstruction} unproven", False, bits
            else:
                inconclusive = True
                if any(ok(f(t)) for t in range(1, HORIZON + 1)):
                    return f"{letter}: unknown but a witness is within the horizon", False, bits
        return None, inconclusive, bits

    @staticmethod
    def _fails(letter, coeffs, m, obstruction, ok):
        if letter == "C":
            # m divides every value: f mod m is periodic with period m
            return obstruction == m and all(horner(coeffs, r) % m == 0
                                            for r in range(m))
        if letter == "B":
            return (obstruction is not None and m % obstruction == 0
                    and is_prime(obstruction)
                    and all(horner(coeffs, r) % obstruction == 0
                            for r in range(obstruction)))
        # E: some prime of m divides every value, or values end below 1
        if fixed_prime_of(coeffs, m) is not None:
            return True
        if coeffs[-1] < 0:
            bound = _eventually_below_one(coeffs)
            return not any(ok(horner(coeffs, t)) for t in range(1, bound))
        return False


# --- density-sieve -------------------------------------------------------

def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _omega(system_index, p):
    """Distinct roots mod p of the product of the system's members, from
    closed formulas rather than a root search."""
    if system_index <= 2:  # linear members a*x + b: one root -b/a each
        roots = set()
        for b, a in workloads.DENSITY_COEFFS[system_index]:
            if a % p:
                roots.add(-b * pow(a, -1, p) % p)
        return len(roots)
    if system_index == 3:  # x^2 + 1
        return 1 if p == 2 else 1 + _legendre(-1, p)
    if system_index == 4:  # x^2 + x + 41, discriminant -163
        if p == 2:
            return 0
        return 1 + _legendre(-163, p)
    # x^3 + 2: cubing is a bijection unless p = 1 mod 3
    if p in (2, 3) or p % 3 == 2:
        return 1
    return 3 if pow(-2 % p, (p - 1) // 3, p) == 1 else 0


class DensityOracle:
    def __init__(self, seed):
        self._prime_rows = {}
        # least primes of progressions with k <= 5000 stay far below 4*10^6
        self._flags = sieve(4 * 10**6)
        self._primes = [p for p in range(2, 10**6 + 1) if self._flags[p]]

    def _constant(self, si, cutoff):
        s = len(workloads.DENSITY_COEFFS[si])
        terms = []
        for p in self._primes:
            if p > cutoff:
                break
            w = _omega(si, p)
            if w == p:
                return 0.0
            terms.append(math.log1p(-w / p) - s * math.log1p(-1.0 / p))
        return math.exp(math.fsum(terms))

    def _count(self, si, limit):
        """Number of n <= limit with every member value prime."""
        rows = self._prime_rows.get(si)
        if rows is None:
            rows = [0]
            members = workloads.DENSITY_COEFFS[si]
            for n in range(1, workloads.COUNT_LIMIT + 1):
                rows.append(rows[-1] + all(is_prime(horner(c, n)) for c in members))
            self._prime_rows[si] = rows
        return rows[limit]

    def check(self, query, answer):
        kind = query[0]
        if kind == "bh":
            value, cutoff, obstruction = answer
            want = self._constant(query[1], query[2])
            if cutoff != query[2] or obstruction is not None:
                return "bh: cutoff or obstruction wrong", False, 0
            if abs(value - want) > 1e-12 * want:
                return f"bh: constant {value} != {want}", False, 0
        elif kind == "count":
            want = self._count(query[1], query[2])
            if answer != want:
                return f"count: {answer} != {want}", False, 0
        elif kind == "ap":
            if answer != least_primes_mod(query[1], self._flags):
                return "ap: least primes differ", False, 0
            return None, False, _bits(*(p for _, p in answer))
        elif kind == "dlvp":
            a, b, x = query[1:]
            count = sum(1 for p in self._primes if p <= x and p % b == a % b)
            phi_b = sum(1 for r in range(1, b + 1) if math.gcd(r, b) == 1)
            want = count * phi_b * math.log(x) / x
            if abs(answer - want) > 1e-12 * want:
                return f"dlvp: {answer} != {want}", False, 0
        return None, False, 0


# --- cli-mixed -----------------------------------------------------------

def _int(v):
    """JSON integers at or beyond 64 bits are decimal strings."""
    return int(v) if isinstance(v, str) else v


def _values_at(shapes, point):
    return [eval_shape(s, point) for s in shapes]


def _least(shapes, accept, point):
    """Is no point before `point` in scan order accepted?"""
    return first_point(shapes, accept, before=tuple(point)) is None


def _options(args):
    """{flag: value} of a generated argv tail ("--flag value" pairs,
    "--flag=value" words and a bare "--json")."""
    opts, rest = {}, list(args)
    while rest:
        word = rest.pop(0)
        if "=" in word:
            flag, _, value = word.partition("=")
            opts[flag] = value
        elif word == "--json":
            opts[word] = True
        else:
            opts[word] = rest.pop(0)
    return opts


def _escape_point(shape, bound):
    """X with no value in (1, bound) at any x >= X, or None when the shape
    has no such bound here.  For a polynomial of degree d with lead a and
    S the sum of the other |c_i|, |f(x)| >= x^(d-1) * (|a| x - S), which
    grows with x once |a| x > S."""
    kind = shape[0]
    if kind == "poly":
        coeffs = shape[1]
        lead, s = abs(coeffs[-1]), sum(abs(c) for c in coeffs[:-1])
        x = s // lead + 1
        while x ** (len(coeffs) - 2) * (lead * x - s) < bound:
            x += 1
        return x
    if kind == "exp":
        x = 1
        while shape[1] ** x < bound + abs(shape[2]):
            x += 1
        return x
    if kind == "fermat":
        x = 0
        while 2 ** (2 ** x) < bound:
            x += 1
        return x
    return None


# --- text answers: the printed report read back into the JSON layout -------

_FMT_WITNESS = re.compile(r"x=(\(.*?\)|\d+) value=(\(.*?\)|-?\d+)")


def _ints(text):
    """The integers of a printed int, tuple or list."""
    v = ast.literal_eval(text)
    return [int(t) for t in v] if isinstance(v, (tuple, list)) else [int(v)]


def _text_witness(text, modulus):
    if text == "none":
        return None
    point, values = _FMT_WITNESS.fullmatch(text).groups()
    return {"point": _ints(point), "values": _ints(values), "modulus": modulus}


def _text_verdict(line, m):
    """A "B: holds  x=6 value=217" line; the D and G lines do not say
    which prime of m their witness is for, so that modulus is None."""
    head, *parts = line.split("  ")
    name, _, status = head.partition(": ")
    verdict = {"status": status, "witness": None, "obstruction": None}
    for part in parts:
        if part.startswith("x="):
            verdict["witness"] = _text_witness(part, None if name in "DG" else m)
        elif part.startswith("obstruction="):
            verdict["obstruction"] = int(part.partition("=")[2])
    return name, verdict


def _text_results(cmd, opts, out):
    """The fields of the JSON "results" that the text report prints."""
    lines = out.rstrip("\n").split("\n")
    if cmd == "sfm":
        head, _, values = lines[0].partition("  values: ")
        if not head.startswith("least witness: x="):
            return {"record": {"point": None,
                               "conclusive": lines[0] == "no witness"}}
        tagged = re.findall(r"(-?\d+) \((prime|composite)\)", values)
        return {"record": {"point": _ints(head.partition("x=")[2]),
                           "values": [int(v) for v, _ in tagged],
                           "conclusive": True},
                "values_prime": [t == "prime" for _, t in tagged]}
    if cmd == "conditions":
        m = int(opts["--modulus"])
        if lines[0].startswith("H/I: "):
            return {"verdict": _text_verdict(lines[0], m)[1]}
        chain = ast.literal_eval(lines[-1].partition("coprime sequence: ")[2])
        return {"verdicts": dict(_text_verdict(line, m) for line in lines[:-1]),
                "coprime_sequence": {"entries": [[None, v] for v in chain]}}
    if cmd == "phi":
        count, box, exact = re.fullmatch(
            r"count: (\d+)  \(box (\d+), (exact|lower bound)\)", lines[0]).groups()
        return {"result": {"n": int(opts["--modulus"]), "count": int(count),
                           "box": int(box), "exact": exact == "exact"}}
    if cmd == "pi":
        return {"result": {"value": int(lines[0].split()[1]),
                           "subset": ast.literal_eval(lines[1].partition(": ")[2])}}
    if cmd == "crt-analogy":
        a, b = int(opts["--a"]), int(opts["--b"])
        result = {"status": lines[0].partition(": ")[2]}
        for key, mod, line in zip(("witness_a", "witness_b", "witness_ab"),
                                  (a, b, a * b), lines[1:]):
            result[key] = _text_witness(line.partition(": ")[2], mod)
        return {"result": result}
    if cmd == "factorial":
        if not lines[0].startswith("least witness: x="):
            return {"witness": None}
        point, _, values = lines[0][len("least witness: x="):].partition("  values: ")
        flags = re.fullmatch(r"all prime: (True|False)  least value prime: (True|False)",
                             lines[1]).groups()
        return {"witness": {"point": _ints(point), "values": _ints(values),
                            "all_prime": flags[0] == "True",
                            "least_value_prime": flags[1] == "True"}}
    if cmd == "fermat":
        if "--modulus" in opts:
            value = lines[0].rpartition(": ")[2]
            return {"least_member": None if value == "none" else int(value)}
        records = []
        for line in lines:
            x, status, factors = re.fullmatch(
                r"x=(\d+)  (\w+) +known factors: (.*)", line).groups()
            records.append({"x": int(x), "status": status, "value": None,
                            "known_factors": [] if factors == "-"
                            else factors.split(" * ")})
        return {"records": records}
    if cmd == "ap":
        if "--modulus" in opts:
            entries = [list(map(int, re.fullmatch(r"  l=(\d+)  least prime: (\d+)",
                                                  line).groups()))
                       for line in lines[1:-1]]
            return {"table": {"entries": entries}}
        violations = lines[0].partition(": ")[2]
        return {"report": {"violations": [] if violations == "none"
                           else ast.literal_eval(violations),
                           "c_star": int(lines[1].rpartition(" ")[2])}}
    raise ValueError(cmd)


class CliOracle:
    """Every generated query is valid and has an answer, so it must exit
    0, or 2 for a horizon-limited scan; exit 1 is a wrong answer.  Text
    answers are read back into the JSON layout and checked the same way."""

    def __init__(self, seed):
        self._flags = sieve(10**6)

    def check(self, query, answer):
        argv, shapes, _label = query
        rc, out = answer
        if rc not in (0, 2):
            return f"{' '.join(argv)}: exit {rc}", False, 0
        conclusive = rc == 0
        opts = _options(argv[1:])
        try:
            if "--json" in opts:
                doc = json.loads(out)
                if doc["command"] != argv[0] or doc["conclusive"] != conclusive:
                    return f"{' '.join(argv)}: envelope wrong", not conclusive, 0
                results = doc["results"]
            else:
                results = _text_results(argv[0], opts, out)
            err, bits = getattr(self, "_" + argv[0].replace("-", "_"))(
                opts, shapes, results, conclusive)
        except (KeyError, IndexError, TypeError, ValueError, SyntaxError,
                AttributeError) as exc:
            err, bits = f"malformed answer ({type(exc).__name__}: {exc})", 0
        if err:
            err = f"{' '.join(argv)}: {err}"
        return err, not conclusive, bits

    # Each checker returns (error or None, largest value bit length).

    def _witness_ok(self, shapes, w, accept):
        point = tuple(w["point"])
        values = [_int(v) for v in w["values"]]
        if values != _values_at(shapes, point):
            return f"values {values} at {point} wrong"
        if not accept(values):
            return f"witness {point} does not qualify"
        if not _least(shapes, accept, point):
            return f"witness {point} is not least"
        return None

    def _sfm(self, opts, shapes, res, conclusive):
        m = int(opts["--modulus"])
        rec = res["record"]
        if rec["conclusive"] != conclusive:
            return "conclusive flag disagrees with the exit code", 0
        accept = workloads.witness_accept(m)
        if rec["point"] is None:
            if shapes[0][:2] == ["exp", workloads.HEAVY_BASE]:
                # 9^x - c (c odd) is always even and m is even: no witness
                return (None if m % 2 == 0 and not conclusive
                        else "heavy query misreported"), 0
            if shapes[0][0] == "poly" and shapes[0][1][-1] < 0:
                coeffs = shapes[0][1]
                missed = any(accept([horner(coeffs, x)])
                             for x in range(1, _eventually_below_one(coeffs)))
                return ("a witness below the sign bound was missed"
                        if missed else None), 0
            return "no witness reported, but one exists", 0
        values = [_int(v) for v in rec["values"]]
        err = self._witness_ok(shapes, {"point": rec["point"], "values": values},
                               accept)
        if err is None:
            for v, tag in zip(values, res["values_prime"]):
                truth = is_prime(v)
                if truth is not None and truth != tag:
                    err = f"value {v} primality tag wrong"
        return err, _bits(*values)

    def _conditions(self, opts, shapes, res, conclusive):
        m = int(opts["--modulus"])
        if "verdict" in res:  # system form H/I
            verdict = res["verdict"]
            if verdict["status"] != "holds" or verdict["witness"] is None:
                return "the system has a witness, but none is reported", 0
            err = self._witness_ok(shapes, verdict["witness"],
                                   workloads.witness_accept(m))
            return err, _bits(*map(_int, verdict["witness"]["values"]))
        verdicts = res["verdicts"]
        if conclusive != all(v["status"] != "unknown" for v in verdicts.values()):
            return "exit code disagrees with the verdicts", 0
        shape = shapes[0]
        primes = prime_factors(m)
        err = self._condition_a(shape, primes, verdicts["A"]["status"],
                                res["coprime_sequence"]["entries"])
        if err:
            return err, 0
        truth = self._value_truth(shape, m, primes)
        if truth is None:
            return (f"no witness among the first {workloads.WITNESS_WITHIN} "
                    "points of a generated query"), 0
        preds = {
            "B": lambda v, q: math.gcd(v, m) == 1,
            "C": lambda v, q: v % m != 0,
            "D": lambda v, q: v % q != 0,
            "E": lambda v, q: v > 1 and math.gcd(v, m) == 1,
            "F": lambda v, q: v > 1 and v % m != 0,
            "G": lambda v, q: v > 1 and math.gcd(v, q) == 1,
        }
        bits = 0
        for letter, pred in preds.items():
            verdict = verdicts[letter]
            status, w = verdict["status"], verdict["witness"]
            holds = truth is True or truth[letter]
            if status == "fails":
                if holds:
                    return f"{letter}: fails, but it holds", bits
                continue
            if status == "unknown":
                if truth is True:
                    return (f"{letter}: unknown, but a witness is within the "
                            f"first {workloads.WITNESS_WITHIN} points"), bits
                continue
            if not holds or w is None:
                return f"{letter}: holds, but it fails or has no witness", bits
            vals = [_int(v) for v in w["values"]]
            bits = max(bits, _bits(*vals))
            point = tuple(w["point"])
            if vals != _values_at(shapes, point):
                return f"{letter}: witness values wrong", bits
            if letter in "DG":
                # a witness for one prime of m; a text report does not
                # say which, so any prime it is least for will do
                mods = primes if w["modulus"] is None else [w["modulus"]]
            else:
                mods = [w["modulus"]]
            if not set(mods) <= set(primes if letter in "DG" else [m]):
                return f"{letter}: witness modulus {w['modulus']} is wrong", bits
            if not any(pred(vals[0], q) and _least(
                    shapes, lambda vs, q=q: pred(vs[0], q), point) for q in mods):
                return f"{letter}: witness does not qualify or is not least", bits
        return None, bits

    @staticmethod
    def _condition_a(shape, primes, status, entries):
        """A holds exactly when the greedy pairwise-coprime chain reaches
        omega(m) + 1 values; the reported sequence is that chain."""
        need = len(primes) + 1
        # when a prime divides every value, the chain stops at one value
        longest = 1 if any(divides_every_value(shape, p)
                           for p in (2, 3, 5, 7)) else need
        chain, product = [], 1
        for x in range(1, HORIZON + 1):
            if len(chain) == longest:
                break
            v = eval_shape(shape, (x,))
            if v > 1 and math.gcd(v, product) == 1:
                chain.append([[x], v])
                product *= v
        got = [[p, _int(v)] for p, v in entries]
        if [v for _, v in got] != [v for _, v in chain[:len(got)]] or any(
                p is not None and list(p) != q for (p, _), (q, _) in zip(got, chain)):
            return f"coprime sequence {got} is not the greedy chain"
        if (status == "holds") != (len(chain) == need) or len(got) != min(len(chain), need):
            return f"A: {status} with a greedy chain of {len(chain)} of {need}"
        if status == "fails" and not (shape[0] == "poly" and shape[1][-1] < 0):
            return "A: fails without a sign bound"
        return None

    @staticmethod
    def _value_truth(shape, m, primes):
        """True when every one of B to G has a witness among the first
        points; else, for a polynomial, {letter: whether it holds}, from
        its fixed divisor and, for a negative lead, the finitely many
        values above 1; else None."""
        if first_point([shape], workloads.witness_accept(m),
                       workloads.WITNESS_WITHIN) is not None:
            return True  # one value > 1 coprime to m witnesses B to G
        if shape[0] != "poly":
            return None
        coeffs = shape[1]
        fd = values_gcd(shape)
        unit = math.gcd(fd, m) == 1
        truth = {"B": unit, "C": fd % m != 0, "D": unit}
        if coeffs[-1] > 0:
            return dict(truth, E=unit, F=fd % m != 0, G=unit)
        above_one = [v for v in (horner(coeffs, x) for x in
                                 range(1, _eventually_below_one(coeffs))) if v > 1]
        return dict(truth,
                    E=any(math.gcd(v, m) == 1 for v in above_one),
                    F=any(v % m for v in above_one),
                    G=all(any(v % q for v in above_one) for q in primes))

    def _phi(self, opts, shapes, res, conclusive):
        n = int(opts["--modulus"])
        r = res["result"]
        if r["exact"] != conclusive:
            return "exit code disagrees with the exact flag", 0
        arity = max(shape_arity(s) for s in shapes)
        seen = set()
        for point in points(arity, r["box"]):
            vals = _values_at(shapes, point)
            if all(1 <= v < n and math.gcd(v, n) == 1 for v in vals):
                seen.add(tuple(vals))
        if r["count"] != len(seen) or r["n"] != n:
            return f"count {r['count']} != {len(seen)}", 0
        return None, 0

    def _pi(self, opts, shapes, res, conclusive):
        limit = int(opts["--limit"])
        r = res["result"]
        subset = [_int(v) for v in r["subset"]]
        attained = attained_values(shapes[0], limit)
        if len(subset) != r["value"] or not set(subset) <= attained:
            return "subset is not a set of attained values", 0
        for k, v in enumerate(subset):
            if any(math.gcd(v, u) != 1 for u in subset[:k]):
                return "subset not pairwise coprime", 0
        greedy, used = 0, 1
        for v in sorted(attained):
            if math.gcd(v, used) == 1:
                greedy += 1
                used *= v
        if r["value"] < greedy:
            return f"value {r['value']} below a greedy packing of {greedy}", 0
        return None, _bits(*subset)

    def _crt_analogy(self, opts, shapes, res, conclusive):
        r = res["result"]
        a, b = int(opts["--a"]), int(opts["--b"])
        if (r["status"] != "Unknown") != conclusive:
            return "exit code disagrees with the status", 0
        found = {}
        for key, mod in (("witness_a", a), ("witness_b", b), ("witness_ab", a * b)):
            def accept(vals, mod=mod):
                return all(1 < v < mod and math.gcd(v, mod) == 1 for v in vals)
            limit = _escape_point(shapes[0], mod)
            want = first_point(shapes, accept, limit)
            w = r[key]
            found[key] = w is not None
            if w is None:
                if want is not None:
                    return f"{key} missing, but x={want[0]} qualifies", 0
                continue
            vals = [_int(v) for v in w["values"]]
            if (w["modulus"] != mod or tuple(w["point"]) != want
                    or vals != _values_at(shapes, want)):
                return f"{key} is not the least witness {want}", 0
        status = r["status"]
        if found["witness_a"] and found["witness_b"]:
            expect = ("Lifts",) if found["witness_ab"] else ("FailsToLift", "Unknown")
        else:
            expect = ("Inapplicable", "Unknown")
        if status not in expect:
            return f"status {status} inconsistent with witnesses", 0
        return None, 0

    def _factorial(self, opts, shapes, res, conclusive):
        l = int(opts["--limit"])
        w = res["witness"]
        if w is None:
            return "no witness reported, but one exists", 0
        bound = math.factorial(l)
        small = [p for p in range(2, l + 1) if is_prime(p)]

        def accept(vals):
            return all(1 < v < bound and all(v % p for p in small) for v in vals)
        vals = [_int(v) for v in w["values"]]
        err = self._witness_ok(shapes, w, accept)
        if err is None and (w["all_prime"] != all(is_prime(v) for v in vals)
                            or w["least_value_prime"] != is_prime(min(vals))):
            err = "primality flags wrong"
        return err, _bits(*vals)

    def _fermat(self, opts, shapes, res, conclusive):
        if "--modulus" in opts:
            m = int(opts["--modulus"])
            x = int(opts.get("--x-min", 1))
            want = None
            while 2**(2**x) + 1 < m:
                if math.gcd(2**(2**x) + 1, m) == 1:
                    want = 2**(2**x) + 1
                    break
                x += 1
            got = res["least_member"]
            return (None if got == want else f"least member {got} != {want}"), 0
        records = res["records"]
        if [r["x"] for r in records] != list(range(int(opts["--limit"]) + 1)):
            return "record range wrong", 0
        for r in records:
            x = r["x"]
            if r["value"] is not None and _int(r["value"]) != 2**(2**x) + 1:
                return f"F({x}) value wrong", 0
            if (r["status"] == "Prime") != (x <= 4):
                return f"F({x}) status wrong", 0
            if any(pow(2, 2**x, d) != d - 1 for d in map(_int, r["known_factors"])):
                return f"F({x}) factor does not divide", 0
        return None, _bits(*(2**(2**r["x"]) + 1 for r in records))

    def _ap(self, opts, shapes, res, conclusive):
        if "--modulus" in opts:
            k = int(opts["--modulus"])
            same = res["table"]["entries"] == least_primes_mod(k, self._flags)
            return (None if same else "least primes differ"), 0
        a, b, n = int(opts["--a"]), int(opts["--b"]), int(opts["--limit"])
        primes = []
        v = a
        while len(primes) < n + 1:
            if v >= 2 and self._flags[v]:
                primes.append(v)
            v += b
        violations, product = [], 1
        for i in range(1, n + 1):
            product *= primes[i - 1]
            if product <= primes[i]:
                violations.append(i)
        rep = res["report"]
        if rep["violations"] != violations or rep["c_star"] != (violations[-1] if violations else 0):
            return "violations differ", 0
        return None, 0


ORACLES = {"corpus-sweep": CorpusOracle, "cli-mixed": CliOracle,
           "density-sieve": DensityOracle}


def check_readme(answers):
    """Errors of the README examples against their documented lines."""
    errors = []
    for (argv, expected), (rc, out) in zip(fixed.README, answers):
        if rc != 0 or not fixed.matches_documented(out, expected):
            errors.append(f"README example {' '.join(argv)}: rc={rc}")
    return errors
