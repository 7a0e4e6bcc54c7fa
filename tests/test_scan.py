"""The exact point searches and the residue scans against a plain loop
over the same points.

Seeded random shapes (univariate polynomials, c*b^x+d, c*b^(x-k)+d with
no value below x = k, piecewise, two-variable polynomials) and moduli
up to 300.  Each shape carries its own Python evaluator, so the brute
force shares nothing with the library but the parser.  The residue
pre-test is checked against the exact path itself: a brute-force loop
over evaluate, whose values are checked against the shape's own, and
which cuts where evaluate runs over the bit budget.  The scan kernel
itself is held to the per-point evaluate loop it replaced, and the scan
order to the recursive shell generator it replaced.
"""

import contextlib
import io
import itertools
import math
import random
import sys

from primework import conditions
from primework.cli import main
from primework.conditions import (Status, check_condition_B,
                                  check_condition_C, check_condition_D,
                                  check_system_conditions, find_value_witness,
                                  generate_coprime_sequence)
from primework.analogy import find_zm_witness
from primework.analysis import (_magnitude, _Scan, _within_budget, classify,
                                envelope_outside_bound, exceeds_one_from,
                                iter_points, traits)
from primework.config import DEFAULT_CONFIG
from primework.errors import (DomainError, EvaluationBudgetExceeded,
                              EvaluationError)
from primework.expr import NtFunction, evaluate, evaluate_mod, parse_function
from primework.factorial import least_factorial_witness
from primework.poly import _cauchy_outside, _fujiwara_outside

HORIZON = {1: 300, 2: 20}  # points per axis
# a Fails must hold well past the horizon the certificate fitted into
FAILS_REACH = {1: 1000, 2: 40}


def _poly1(rng):
    coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 4))]
    coeffs[-1] = coeffs[-1] or rng.choice((-2, -1, 1, 2))
    text = " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
    return text, lambda x: sum(c * x**i for i, c in enumerate(coeffs))


def _exp(rng):
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    b, d = rng.randint(2, 6), rng.randint(-8, 8)
    return f"{c}*{b}^x+({d})", lambda x: c * b**x + d


def _shifted_exp(rng):
    c, b = rng.randint(1, 3), rng.randint(2, 5)
    k, d = rng.randint(1, 3), rng.randint(-8, 8)
    return (f"{c}*{b}^(x-{k})+({d})",
            lambda x: None if x < k else c * b**(x - k) + d)


def _piecewise(rng):
    a = rng.randint(1, 6)
    b = a + rng.randint(1, 8)
    c1, c2 = rng.randint(-3, 12), rng.randint(-3, 12)
    tail_text, tail = _poly1(rng)
    return (f"piecewise(x <= {a}: {c1}, x <= {b}: {c2}, else: {tail_text})",
            lambda x: c1 if x <= a else (c2 if x <= b else tail(x)))


def _poly2(rng):
    terms = [(rng.randint(-4, 4), i, j)
             for i in range(3) for j in range(3) if rng.random() < 0.5]
    terms.append((rng.randint(1, 3), rng.randint(0, 2), 1))  # depends on y
    text = " + ".join(f"({c})*x^{i}*y^{j}" for c, i, j in terms)
    return text, lambda x, y: sum(c * x**i * y**j for c, i, j in terms)


UNIVARIATE = (_poly1, _exp, _shifted_exp, _piecewise)


def _shape(rng, draw):
    text, fn = draw(rng)
    arity = 2 if draw is _poly2 else 1
    return parse_function(text, arity=arity), fn


def _least(fns, k, horizon, ok):
    """Least point of [1, horizon]^k in max-norm-then-lexicographic
    order where every fn has a value and ok accepts it."""
    points = sorted(itertools.product(range(1, horizon + 1), repeat=k),
                    key=lambda p: (max(p), p))
    for p in points:
        values = tuple(fn(*p) for fn in fns)
        if all(v is not None and ok(v) for v in values):
            return p, values
    return None


def _shell(k, n):
    """The points of max-norm n, some more than once."""
    for i in range(k):
        for rest in itertools.product(range(1, n + 1), repeat=k - 1):
            yield rest[:i] + (n,) + rest[i:]


def _check(fs, fns, k, verdict_point, verdict_values, status, ok):
    """A witness is the brute-force least point and re-evaluates to its
    values; a Fails has no witness far past the horizon; an Unknown
    has none within it."""
    brute = _least(fns, k, HORIZON[k], ok)
    if status is Status.HOLDS:
        assert (verdict_point, verdict_values) == brute
        assert tuple(evaluate(f, verdict_point) for f in fs) == verdict_values
    elif status is Status.FAILS:
        assert _least(fns, k, FAILS_REACH[k], ok) is None
    else:
        assert brute is None


def _value_tests(m):
    return {"E": lambda v: v > 1 and math.gcd(v, m) == 1,
            "F": lambda v: v > 1 and v % m != 0}


def test_value_witness_matches_brute_force():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(160):
        draw = rng.choice(UNIVARIATE + (_poly2,))
        f, fn = _shape(rng, draw)
        k = f.arity
        m = rng.randint(2, 300)
        for mode, ok in _value_tests(m).items():
            v = find_value_witness(f, m, mode, HORIZON[k])
            seen.add((mode, v.status))
            w = v.witness
            _check((f,), (fn,), k, w and w.point, w and w.values,
                   v.status, ok)
    # the sample reaches every outcome of every mode
    assert seen == {(mode, s) for mode in ("E", "F") for s in Status}


def test_system_conditions_match_brute_force():
    rng = random.Random(7)
    seen = set()
    for _ in range(120):
        if rng.random() < 0.3:
            shapes = [_shape(rng, _poly2) for _ in range(2)]
        else:
            shapes = [_shape(rng, rng.choice(UNIVARIATE)) for _ in range(2)]
        fs = tuple(f for f, _ in shapes)
        k = fs[0].arity
        m = rng.randint(2, 300)
        v = check_system_conditions(fs, m, HORIZON[k])
        seen.add(v.status)
        w = v.witness
        _check(fs, [fn for _, fn in shapes], k, w and w.point,
               w and w.values, v.status,
               lambda x: x > 1 and math.gcd(x, m) == 1)
    assert seen == set(Status)


def test_envelope_holds_on_its_side():
    # (X, above): f >= m (above) or f < 1 at every defined point with
    # max-norm >= X, checked X + 200 out for one variable and X + 10 per
    # axis for two; exceeds_one_from's side over 300 points from its X
    rng = random.Random(20261021)
    seen = set()
    for _ in range(200):
        draw = rng.choice(UNIVARIATE + (_poly2,))
        f, fn = _shape(rng, draw)
        k = f.arity
        for m in (2, rng.randint(3, 300)):
            env = envelope_outside_bound(f, m)
            seen.add(env and env[1])
            if env is None:
                continue
            x, above = env
            for n in range(x, x + (200 if k == 1 else 10) + 1):
                for p in _shell(k, n):
                    v = fn(*p)
                    assert v is None or (v >= m if above else v < 1), \
                        (str(f), m, p)
        cert = exceeds_one_from(f)
        seen.add(("exceeds", cert and cert[1]))
        if cert is not None:
            x, above = cert
            for t in range(x, x + 300):
                v = fn(t)
                assert v is None or (v > 1 if above else v <= 1), (str(f), t)
    assert seen == {None, True, False,
                    ("exceeds", None), ("exceeds", True), ("exceeds", False)}


def test_polynomial_envelope_takes_the_lesser_root_bound():
    # a univariate polynomial with no monotone envelope gets the lesser
    # of the Cauchy and Fujiwara bounds; past it every value lies
    # outside [1, m-1] on the side of the lead, checked at every x of a
    # window of 2,000 and at X + 10^k further out
    rng = random.Random(20261023)
    seen = set()
    for _ in range(150):
        deg = rng.randint(1, 5)
        cs = [rng.randint(-10**3, 10**3) for _ in range(deg)]
        cs.append(rng.choice([c for c in range(-9, 10) if c]))
        f = parse_function(" + ".join(f"({c})*x^{i}" for i, c in enumerate(cs)))
        m = rng.choice([2, 3, rng.randint(2, 10**3), rng.randint(2, 10**9)])
        x0, above = envelope_outside_bound(f, m)
        assert above == (cs[-1] > 0)
        cauchy, fujiwara = _cauchy_outside(cs, m), _fujiwara_outside(cs, m)
        # a monotone f has its exact threshold, no later than either
        assert x0 <= min(cauchy, fujiwara)
        if not traits(f.body).nondec:
            assert x0 == min(cauchy, fujiwara), (str(f), m)
            seen.add(fujiwara < cauchy)
        for x in itertools.chain(range(x0, x0 + 2000),
                                 (x0 + 10**k for k in range(4, 13))):
            v = sum(c * x**i for i, c in enumerate(cs))
            assert (v >= m) if above else (v < 1), (str(f), m, x)
    # each bound is the lesser one on some f with no monotone envelope
    assert seen == {True, False}


# the fallback box of find_zm_witness has about this many points in
# all: 400 for one variable and 20 per axis for two, the HORIZON sides
ZM_CONFIG = DEFAULT_CONFIG.with_overrides(horizon=400)


def test_zm_witness_matches_brute_force():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(200):
        draw = rng.choice(UNIVARIATE + (_poly2,))
        shapes = [_shape(rng, draw)]
        if rng.random() < 0.4:  # a two-member system of the same arity
            shapes.append(_shape(rng, _poly2 if draw is _poly2
                                 else rng.choice(UNIVARIATE)))
        fs = tuple(f for f, _ in shapes)
        fns = [fn for _, fn in shapes]
        k = fs[0].arity
        m = rng.randint(2, 300)
        # boxes small enough to fall short of the envelope's side at times
        box = rng.choice((None, rng.randint(1, HORIZON[k] // 6)))
        w, conclusive = find_zm_witness(fs, m, box, ZM_CONFIG)
        seen.add((w is not None, conclusive))
        ok = lambda v: 1 < v < m and math.gcd(v, m) == 1
        if w is not None:
            # every point before the witness in scan order has max-norm
            # at most the witness's, so the least point up to that side
            # is the least point anywhere
            assert conclusive and w.modulus == m
            assert box is None or max(w.point) <= box
            assert (w.point, w.values) == _least(fns, k, max(w.point), ok)
        elif conclusive:
            assert _least(fns, k, FAILS_REACH[k], ok) is None
        else:
            assert _least(fns, k, box or HORIZON[k], ok) is None
    # a witness is always conclusive; every other outcome is reached
    assert seen == {(True, True), (False, True), (False, False)}


def test_least_factorial_witness_matches_brute_force():
    rng = random.Random(11)
    found = 0
    for _ in range(120):
        shapes = [_shape(rng, rng.choice(UNIVARIATE))
                  for _ in range(rng.randint(1, 2))]
        fs = tuple(f for f, _ in shapes)
        l = rng.randint(2, 7)
        bound = math.factorial(l)
        primes = [p for p in range(2, l + 1)
                  if all(p % q for q in range(2, p))]
        w = least_factorial_witness(fs, l, HORIZON[1])
        brute = _least([fn for _, fn in shapes], 1, HORIZON[1],
                       lambda v: 1 < v < bound and all(v % p for p in primes))
        if w is None:
            assert brute is None
        else:
            found += 1
            assert (w.point, w.values) == brute
            assert tuple(evaluate(f, w.point) for f in fs) == w.values
    assert found


def _check_residue(f, fn, v, q, ok, horizon):
    """B, C or D modulo q at the given horizon: a witness is the least x
    whose value ok accepts; a Fails names an obstruction dividing q and
    every value far past the horizon; an Unknown is never a polynomial's
    and has no witness within the horizon."""
    brute = _least((fn,), 1, HORIZON[1], ok)
    if v.status is Status.HOLDS:
        assert (v.witness.point, v.witness.values) == brute
        assert v.witness.modulus == q
    elif v.status is Status.FAILS:
        assert q % v.obstruction == 0
        assert all(fn(x) is None or fn(x) % v.obstruction == 0
                   for x in range(1, FAILS_REACH[1] + 1))
    else:
        assert v.horizon == horizon
        assert _least((fn,), 1, horizon, ok) is None
        assert f.arity == 1 and not classify(f).is_polynomial


def test_residue_conditions_match_brute_force():
    # B, C and D on a polynomial do not read the horizon: below deg + 1
    # they still find the least witness
    rng = random.Random(20261019)
    seen = set()
    for _ in range(200):
        draw = rng.choice(UNIVARIATE)
        f, fn = _shape(rng, draw)
        # small moduli too, so that every value of a piecewise shape can
        # share a factor with m
        m = rng.randint(2, rng.choice((6, 300)))
        h = rng.choice((0, 1, 2, 3, HORIZON[1]))
        v = check_condition_B(f, m, h)
        seen.add(("B", v.status))
        _check_residue(f, fn, v, m, lambda x: math.gcd(x, m) == 1, h)
        v = check_condition_C(f, m, h)
        seen.add(("C", v.status))
        _check_residue(f, fn, v, m, lambda x: x % m != 0, h)
        for p, v in check_condition_D(f, rng.randint(2, 40), h).items():
            seen.add(("D", v.status))
            _check_residue(f, fn, v, p, lambda x: x % p != 0, h)
    assert seen == {(c, s) for c in "BCD" for s in Status}


# factors with a fixed divisor: x(x+1) is even, x^3 - x a multiple of 6,
# (x+y)(x+y+1)(x+y+2) a multiple of 6
_FIXED_FACTORS = (("x*(x+1)", lambda x, y: x * (x + 1)),
                  ("x^3-x", lambda x, y: x**3 - x),
                  ("(x+y)*(x+y+1)*(x+y+2)",
                   lambda x, y: (x + y) * (x + y + 1) * (x + y + 2)))


def test_polynomial_systems_match_a_residue_sweep():
    rng = random.Random(29)
    seen = set()
    for _ in range(80):
        members = []
        for _ in range(2):
            text, fn = _poly2(rng)
            if rng.random() < 0.3:
                ftext, ffn = rng.choice(_FIXED_FACTORS)
                text = f"({ftext})*({text})"
                fn = (lambda g, h: lambda x, y: g(x, y) * h(x, y))(ffn, fn)
            members.append((parse_function(text, arity=2), fn))
        fs = tuple(f for f, _ in members)
        fns = [fn for _, fn in members]
        m = rng.randint(2, 120)
        v = check_system_conditions(fs, m, HORIZON[2])
        seen.add(v.status)
        # the least prime of m dividing the product at every residue pair
        blocked = next((p for p in range(2, m + 1) if m % p == 0
                        and all(p % d for d in range(2, p))
                        and all(math.prod(g(x, y) for g in fns) % p == 0
                                for x in range(p) for y in range(p))), None)
        if blocked is not None:
            assert (v.status, v.obstruction) == (Status.FAILS, blocked)
            continue
        assert v.status is not Status.FAILS
        w = v.witness
        _check(fs, fns, 2, w and w.point, w and w.values, v.status,
               lambda x: x > 1 and math.gcd(x, m) == 1)
    assert seen == set(Status)


def test_fixed_divisor_past_the_horizon():
    # every value of 20011*x is a multiple of 20011, a modulus beyond
    # the 10^4 horizon: C and D fail on the fixed divisor alone
    f = parse_function("20011*x")
    for v in (check_condition_C(f, 20011), check_condition_D(f, 20011)[20011],
              check_condition_B(f, 20011)):
        assert (v.status, v.obstruction) == (Status.FAILS, 20011)
    assert check_condition_C(f, 20011 * 3).witness.point == (1,)


# --- the residue pre-test of non-polynomial value scans -----------------
# E, F, G and condition A on a univariate f with no polynomial
# coefficients reject a point on its residue before evaluating it
# exactly, once the magnitude guard has shown that no exact value of
# the scan can pass the bit budget.  The verdicts must be those of the
# exact path: a plain loop over evaluate, which cuts at the first value
# past the budget.

def _b_pow_c(rng):
    b, c = rng.randint(2, 9), rng.randint(1, 40)
    sign = rng.choice((1, -1))
    return f"{b}^x{'+' if sign > 0 else '-'}{c}", lambda x: b**x + sign * c


def _negative_spelling(rng):
    c, b, d = rng.randint(1, 3), rng.randint(2, 6), rng.randint(1, 40)
    if rng.random() < 0.5:
        return f"(-{c})*{b}^x+{d}", lambda x: -c * b**x + d
    return f"{b}^x+(-{d})", lambda x: b**x - d


def _floor(rng):
    c, b, d = rng.randint(1, 3), rng.randint(2, 5), rng.randint(-8, 8)
    q = rng.randint(2, 7)
    return f"floor(({c}*{b}^x+({d})) / {q})", lambda x: (c * b**x + d) // q


def _exp_piecewise(rng):
    a, c1 = rng.randint(1, 8), rng.randint(-3, 12)
    b, d = rng.randint(2, 5), rng.randint(-8, 8)
    return (f"piecewise(x <= {a}: {c1}, else: {b}^x+({d}))",
            lambda x: c1 if x <= a else b**x + d)


def _tower(rng):
    d = rng.randint(-6, 6)
    text, fn = rng.choice((("2^(2^x)", lambda x: 2**2**x),
                           ("2^(2^(2^x))", lambda x: 2**2**2**x),
                           ("x^x", lambda x: x**x)))
    return f"{text}+({d})", lambda x: fn(x) + d


PRETEST_SHAPES = (_b_pow_c, _exp, _negative_spelling, _shifted_exp, _floor,
                  _piecewise, _exp_piecewise, _tower)
TIGHT = DEFAULT_CONFIG.with_overrides(bit_budget=40)


def _exact_values(f, fn, horizon, config):
    """(x, value) for x = 1..horizon where f has a value, by a plain loop
    over evaluate, each value checked against the shape's own; ends with
    (x, None) at the first value past the bit budget."""
    for x in range(1, horizon + 1):
        try:
            v = evaluate(f, (x,), config=config)
        except EvaluationBudgetExceeded:
            yield x, None
            return
        except (DomainError, EvaluationError):
            assert fn(x) is None, (str(f), x)
            continue
        assert v == fn(x), (str(f), x)
        yield x, v


def _brute_witness(f, fn, horizon, config, ok):
    for x, v in _exact_values(f, fn, horizon, config):
        if v is None:
            return "cut"
        if ok(v):
            return (x,), (v,)
    return None


def _brute_chain(f, fn, count, horizon, config):
    kept, product = [], 1
    for x, v in _exact_values(f, fn, horizon, config):
        if v is None:
            break
        if v > 1 and math.gcd(v, product) == 1:
            kept.append(((x,), v))
            product *= v
            if len(kept) == count:
                break
    return tuple(kept)


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_residue_pretest_matches_the_exact_scan(monkeypatch):
    rng = random.Random(20261101)
    primes = _primes_below(10**4)
    horizon = HORIZON[1]
    seen = set()
    guard = conditions._within_budget

    def spy(f, limit, config):
        passed = guard(f, limit, config)
        seen.add(("guard", config.bit_budget, passed))
        return passed
    monkeypatch.setattr(conditions, "_within_budget", spy)

    def exact(call):
        with monkeypatch.context() as mp:
            mp.setattr(conditions, "_within_budget", lambda *a: False)
            return call()

    # 78557 is a Sierpinski number: every value of 78557*2^x + 1 has a
    # prime of m, and 2 has order 36 mod m.  Under 40 bits the exact
    # scan cuts at x = 23, before that period ends, so the Fails stands
    # only at the default budget
    f = parse_function("78557*2^x+1")
    m = 3 * 5 * 7 * 13 * 19 * 37 * 73
    for config, status in ((DEFAULT_CONFIG, Status.FAILS),
                           (TIGHT, Status.UNKNOWN)):
        call = lambda: find_value_witness(f, m, "E", horizon, config)
        assert call() == exact(call)
        assert call().status is status

    for _ in range(90):
        f, fn = _shape(rng, rng.choice(PRETEST_SHAPES))
        # small moduli too, so that most residues fail the test
        m = rng.randint(2, rng.choice((12, 10**4)))
        for config in (DEFAULT_CONFIG, TIGHT):
            for mode, q in (("E", m), ("F", m), ("G", rng.choice(primes))):
                ok = _value_tests(q)["F" if mode == "F" else "E"]
                call = lambda: find_value_witness(f, q, mode, horizon, config)
                v = call()
                assert v == exact(call), (str(f), q, mode, config.bit_budget)
                brute = _brute_witness(f, fn, horizon, config, ok)
                seen.add(("cut", brute == "cut"))
                seen.add((mode, v.status))
                if v.status is Status.HOLDS:
                    assert (v.witness.point, v.witness.values) == brute
                else:
                    assert brute in (None, "cut"), (str(f), q, mode)
            count = rng.randint(2, 5)
            call = lambda: generate_coprime_sequence(f, count, horizon, config)
            seq = call()
            assert seq == exact(call), (str(f), count, config.bit_budget)
            assert seq.entries == _brute_chain(f, fn, count, horizon, config)
            seen.add(("A", seq.achieved == count))
    # the guard passes and refuses at both budgets, scans are cut, and
    # every outcome of every mode is reached
    assert {("guard", b, p) for b in (DEFAULT_CONFIG.bit_budget, 40)
            for p in (True, False)} <= seen
    assert {("cut", True), ("A", True), ("A", False)} <= seen
    assert {(mode, s) for mode in "EFG" for s in Status} <= seen


def test_magnitude_bounds_every_value():
    # |f(x)| <= magnitude(X) for every x <= X where f has a value, and
    # the magnitude raises under a budget whenever some f(x) does
    rng = random.Random(20261102)
    seen = set()
    for _ in range(150):
        f, fn = _shape(rng, rng.choice(PRETEST_SHAPES + (_poly1,)))
        mag = NtFunction(1, _magnitude(f.body))
        X = rng.randint(1, 30)
        for config in (DEFAULT_CONFIG, TIGHT):
            values, raised = [], False
            for x in range(1, X + 1):
                try:
                    values.append(evaluate(f, (x,), config=config))
                except EvaluationBudgetExceeded:
                    raised = True
                except (DomainError, EvaluationError):
                    pass
            try:
                bound = evaluate(mag, (X,), config=config)
            except EvaluationBudgetExceeded:
                bound = None
            seen.add((raised, bound is None))
            # the guard answers from the same evaluation, at most 2^18 bits
            guard = _within_budget(f, X, config)
            assert not guard or bound is not None
            assert config is DEFAULT_CONFIG or guard == (bound is not None)
            if raised:
                assert bound is None, (str(f), X, config.bit_budget)
            else:
                assert bound is None or all(abs(v) <= bound for v in values)
    assert {(False, False), (True, True), (False, True)} <= seen


def _count_evaluations(monkeypatch, argv):
    """Exit code, stdout and the numbers of exact (evaluate) and residue
    (evaluate_mod) evaluations of one CLI call, counted in every module
    that holds the names.  The counters are undone after the call, so
    that the next call finds the names again."""
    calls = {evaluate: 0, evaluate_mod: 0}

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn] += 1
            return fn(*args, **kwargs)
        return counted
    out = io.StringIO()
    with monkeypatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("primework"):
                for fn in calls:
                    if getattr(module, fn.__name__, None) is fn:
                        mp.setattr(module, fn.__name__, counting(fn))
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue(), calls[evaluate], calls[evaluate_mod]


def test_residue_pretest_skips_exact_values(monkeypatch):
    # every value of 9^x - 37 is even: the E scan mod 6 and condition
    # A's chain past 44 run to the horizon.  The exact path would
    # evaluate about 10^4 values of up to 31,700 bits, and a residue per
    # point from evaluate_mod about 10^4 more: the residue stream takes
    # one multiplication per point instead
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    code, out, calls, mod_calls = _count_evaluations(
        monkeypatch, ["sfm", "-f", "9^x-37", "--modulus", "6"])
    assert (code, out) == (2, "unknown (horizon 10000)\n")
    assert calls <= 50 and mod_calls <= 50
    code, out, calls, mod_calls = _count_evaluations(
        monkeypatch, ["conditions", "-f", "9^x-37", "--modulus", "35"])
    assert (code, out.splitlines()) == (2, [
        "A: unknown  horizon=10000",
        "B: holds  x=2 value=44",
        "C: holds  x=1 value=-28",
        "D: holds  x=1 value=-28",
        "E: holds  x=2 value=44",
        "F: holds  x=2 value=44",
        "G: holds  x=2 value=44",
        "coprime sequence: [44]"])
    assert calls <= 50 and mod_calls <= 50


def test_residue_stream_matches_evaluate_mod():
    # every route of conditions._residues (Horner for a polynomial, one
    # multiplication per point for c*b^x + d, evaluate_mod otherwise)
    # against evaluate_mod at every point where f has a value, from
    # starts past 1 too, for q = 1, q sharing a prime with b and q far
    # past the values.  Towers stay out: evaluate_mod computes their
    # exponents exactly, and the magnitude guard keeps them off streams
    shapes = tuple(s for s in PRETEST_SHAPES if s is not _tower) + (_poly1,)
    rng = random.Random(20261024)
    fixed = ["9^x-37", "(-3)*6^x+(-5)", "5-4^x*3", "2*(3^x)-3^x+(-1)"]
    seen = set()
    for i in range(240):
        if i < len(fixed):
            f = parse_function(fixed[i])
        else:
            f, _ = _shape(rng, rng.choice(shapes))
        a = conditions._analysis(f)
        route = ("horner" if a.coeffs is not None
                 else "stream" if a.shape is not None else "evaluate_mod")
        b = a.shape[1] if a.shape is not None else rng.randint(2, 9)
        for q in (1, 6, b * rng.randint(1, 12), rng.randint(2, 10**4),
                  rng.randint(2, 10**30)):
            start, limit = rng.choice((1, 1, rng.randint(2, 40))), rng.randint(0, 60)
            want = []
            for x in range(start, limit + 1):
                try:
                    want.append((x, evaluate_mod(f, (x,), q)))
                except (DomainError, EvaluationError):
                    pass
            assert list(conditions._residues(f, q, limit, start)) == want, \
                (str(f), q, start, limit)
            seen.add((route, start > 1))
            if a.shape is not None:
                c, _, d = a.shape
                seen.add(("c < 0", c < 0))
                seen.add(("d < 0", d < 0))
                seen.add(("shares a prime with b", math.gcd(b, q) > 1))
    assert {(r, s) for r in ("horner", "stream", "evaluate_mod")
            for s in (True, False)} <= seen
    assert {(k, True) for k in ("c < 0", "d < 0",
                                "shares a prime with b")} <= seen


# The scan kernel against the per-point evaluate loop it replaced, and
# the point order against the recursive shell generator it replaced.

def _reference_scan(fs, points, accept, config):
    """Every (point, values) the scan yields, and its cut, from a plain
    loop over the checked public evaluate: a member undefined at a point
    (wrong arity included) skips it, the first value past the bit budget
    ends the scan."""
    found = []
    for point in points:
        values = []
        for f in fs:
            try:
                v = evaluate(f, point, config=config)
            except (DomainError, EvaluationError):
                break
            except EvaluationBudgetExceeded:
                return found, point
            if not accept(v):
                break
            values.append(v)
        else:
            found.append((point, tuple(values)))
    return found, None


def _kernel(fs, points, accept, config):
    scan = _Scan(fs, points, accept, config)
    return list(scan), scan.cut


KERNEL_SHAPES = (_poly1, _exp, _floor, _piecewise, _shifted_exp, _tower,
                 _poly2)


def _kernel_points(rng, k, count):
    """About count points of N^k, each component >= 1: iter_points, a
    product box (the Phi and Pi scans) or a filtered stream of 1-tuples
    (the residue-filtered value scans)."""
    route = rng.choice(("order", "box", "filtered") if k == 1
                       else ("order", "box"))
    side = max(1, round(count ** (1 / k)))
    if route == "order":
        return route, list(iter_points(k, side))
    if route == "box":
        return route, list(itertools.product(range(1, side + 1), repeat=k))
    r = rng.randint(2, 5)
    return route, [(x,) for x in range(1, side + 1) if x % r]


def test_scan_kernel_matches_the_evaluate_loop():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(400):
        members = [_shape(rng, rng.choice(KERNEL_SHAPES))[0]
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:  # one arity for all, as parse_system gives
            k = max(f.arity for f in members)
            members = [NtFunction(k, f.body) for f in members]
        fs = tuple(members)
        k = fs[0].arity
        route, points = _kernel_points(rng, k, rng.choice((40, 150, 400)))
        r = rng.randint(2, 7)
        accept = rng.choice((lambda v: v > 1 and v % r != 0,
                             lambda v: v % r == 0,  # rejects early
                             lambda v: True))
        # small budgets, so that towers cut early and cheaply
        config = DEFAULT_CONFIG.with_overrides(
            bit_budget=rng.choice((6, 12, 40, 2**12)))
        want = _reference_scan(fs, points, accept, config)
        assert _kernel(fs, iter(points), accept, config) == want, \
            ([str(f) for f in fs], [f.arity for f in fs], route)
        mixed = len({f.arity for f in fs}) > 1
        seen.add(("cut", want[1] is not None))
        seen.add(("found", bool(want[0])))
        seen.add(("members", len(fs)))
        seen.add(("mixed arity, wider first", mixed and k == 2))
        seen.add(("mixed arity, narrower first", mixed and k == 1))
        seen.add(("route", route))
    assert {("cut", True), ("cut", False), ("found", True), ("found", False),
            ("members", 1), ("members", 2), ("members", 3),
            ("mixed arity, wider first", True),
            ("mixed arity, narrower first", True),
            ("route", "order"), ("route", "box"),
            ("route", "filtered")} <= seen


def test_mixed_arity_systems_have_no_value():
    # a member whose arity differs from the first member's is undefined
    # at every point of the scan, in either order
    narrow, wide = parse_function("x+1"), parse_function("x*y+1")
    for fs in ((narrow, wide), (wide, narrow)):
        k = fs[0].arity
        assert _kernel(fs, iter_points(k, 30), lambda v: True,
                       DEFAULT_CONFIG) == ([], None)
        assert check_system_conditions(fs, 5, 50).status is Status.UNKNOWN
        assert find_zm_witness(fs, 7) == (None, True)


def _recursive_shell(k, n, prefix=(), has_n=False):
    """The points of max-norm n in lexicographic order, each once, by
    recursion over the components."""
    if len(prefix) == k:
        if has_n:
            yield prefix
        return
    last = len(prefix) == k - 1
    for v in range(1, n + 1):
        if v == n:
            yield from _recursive_shell(k, n, prefix + (v,), True)
        elif has_n or not last:
            yield from _recursive_shell(k, n, prefix + (v,), has_n)


def test_iter_points_keeps_the_workbench_order():
    for k, limit in ((1, 1000), (2, 60), (3, 14), (4, 7)):
        want = ([(n,) for n in range(1, limit + 1)] if k == 1 else
                [p for n in range(1, limit + 1)
                 for p in _recursive_shell(k, n)])
        assert list(iter_points(k, limit)) == want
    assert list(iter_points(2, 0)) == []
    assert list(iter_points(0, 5)) == list(_recursive_shell(0, 5)) == []
