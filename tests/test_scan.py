"""The exact point searches and the residue scans against a plain loop
over the same points.

Seeded random shapes (univariate polynomials, c*b^x+d, c*b^(x-k)+d with
no value below x = k, piecewise, two-variable polynomials) and moduli
up to 300.  Each shape carries its own Python evaluator, so the brute
force shares nothing with the library but the parser.
"""

import itertools
import math
import random

from primework.conditions import (Status, check_condition_B,
                                  check_condition_C, check_condition_D,
                                  check_system_conditions, find_value_witness)
from primework.analogy import find_zm_witness
from primework.analysis import classify, envelope_outside_bound, exceeds_one_from
from primework.config import DEFAULT_CONFIG
from primework.expr import evaluate, parse_function
from primework.factorial import least_factorial_witness

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


def _check_residue(f, fn, v, q, ok):
    """B, C or D modulo q: a witness is the least x whose value ok
    accepts; a Fails names an obstruction dividing q and every value far
    past the horizon; an Unknown (never for a polynomial) has no witness
    within the horizon."""
    brute = _least((fn,), 1, HORIZON[1], ok)
    if v.status is Status.HOLDS:
        assert (v.witness.point, v.witness.values) == brute
        assert v.witness.modulus == q
    elif v.status is Status.FAILS:
        assert q % v.obstruction == 0
        assert all(fn(x) is None or fn(x) % v.obstruction == 0
                   for x in range(1, FAILS_REACH[1] + 1))
    else:
        assert brute is None
        assert f.arity == 1 and not classify(f).is_polynomial


def test_residue_conditions_match_brute_force():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(200):
        draw = rng.choice(UNIVARIATE)
        f, fn = _shape(rng, draw)
        # small moduli too, so that every value of a piecewise shape can
        # share a factor with m
        m = rng.randint(2, rng.choice((6, 300)))
        v = check_condition_B(f, m, HORIZON[1])
        seen.add(("B", v.status))
        _check_residue(f, fn, v, m, lambda x: math.gcd(x, m) == 1)
        v = check_condition_C(f, m, HORIZON[1])
        seen.add(("C", v.status))
        _check_residue(f, fn, v, m, lambda x: x % m != 0)
        for p, v in check_condition_D(f, rng.randint(2, 40),
                                      HORIZON[1]).items():
            seen.add(("D", v.status))
            _check_residue(f, fn, v, p, lambda x: x % p != 0)
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
