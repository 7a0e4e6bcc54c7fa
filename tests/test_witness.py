"""Least-witness records and the growth-bound suites."""

import math
import random

import pytest

from primework.arith import is_prime
from primework.config import DEFAULT_CONFIG
from primework.errors import BoundFunctionMismatch
from primework.expr import parse_function, parse_system
from primework.witness import (exponent_identity_check, s_f, s_system,
                               verify_bound)


def s_f_mersenne_scan(m):
    """Plain gcd scan for S of 2^x - 1: the oracle for s_f."""
    for n in range(2, 10**4 + 1):
        if math.gcd((pow(2, n, m) - 1) % m, m) == 1:
            return n
    return None


def test_mersenne_least_witness_82677():
    rec = s_f(parse_function("2^x-1"), 82677)
    assert rec.conclusive
    assert rec.point == (11,)
    assert rec.values == (2047,)
    assert not is_prime(2047)
    assert 2047 == 23 * 89


def test_mersenne_order_path_matches_plain_scan():
    f = parse_function("2^x-1")
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randrange(3, 20000) | 1
        rec = s_f(f, m)
        plain = s_f_mersenne_scan(m)
        got = rec.point[0] if rec.point else None
        assert got == plain, m


def test_identity_least_witness():
    f = parse_function("x")
    for m in (3, 10, 15, 210):
        rec = s_f(f, m)
        assert rec.conclusive
        v = rec.values[0]
        assert v > 1 and math.gcd(v, m) == 1
        for b in range(2, v):
            assert math.gcd(b, m) != 1


def test_system_least_witness_twin():
    rec = s_system(parse_system("x; x+2"), 15)
    assert rec.conclusive
    assert rec.point == (2,) and rec.values == (2, 4)


def test_sqrt_bound_suite():
    f = parse_function("x")
    rep = verify_bound(f, "sqrt", (31, 5000))
    assert rep.clean
    # below 31 the bound genuinely fails somewhere
    low = verify_bound(f, "sqrt", (2, 30))
    assert not low.clean


def test_sqrt_bound_violations_are_real():
    f = parse_function("x")
    rep = verify_bound(f, "sqrt", (2, 30))
    for m, s in rep.violations:
        assert s * s >= m
        # s really is the least coprime value above 1
        for b in range(2, s):
            assert math.gcd(b, m) != 1


def test_log2_bound_suite():
    f = parse_function("2^x-1")
    rep = verify_bound(f, "log2", (22, 5000))
    assert rep.clean
    low = verify_bound(f, "log2", (2, 21))
    bad_m = sorted(m for m, _ in low.violations)
    assert bad_m == [2, 3, 4, 6, 21]


def test_poly_bound_suite():
    f = parse_function("x^2")
    rep = verify_bound(f, "poly", (50, 3000))
    assert rep.threshold is not None
    assert rep.lo == 50
    assert rep.clean


def test_poly_bound_suite_records_a_missing_witness():
    # every value of x^2 + x is even: no witness for m = 100 within the
    # horizon, recorded as S = 0 (the suite used to loop forever here)
    rep = verify_bound(parse_function("x^2+x"), "poly", (100, 100))
    assert rep.violations == ((100, 0),)
    # x^2 + x + 1 has S = 1 (value 3) for m = 100 and S = 2 (value 7) for
    # m = 111 = 3 * 37; both lie inside the bound
    rep = verify_bound(parse_function("x^2+x+1"), "poly", (100, 111))
    assert rep.threshold == 40 and rep.clean


def poly_suite_scan(coeffs, lo, hi):
    """Plain reference for the poly bound suite: for each m past the
    threshold 10 * L * 2^d, the least x up to 10^4 whose value exceeds
    1 and is coprime to m, recorded when L * x^d >= m, or 0 when there
    is none."""
    d, L = len(coeffs) - 1, coeffs[-1]
    threshold = 10 * L * 2**d
    values = [(x, sum(c * x**i for i, c in enumerate(coeffs)))
              for x in range(1, 10**4 + 1)]
    bad = []
    for m in range(max(lo, threshold + 1), hi + 1):
        for x, v in values:
            if v > 1 and math.gcd(v, m) == 1:
                if L * x**d >= m:
                    bad.append((m, x))
                break
        else:
            bad.append((m, 0))
    return threshold, tuple(bad)


POLY_SUITE_CASES = [
    ("x^2+1", [1, 0, 1]),
    ("x^3+2", [2, 0, 0, 1]),
    ("2*x^2+3*x+5", [5, 3, 2]),
    ("x^4-3*x+7", [7, -3, 0, 0, 1]),
    ("x^2+x", [0, 1, 1]),
    ("x^2-x+2", [2, -1, 1]),
    ("3*x+6", [6, 3]),
]


@pytest.mark.parametrize("text, coeffs", POLY_SUITE_CASES,
                         ids=[text for text, _ in POLY_SUITE_CASES])
def test_poly_bound_suite_matches_plain_scan(text, coeffs):
    rep = verify_bound(parse_function(text), "poly", (2, 400))
    assert (rep.threshold, rep.violations) == poly_suite_scan(coeffs, 2, 400)


def test_linear_fermat_bound_suite():
    f = parse_function("2^(2^x)+1")
    rep = verify_bound(f, "linear_fermat", (2, 300))
    assert rep.clean


def test_bound_function_mismatch():
    with pytest.raises(BoundFunctionMismatch):
        verify_bound(parse_function("x^2"), "sqrt", (31, 100))
    with pytest.raises(BoundFunctionMismatch):
        verify_bound(parse_function("x"), "log2", (22, 100))
    with pytest.raises(BoundFunctionMismatch):
        verify_bound(parse_function("2^x-1"), "poly", (2, 100))


def test_exponent_identity():
    rep = exponent_identity_check((3, 2000))
    assert not rep.violations


def test_exponent_identity_direct():
    # gcd(m, 2^(phi(m)+1) - 1) = 1 for odd m, recomputed from scratch
    from primework.arith import euler_phi
    rng = random.Random(19)
    for _ in range(80):
        m = rng.randrange(3, 10**5) | 1
        e = euler_phi(m) + 1
        assert math.gcd(m, (pow(2, e, m) - 1) % m) == 1


def test_sqrt_witness_values_below_root():
    # spot-check the suite's underlying claim directly
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randrange(31, 10**6)
        rec = s_f(parse_function("x"), m)
        assert rec.values[0] ** 2 < m
