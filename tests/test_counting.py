"""Unit-pattern counting and maximum pairwise-coprime subsets."""

import math
import random

import pytest

from primework.arith import euler_phi, sieve_primes
from primework.config import DEFAULT_CONFIG
from primework.counting import (implication_check, phi_general,
                                pi_general_exact, pi_general_greedy)
from primework.errors import CapExceeded
from primework.expr import parse_function, parse_system


def test_phi_identity_equals_totient():
    f = parse_function("x")
    for n in range(2, 300):
        res = phi_general((f,), n)
        assert res.exact
        assert res.count == euler_phi(n), n


def test_phi_identity_random_larger():
    f = parse_function("x")
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randrange(2, 10**5)
        assert phi_general((f,), n).count == euler_phi(n)


def test_phi_twin_system_brute_force():
    # raw value tuples, both components inside [1, n) and coprime to n
    fs = parse_system("x; x+2")
    for n in (5, 9, 15, 30):
        res = phi_general(fs, n)
        seen = set()
        for x in range(1, 4 * n):
            t = (x, x + 2)
            if all(1 <= c < n and math.gcd(c, n) == 1 for c in t):
                seen.add(t)
        assert res.count == len(seen), n


def test_phi_square_brute_force():
    fs = (parse_function("x^2"),)
    for n in (5, 7, 12, 20):
        res = phi_general(fs, n)
        seen = {x * x for x in range(1, 2 * n)
                if 1 <= x * x < n and math.gcd(x * x, n) == 1}
        assert res.count == len(seen), n


def test_pi_identity_equals_prime_count():
    f = parse_function("x")
    primes = set(sieve_primes(200))
    for x in (2, 10, 50, 120, 200):
        res = pi_general_exact(f, x, cap=256)
        assert res.enumeration_complete
        want = sum(1 for p in primes if p <= x)
        assert res.value == want, x
        # the subset it found is genuinely pairwise coprime
        vals = sorted(res.subset)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert math.gcd(vals[i], vals[j]) == 1


def test_pi_mersenne_small():
    # values 3,7,31,127 <= 200: maximum pairwise-coprime subset is all
    # prime-exponent terms with pairwise coprime exponents
    f = parse_function("2^x-1")
    res = pi_general_exact(f, 200, cap=64)
    vals = sorted(res.subset)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert math.gcd(vals[i], vals[j]) == 1
    assert res.value == len(vals)
    assert res.value >= 4  # 3, 7, 31, 127


def test_pi_greedy_lower_bound():
    rng = random.Random(43)
    fns = [parse_function(s) for s in ("x", "x^2+1", "x^2+x+1")]
    for _ in range(40):
        f = rng.choice(fns)
        x = rng.randrange(5, 120)
        exact = pi_general_exact(f, x, cap=256).value
        greedy = pi_general_greedy(f, x).value
        assert greedy <= exact
        assert greedy >= 1


def test_pi_cap_guard():
    f = parse_function("x")
    with pytest.raises(CapExceeded):
        pi_general_exact(f, 2000, cap=16)


def test_pi_exact_beats_or_ties_greedy_seeded():
    # the branch and bound must never return less than its greedy seed
    f = parse_function("x^2+1")
    for x in (20, 60, 110):
        assert (pi_general_exact(f, x, cap=256).value
                >= pi_general_greedy(f, x).value)


def test_implication_identity_empty():
    f = parse_function("x")
    assert implication_check(f, (2, 60)) == []


def test_implication_small_corpus_empty():
    for text in ("x^2+1", "x^3+1", "2*x+1"):
        assert implication_check(parse_function(text), (2, 40)) == [], text


def test_phi_budget_cut_is_not_exact():
    f = parse_function("x^2+1")
    full = phi_general((f,), 1000)
    assert full.exact
    # 6^2 + 1 = 37 needs 6 bits: the scan stops inside the envelope box
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=5)
    res = phi_general((f,), 1000, config=tight)
    assert not res.exact and res.box == full.box


def test_phi_box_past_the_envelope_stays_exact():
    # F(x) for x >= 25 is over the bit budget, but the envelope already
    # rules out every x >= 4 mod 97, so the box past it is not scanned
    f = parse_function("2^(2^x)+1")
    res = phi_general((f,), 97, box=30)
    assert res.exact and res.box == 30 and res.count == 2


def test_pi_budget_cut_is_not_complete():
    f = parse_function("x^2+1")
    assert pi_general_exact(f, 500).enumeration_complete
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=5)
    assert not pi_general_exact(f, 500, config=tight).enumeration_complete


def test_decreasing_exponential_has_an_envelope():
    # -2*3^x + 5 is -1 at x = 1 and falls from there: no value is ever in
    # range, and the envelope says so without a fallback box
    f = parse_function("-2*3^x+5")
    res = phi_general((f,), 10)
    assert res.exact and (res.count, res.box) == (0, 0)
    pi = pi_general_exact(f, 50)
    assert pi.enumeration_complete and pi.value == 0
    # -2*3^x + 500 is 14 at x = 5 and -958 at x = 6
    g = parse_function("-2*3^x+500")
    res = phi_general((g,), 1001)
    assert res.exact and res.box == 5
    assert res.count == len({v for v in (494, 482, 446, 338, 14)
                             if math.gcd(v, 1001) == 1})
    pi = pi_general_exact(g, 500)
    assert pi.enumeration_complete and pi.value == 1
