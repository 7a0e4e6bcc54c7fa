"""Polynomials: roots mod p, square roots mod p and fixed divisors
against brute force."""

import itertools
import math
import random

from primework.arith import sieve_primes
from primework.poly import (_fixed_divisor, _horner, _nf_add, _nf_mul,
                            _nf_scale, roots_mod, sqrt_mod)

PRIMES = sieve_primes(3000)
LIMIT = PRIMES[-1]


def _members():
    rng = random.Random(20261018)
    members = []
    for deg in range(1, 6):
        for _ in range(3):
            cs = [rng.randint(-10**6, 10**6) for _ in range(deg)]
            cs.append(rng.choice([c for c in range(-30, 31) if c]))
            members.append(cs)
    members += [
        [5, 0, 30030],            # lead divisible by 2, 3, 5, 7, 11, 13
        [1, 4, 0, 2310],          # lead divisible by p, degree 3 to 1
        [9, 6, 0, 3],             # every coefficient divisible by 3
        [30, 60, 90],             # ... by 2, 3 and 5
        [2, -3, 0, 1],            # (x - 1)^2 (x + 2): a repeated root
        [1, 0, 2, 0, 1],          # (x^2 + 1)^2
        [-1, 5, -10, 10, -5, 1],  # (x - 1)^5
        [0, -1, 0, 1],            # x^3 - x, every residue mod 3
        [0, -1, 0, 0, 0, 1],      # x^5 - x, every residue mod 5
        [0],                      # the zero member
        [7],                      # a constant
        [0, 0, 0, 1],             # x^3: only the root 0
    ]
    return members


def _brute(cs, values, p):
    return [x for x in range(p) if values[x] % p == 0]


def test_roots_mod_match_brute_force_below_3000():
    for cs in _members():
        values = [_horner(cs, x) for x in range(LIMIT)]
        for p in PRIMES:
            assert roots_mod(cs, p) == _brute(cs, values, p), (cs, p)


def test_sqrt_mod_below_3000():
    rng = random.Random(7)
    for p in PRIMES:
        squares = {x * x % p for x in range(p)}
        sample = range(p) if p < 400 else (
            [rng.randrange(p) for _ in range(60)] + [p - 1, p + 4, -3])
        for a in sample:
            r = sqrt_mod(a, p)
            if a % p in squares:
                assert 0 <= r < p and r * r % p == a % p, (a, p)
            else:
                assert r is None, (a, p)


def _falling(var, j, arity):
    """x_var (x_var - 1) ... (x_var - j + 1) as a normal form; its values
    are all divisible by j!."""
    out = {(0,) * arity: 1}
    for t in range(j):
        x = {tuple(int(i == var) for i in range(arity)): 1}
        out = _nf_mul(out, _nf_add(x, {(0,) * arity: -t} if t else {}))
    return out


def _random_nf(rng, arity, deg):
    """A normal form of degree <= deg in each variable, often with a
    fixed divisor above 1: a scaled sum of falling products plus a
    random multiple of their least common fixed divisor."""
    nf = {}
    for var in range(arity):
        j = rng.randint(0, deg)
        nf = _nf_add(nf, _nf_scale(_falling(var, j, arity),
                                   rng.randint(-9, 9)))
    rest = {k: rng.randint(-20, 20)
            for k in itertools.product(range(deg + 1), repeat=arity)
            if rng.random() < 0.4}
    nf = _nf_add(nf, _nf_scale({k: c for k, c in rest.items() if c},
                               rng.choice([1, 2, 6, 24])))
    return _nf_scale(nf, rng.choice([1, 1, -1, 3, -5]))


def _brute_fixed_divisor(nf, arity, deg):
    g = 0
    for point in itertools.product(range(-3, 2 * deg + 4), repeat=arity):
        g = math.gcd(g, sum(c * math.prod(t**e for t, e in zip(point, k))
                            for k, c in nf.items()))
    return g


def test_fixed_divisor_matches_a_wider_box():
    rng = random.Random(1915)
    cases = [({}, 1, 0), ({(0,): 7}, 1, 0), ({(0,): -12}, 1, 0),
             ({(3,): 1, (1,): -1}, 1, 3),       # x^3 - x: 6
             ({(2,): -2, (1,): 2}, 1, 2),       # -2x^2 + 2x: 4
             ({(1, 1): 3, (0, 0): 3}, 2, 1)]    # 3xy + 3: 3
    for deg in range(7):
        cases += [(_random_nf(rng, 1, deg), 1, deg) for _ in range(12)]
    for deg in range(4):
        cases += [(_random_nf(rng, 2, deg), 2, deg) for _ in range(8)]
    for deg in range(3):
        cases += [(_random_nf(rng, 3, deg), 3, deg) for _ in range(4)]
    nontrivial = 0
    for nf, arity, deg in cases:
        fd = _brute_fixed_divisor(nf, arity, deg)
        assert _fixed_divisor(nf) == fd, nf
        nontrivial += fd > 1
    assert nontrivial > len(cases) // 3
    # negative leads are among the random ones
    assert any(nf and nf[max(nf)] < 0 for nf, arity, _ in cases if arity == 1)
