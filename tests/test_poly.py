"""Dense polynomials: roots mod p and square roots mod p against brute
force."""

import random

from primework.arith import sieve_primes
from primework.poly import _horner, roots_mod, sqrt_mod

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
