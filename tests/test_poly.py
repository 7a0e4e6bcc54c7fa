"""Polynomials: roots mod p, square roots mod p and fixed divisors
against brute force."""

import itertools
import math
import random

from primework.arith import sieve_primes
from primework.poly import (_cauchy_outside, _ceil_root, _fixed_divisor,
                            _fujiwara_outside, _horner, _nf_add, _nf_mul,
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
    members += _binomials()
    return members


def _binomials():
    """a*x^d + b*x^k, the shapes roots_mod reads in closed form."""
    rng = random.Random(20261019)
    members = []
    for d in range(3, 10):
        for k in (0, 1):
            a = rng.choice([-12, -6, -4, -3, -2, -1, 1, 2, 6, 12])
            cs = [0] * (d + 1)
            cs[d], cs[k] = a, rng.choice([-1, 1]) * rng.randint(1, 10**4)
            members.append(cs)
    members += [
        [10, 0, 0, 0, 0, 5],           # 5x^5 + 10: zero mod 5
        [-7, 0, 0, 0, 0, 0, 0, 1],     # x^7 - 7: 7 | e, x^7 alone mod 7
        [-2, 0, 0, 0, 0, 0, 0, 1],     # x^7 - 2: 7 | e, both terms mod 7
        [0, 3, 0, 0, 0, 0, 0, -7],     # -7x^7 + 3x: the lead vanishes mod 7
        [1, 0, 0, 0, 0, 0, 1],         # x^6 + 1: six roots mod 13
        [-1, 0, 0, 0, 0, 0, 0, 0, 1],  # x^8 - 1: g roots mod every p
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


def test_binomials_take_every_closed_form_branch():
    # x^e = c with c an e-th power and g = gcd(e, p - 1) above 1, with
    # g = 1, and with c no e-th power, with and without the root 0
    seen = set()
    for cs in _binomials():
        d = len(cs) - 1
        k = next(i for i, c in enumerate(cs) if c)
        for p in PRIMES[1:]:
            if cs[d] % p and cs[k] % p:
                g = math.gcd(d - k, p - 1)
                roots = len(roots_mod(cs, p)) - k
                seen.add((k, g > 1, roots > 0))
    assert seen == {(k, big, any_) for k in (0, 1) for big in (False, True)
                    for any_ in (False, True)} - {(0, False, False),
                                                   (1, False, False)}


def test_ceil_root_is_the_least_integer_root():
    rng = random.Random(3)
    cases = [(0, 1), (1, 5), (2, 1), (8, 3), (9, 3), (10**40, 4)]
    cases += [(rng.randint(0, 10**rng.randint(1, 60)), rng.randint(1, 9))
              for _ in range(300)]
    for n, j in cases:
        t = _ceil_root(n, j)
        assert t**j >= n and (t == 0 or (t - 1)**j < n), (n, j)


def test_fujiwara_bound_is_a_tail_certificate():
    # past X every value lies outside [1, m-1] on the side of the lead
    rng = random.Random(1957)
    for _ in range(200):
        deg = rng.randint(1, 5)
        cs = [rng.randint(-10**4, 10**4) for _ in range(deg)]
        cs.append(rng.choice([c for c in range(-9, 10) if c]))
        m = rng.choice([2, 3, 100, rng.randint(2, 10**8)])
        x0 = _fujiwara_outside(cs, m)
        for x in range(x0, x0 + 50):
            v = _horner(cs, x)
            assert (v >= m) if cs[-1] > 0 else (v < 1), (cs, m, x)


def test_fujiwara_bound_grows_like_the_root_of_m():
    # no monotone envelope: the Cauchy bound is about m / |lead|, the
    # Fujiwara bound about 2 (m / |lead|)^(1/d)
    b = 10**5 + 1
    for cs in ([5, -3, 1], [-1, -1, 2]):
        assert _cauchy_outside(cs, b) > 4 * 10**4
        assert _fujiwara_outside(cs, b) <= 2 * math.isqrt(b) + 3
