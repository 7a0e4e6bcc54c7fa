"""Reference arithmetic for the benchmark's generators and oracles.

Everything here is written anew on the standard library alone and
never imports primework, so an oracle built on it checks an answer
without going through the layer that produced it.

Shapes are the JSON-ready descriptors the generators emit next to each
expression text:

  ["poly", [c0, c1, ...]]          c0 + c1*x + ...
  ["poly2", [[i, j, c], ...]]      sum of c * x^i * y^j
  ["exp", b, c]                    b^x + c
  ["cexp", c, d]                   c*2^x + d
  ["fermat"]                       2^(2^x) + 1
  ["floor", [c0, ...], q]          floor((c0 + c1*x + ...) / q)
  ["piecewise", t, [a0, ...], [b0, ...]]
                                   x <= t: poly a, else: poly b
"""

from __future__ import annotations

import math


def horner(coeffs, x):
    """Exact value of the polynomial with constant-first coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_text(coeffs):
    """Render constant-first coefficients the way the acceptance corpus
    does: highest degree first, signed integer coefficients, zero terms
    left out."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c:+d}")
        elif i == 1:
            parts.append(f"{c:+d}*x")
        else:
            parts.append(f"{c:+d}*x^{i}")
    return "".join(parts).lstrip("+") or "0"


def shape_arity(shape):
    return 2 if shape[0] == "poly2" else 1


def eval_shape(shape, point):
    """Exact value of a generated shape at a point of positive integers."""
    kind = shape[0]
    x = point[0]
    if kind == "poly":
        return horner(shape[1], x)
    if kind == "poly2":
        y = point[1]
        return sum(c * x**i * y**j for i, j, c in shape[1])
    if kind == "exp":
        return shape[1]**x + shape[2]
    if kind == "cexp":
        return shape[1] * 2**x + shape[2]
    if kind == "fermat":
        return 2**(2**x) + 1
    if kind == "floor":
        return horner(shape[1], x) // shape[2]
    if kind == "piecewise":
        return horner(shape[2] if x <= shape[1] else shape[3], x)
    raise ValueError(f"unknown shape {kind!r}")


def points(arity, limit):
    """Points of [1, limit]^arity by max-norm, then lexicographically:
    the scan order the README documents for witnesses."""
    if arity == 1:
        for n in range(1, limit + 1):
            yield (n,)
        return
    for n in range(1, limit + 1):
        for x in range(1, n + 1):
            if x == n:
                for y in range(1, n + 1):
                    yield (x, y)
            else:
                yield (x, n)


def first_point(shapes, accept, count=None, before=None):
    """The first point in scan order whose member values satisfy accept,
    among the first `count` points or among the points before the point
    `before`; None when there is none."""
    arity = max(shape_arity(s) for s in shapes)
    side = count if before is None else max(before)
    for k, point in enumerate(points(arity, side)):
        if k == count or point == before:
            return None
        if accept([eval_shape(s, point) for s in shapes]):
            return point
    return None


def attained_values(shape, limit):
    """Distinct values in (1, limit] of a univariate shape, scanning x
    below 10^4 until a value passes the limit after x = 12 (past the
    early dip of a polynomial)."""
    values = set()
    for x in range(1, 10**4):
        v = eval_shape(shape, (x,))
        if v > limit and x > 12:
            break
        if 1 < v <= limit:
            values.add(v)
    return values


def values_gcd(shape):
    """gcd of the values at x = 1..24.  For a polynomial of degree at
    most 23 this is its fixed divisor, the gcd of all its values."""
    g = 0
    for x in range(1, 25):
        g = math.gcd(g, eval_shape(shape, (x,)))
    return g


def divides_every_value(shape, p):
    """Does the prime p divide the value at every x >= 1?  Decided from
    one residue period: p residues for a polynomial, x = 1..p for b^x + c
    and c*2^x + d (the powers mod p repeat with a period dividing p - 1,
    or are 0 from x = 1 on when p divides the base).  False for the
    other shapes, which have no such period."""
    kind = shape[0]
    if kind == "poly":
        return all(horner(shape[1], r) % p == 0 for r in range(p))
    if kind in ("exp", "cexp"):
        return all(eval_shape(shape, (x,)) % p == 0 for x in range(1, p + 1))
    return False


def sieve(limit):
    """bytearray flags: flags[i] == 1 exactly when i is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"[:limit + 1]
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def least_primes_mod(k, flags):
    """[[l, least prime p = l mod k with p = l + n*k, n >= 0]] for every l
    in [1, k] coprime to k, from sieve flags that reach far enough."""
    out = []
    for l in range(1, k + 1):
        if math.gcd(l, k) == 1:
            v = l
            while v < 2 or not flags[v]:
                v += k
            out.append([l, v])
    return out


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 prime bases is exact below this bound.
PROVABLE_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Exact primality for n < PROVABLE_BELOW; None above it."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n >= PROVABLE_BELOW:
        return None
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Distinct prime factors of n >= 1 by trial division (n <= ~10^12)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def fixed_prime_of(coeffs, m):
    """A prime p | m that divides the polynomial at every residue mod p,
    or None."""
    for p in prime_factors(m):
        if all(horner(coeffs, r) % p == 0 for r in range(p)):
            return p
    return None
