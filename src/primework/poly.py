"""Integer polynomials.

A dense polynomial is a list of integer coefficients, constant first;
the zero polynomial is [0].  Most of this module works on these lists:
Horner evaluation, the product of several, reduction mod p, x^e mod
(g, p), the gcd mod p, the distinct roots mod p, the exact resultant
by Bareiss elimination of the Sylvester matrix, and the Cauchy and
Fujiwara bounds past which the values leave [1, m-1].

A sparse normal form is a dict {exponent tuple: coefficient} without
zeros, in any number of variables.  It is added, multiplied, made
dense, and read for its fixed divisor, the gcd of all its values.

Roots mod a prime p come in closed form for linear members, from
Tonelli-Shanks on the discriminant for quadratics, and from degree 3
by Cantor-Zassenhaus splitting of gcd(x^p - x, f), the product of the
distinct linear factors of f mod p.  A binomial a*x^d + b*x^k with
k in {0, 1} and d >= 3 whose two terms survive mod an odd p is read in
closed form instead, since F_p^* is cyclic: with e = d - k, c = -b/a
and g = gcd(e, p - 1), x^e = c has g roots when c^((p-1)/g) = 1 and
none otherwise, the one root c^(1/e mod (p-1)) when g = 1, and x = 0
is a root besides when k = 1; only g > 1 with c an e-th power is
split.  density counts roots (omega(p)) with the gcd or that closed
form, taking no power at all when g = 1 (_binomial_count), and sieves
with the roots themselves (actual_count).

The Cauchy and Fujiwara bounds give an X past which a polynomial's
values leave [1, m-1]; the envelope takes the lesser.  Fujiwara's grows
like m^(1/d) where Cauchy's grows like m.
"""

from __future__ import annotations

import math

# --- sparse normal forms -------------------------------------------------

def _nf_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _nf_scale(a: dict, c: int) -> dict:
    return {k: v * c for k, v in a.items() if v * c != 0}


def _nf_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
            if out[k] == 0:
                del out[k]
    return out


def _dense(nf: dict) -> list[int]:
    """Dense coefficients (constant first) of a univariate normal form."""
    out = [0] * (max((k[0] for k in nf), default=0) + 1)
    for k, c in nf.items():
        out[k[0]] = c
    return out


def _fixed_divisor(nf: dict, g: int = 0) -> int:
    """gcd of g and the values of nf at every integer point (0 for the
    zero polynomial and g = 0).  By Polya's basis these are the values
    on the grid [0, d_1] x ... x [0, d_k] of the degrees in each
    variable, walked one variable at a time.  Once the gcd so far is
    g > 0, f(t, ...) = f(t - g, ...) mod g, so each t stops below g."""
    if not any(nf):  # no variable left: a constant, or zero
        return math.gcd(g, nf.get((), 0))
    for t in range(max(k[0] for k in nf) + 1):
        if 0 < g <= t:
            break
        sub: dict = {}
        for k, c in nf.items():
            sub[k[1:]] = sub.get(k[1:], 0) + c * t**k[0]
        g = _fixed_divisor(sub, g)
    return g


# --- dense polynomials ---------------------------------------------------


def _product_coeffs(coeff_lists: list[list[int]]) -> list[int]:
    prod = [1]
    for cs in coeff_lists:
        nxt = [0] * (len(prod) + len(cs) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(cs):
                nxt[i + j] += a * b
        prod = nxt
    return prod


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_mod(coeffs: list[int], p: int) -> list[int]:
    cs = [c % p for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _monic(g: list[int], p: int) -> list[int]:
    inv = pow(g[-1], -1, p)
    return [c * inv % p for c in g]


def _mulmod_monic(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a * b mod (g, p) for monic g, with a and b already reduced mod g."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(g) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] % p
        if c:
            for j in range(d):
                out[i - d + j] -= c * g[j]
    del out[d:]
    return [c % p for c in out]


def _x_pow_mod(g: list[int], e: int, p: int, a: int = 0) -> list[int]:
    """(x + a)^e mod (g, p) for monic g of degree >= 1, as a dense list
    of length deg g: left to right over the bits of e, squaring, then
    multiplying by x + a as a shift plus a multiple."""
    d = len(g) - 1
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        r = _mulmod_monic(r, r, g, p)
        if bit == "1":
            top = r[-1]
            shifted = [0] + r[:-1]
            if a:
                shifted = [s + a * c for s, c in zip(shifted, r)]
            if top or a:
                r = [(c - top * gc) % p for c, gc in zip(shifted, g)]
            else:
                r = shifted
    return r


def _poly_gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    while len(b) > 1 or b[0] != 0:
        inv = pow(b[-1], -1, p)
        r = a[:]
        while len(r) >= len(b) and (len(r) > 1 or r[0] != 0):
            f = r[-1] * inv % p
            off = len(r) - len(b)
            for j in range(len(b)):
                r[off + j] = (r[off + j] - f * b[j]) % p
            while len(r) > 1 and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
        a, b = b, r
    return a


def _poly_quo_monic(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b mod p for monic b dividing a."""
    r = a[:]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] % p
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    return q


def _root_part(g: list[int], p: int) -> list[int]:
    """gcd(x^p - x, g) for g reduced mod p of degree >= 1: the product
    of x - r over the distinct roots r of g, up to a unit."""
    g = _monic(g, p)
    h = _x_pow_mod(g, p, p) + [0]
    h[1] = (h[1] - 1) % p
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return _poly_gcd_mod(g, h, p)


def _distinct_roots_gcd(coeffs: list[int], p: int) -> int:
    """Distinct roots mod p as deg gcd(x^p - x, g)."""
    g = _poly_mod(coeffs, p)
    if g == [0]:
        return p
    if len(g) == 1:
        return 0
    return len(_root_part(g, p)) - 1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p (Tonelli-Shanks), or None
    when a is not a square mod p."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c = r * b % p, b * b % p
        t, s = t * c % p, i
    return r


def _low_degree_roots(g: list[int], p: int) -> list[int]:
    """Roots of g, reduced mod the odd prime p, of degree 1 or 2."""
    if len(g) == 2:
        return [-g[0] * pow(g[1], -1, p) % p]
    c, b, a = g
    s = sqrt_mod(b * b - 4 * a * c, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    return sorted({(s - b) * inv % p, (-s - b) * inv % p})


def _split(h: list[int], p: int, out: list[int]) -> None:
    """Append the roots of h, monic and a product of distinct linear
    factors mod the odd prime p, to out.  Cantor-Zassenhaus with the
    shifts a = 0, 1, 2, ...: gcd(h, (x + a)^((p-1)/2) - 1) takes the
    roots r with r + a a nonzero square, and for any two roots some a
    below p separates them."""
    if len(h) <= 3:
        if len(h) > 1:
            out.extend(_low_degree_roots(h, p))
        return
    a = 0
    while True:
        w = _x_pow_mod(h, (p - 1) // 2, p, a)
        w[0] = (w[0] - 1) % p
        while len(w) > 1 and w[-1] == 0:
            w.pop()
        g = _poly_gcd_mod(h, w, p)
        if 1 < len(g) < len(h):
            g = _monic(g, p)
            _split(g, p, out)
            _split(_poly_quo_monic(h, g, p), p, out)
            return
        a += 1


def _binomial(coeffs: list[int]) -> tuple[int, int, int, int] | None:
    """(a, d, b, k) when the polynomial is a*x^d + b*x^k with a and b
    nonzero, k in {0, 1} and d >= 3; None for any other shape."""
    d = len(coeffs) - 1
    if d < 3 or not coeffs[d]:
        return None
    terms = [i for i, c in enumerate(coeffs) if c]
    if len(terms) != 2 or terms[0] > 1:
        return None
    k = terms[0]
    return coeffs[d], d, coeffs[k], k


def _binomial_count(a: int, d: int, b: int, k: int, p: int) -> int:
    """The number of distinct roots of a*x^d + b*x^k mod the odd prime p
    dividing neither a nor b, by the closed form in the module
    docstring: no power is taken when g = 1, one power of c otherwise,
    and no root is found."""
    g = math.gcd(d - k, p - 1)
    if g > 1 and pow(-b * pow(a, -1, p), (p - 1) // g, p) != 1:
        return k
    return g + k


def _binomial_roots(a: int, d: int, b: int, k: int,
                    p: int) -> list[int] | None:
    """The ascending distinct roots of a*x^d + b*x^k mod the odd prime p
    dividing neither a nor b, by the closed form in the module
    docstring; None when g > 1 and c is an e-th power, where the roots
    need a splitting."""
    e = d - k
    c = -b * pow(a, -1, p) % p
    g = math.gcd(e, p - 1)
    zero = [0] if k else []
    if pow(c, (p - 1) // g, p) != 1:
        return zero
    if g == 1:
        return zero + [pow(c, pow(e, -1, p - 1), p)]
    return None


def roots_mod(coeffs: list[int], p: int) -> list[int]:
    """The distinct roots of the polynomial mod the prime p, ascending;
    every residue when it vanishes identically mod p."""
    g = _poly_mod(coeffs, p)
    if g == [0]:
        return list(range(p))
    if len(g) == 1:
        return []
    if p == 2:
        return [r for r, v in ((0, g[0]), (1, sum(g))) if v % 2 == 0]
    if len(g) <= 3:
        return _low_degree_roots(g, p)
    binomial = _binomial(g)
    if binomial is not None:
        roots = _binomial_roots(*binomial, p)
        if roots is not None:
            return roots
    out: list[int] = []
    _split(_monic(_root_part(g, p), p), p, out)
    return sorted(out)


def _cauchy_outside(coeffs: list[int], m: int) -> int:
    """Least X with every integer x >= X outside [1, m-1] for the given
    univariate polynomial (nonconstant)."""
    d = len(coeffs) - 1
    lead = coeffs[d]
    bound = 0.0
    for shift in (1, m - 1):
        shifted0 = coeffs[0] - shift
        top = max([abs(c) for c in coeffs[1:d]] + [abs(shifted0)], default=0)
        bound = max(bound, 1.0 + top / abs(lead))
    return int(bound) + 1


def _ceil_root(n: int, j: int) -> int:
    """Least t >= 0 with t^j >= n, for n >= 0 and j >= 1: Newton's
    iteration from above gives the floor of the j-th root."""
    if n <= 1:
        return n
    t = 1 << -(-n.bit_length() // j)
    while True:
        s = ((j - 1) * t + n // t ** (j - 1)) // j
        if s >= t:
            break
        t = s
    return t if t**j >= n else t + 1


def _fujiwara_outside(coeffs: list[int], m: int) -> int:
    """An X with every integer x >= X outside [1, m-1] for the given
    univariate polynomial (nonconstant), on the side of its lead.
    Fujiwara: every root of sum a_i x^i has modulus at most 2 max_i
    |a_i / a_d|^(1/(d-i)), with a_0 / 2 in place of a_0; here each
    term is rounded up to an integer root of an integer, for f - 1 and
    for f - (m-1), and X is one past twice the largest."""
    d = len(coeffs) - 1
    lead = abs(coeffs[d])
    top = max(_ceil_root(-(-abs(coeffs[0] - shift) // (2 * lead)), d)
              for shift in (1, m - 1))
    for i in range(1, d):
        top = max(top, _ceil_root(-(-abs(coeffs[i]) // lead), d - i))
    return 2 * top + 1


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free
    (Bareiss) elimination; every division is exact."""
    m = [row[:] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            lead = m[i][k]
            m[i] = [0] * (k + 1) + [(pivot * a - lead * b) // prev for a, b
                                    in zip(m[i][k + 1:], m[k][k + 1:])]
        prev = pivot
    return sign * m[-1][-1] if n else 1


def _sylvester(a: list[int], b: list[int]) -> list[list[int]]:
    """Sylvester matrix of two polynomials given ascending, of formal
    degrees len - 1."""
    da, db = len(a) - 1, len(b) - 1
    rows = []
    for cs, shifts in ((a, db), (b, da)):
        desc = cs[::-1]
        for i in range(shifts):
            rows.append([0] * i + desc + [0] * (shifts - 1 - i))
    return rows
