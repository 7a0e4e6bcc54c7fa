"""Quantitative estimates: how many primes should a system produce.

The hard part is the singular-series constant C: a product over primes
of (1 - omega(p)/p) / (1 - 1/p)^s, where omega(p) counts roots of the
product polynomial mod p.  It converges slowly, so the partial product
is always reported with its cutoff and a convergence indicator, and
accumulation runs over exactly-summed logs in ascending prime order so
results are bit-stable regardless of chunking.

Each system is analysed once, not once per query: what pays back is one
parsed system asked again and again.  Its record (_System), kept on its
first member's analysis and keyed by the members' coefficients, holds
one bulk root counter, omegas(primes) -> [omega(p), ...], the fixed
divisor of the product (on its first constant), and the terms
log(1 - omega(p)/p) - s log(1 - 1/p) as one array('d'), 8 bytes a
prime, aligned with the sieve's prime table up to the largest cutoff
asked so far.  A constant is the obstruction check and one exact fsum
over a prefix of the terms, one more for the snapshot at cutoff/10
(found by bisection); only primes past the kept prefix are counted,
each term is the same expression on the same floats, and fsum is exact,
so a constant does not depend on the order of the queries.
sieve_primes still runs on every query, with its memory check under the
caller's config, and charges 48 bytes a prime, so the kept terms (8
bytes a prime once packed, 32 as a first constant's list) take at most
two thirds of what the call that kept them was charged.  The primes
come from the sieve's retained table, so they are not tested for
primality again; only the public omega_p, which takes an arbitrary p,
checks it.  The tables live as long as the member that holds them.  A
system asked only once pays nothing for them: a first constant keeps
the list of terms it has built, packed into the array when the system
is asked again, and a member's roots are kept from its second count on.

The counter forms E = 2 * lc(P) * Res(P, P') once, the resultant of the
product P and its derivative taken exactly by Bareiss elimination.  For
p not dividing E, P is squarefree of full degree mod p, so omega(p) is a
sum over the members: 1 for a linear member; 1 + (D/p) for a quadratic
one of discriminant D, where D = 0 or 1 mod 4 makes (D/p) depend only
on p mod |D| for odd p not dividing D (quadratic reciprocity), so the
symbol is taken once per class by Euler's criterion and kept in a memo
keyed by p mod |D|, filled only at such p (2 | E keeps p = 2 out); for
a binomial a*x^d + b*x^k (k in {0, 1}, d >= 3) with g = gcd(d - k,
p - 1), k + 1 when g = 1, with no power taken, and otherwise k + g when
one power of -b/a is 1 and k when not (a count only, no root is
found; p is odd and prime to a and b, whose primes all divide E); and
deg gcd(x^p - x, f mod p) for any other member f of degree 3 or more.
The finitely many p dividing E, and every p when E = 0, count the
roots of P itself by that gcd.

omega(p) = p exactly when p divides every value of P, so only a p
dividing E or at most deg P can be an obstruction; the constant reads
it, before any omega(p), as the least prime factor of P's fixed
divisor (poly's exact gcd over d + 1 values), and a system without one
gets its constant from the counts alone.

actual_count sieves over n instead of testing every value.  With a
bound B (from m, a bound on the values and the degrees: up to the
square root of the largest value, at most m for degree <= 2 and
10 * sqrt(m) from degree 3), one bytearray over n in [1, m] strikes
every n = r (mod p) for each prime p <= B and each root r of a member
mod p.  Each member keeps its roots (_Roots, on its analysis) as pairs
(p, r) in two flat array('I')s, 8 bytes a root, solved by roots_mod
only past the largest B asked so far, and kept from its second count
on.  Only n below X are evaluated exactly, where X is the largest of
the members' thresholds envelope_outside_bound(f_i, B + 1); for a
member with no monotone envelope that is the lesser of its Cauchy
bound, which grows like B, and its Fujiwara bound, about
2 (B/|lc|)^(1/d).  Past X every value exceeds B, so p | f_i(n) makes
f_i(n) composite (and a member below 1 there ends the count at X).  A
surviving n is counted at once when (B + 1)^2 exceeds every value, and
otherwise tested by Horner and is_prime.  The bytearray and the prime
flags need about m + B bytes (m + the largest value when that is at
most 10^7, the flags ceiling: the flags then test every exact value
too), checked against config.sieve_memory_cap on every call before
either is built.  New roots are kept only while the kept roots of the
system's members and those tables together stay under the cap; past
that they are struck and dropped.  A root table is never changed but
replaced whole, so a growth cut short leaves the one before it.  The
polynomial helpers (roots mod p, the binomial closed form, the gcd
route, the resultant, the root bounds) live in poly.

least_prime_ap reads the progressions off one table of prime flags
up to k * ceil(ln k)^2, past the least primes of every progression
mod k if Heath-Brown's conjecture p(l, k) << k (log k)^2 holds with
that constant, clipped to the horizon's last value, the flags ceiling
and one byte under the sieve memory cap, so the table is never refused;
a value past the table is tested by is_prime.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from dataclasses import dataclass

from .analysis import (_analysis, _Scan, envelope_outside_bound, iter_points,
                       univariate_coeffs)
from .arith import (_check_sieve_budget, euler_phi, is_prime, prime_flags,
                    sieve_primes)
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import (EvaluationBudgetExceeded, InvalidArgument, NotCoprime,
                     NotUnivariatePolynomial)
from .expr import FunctionSystem, NtFunction
from .poly import (_bareiss_det, _binomial, _binomial_count,
                   _distinct_roots_gcd, _fixed_divisor, _horner,
                   _product_coeffs, _sylvester, roots_mod)

# The largest prime-flag table built to test values: past it, one
# is_prime call per value.
_FLAGS_CEILING = 10**7


def _flag_test(flags: bytearray, config: WorkbenchConfig):
    """n -> whether n >= 0 is prime: the flags below their length, then
    is_prime."""
    return lambda n: flags[n] if n < len(flags) else is_prime(n, config)


def _root_counter(coeff_lists: list[list[int]]):
    """primes -> [omega(p) for p in primes] for one system: roots of the
    product P of the members mod p among 0..p-1, by the rule in the
    module docstring.  Every p is trusted to be prime.  E = 0 when P has
    a repeated factor, is constant or is zero (a zero member)."""
    product = _product_coeffs(coeff_lists)
    if len(product) > 1 and product[-1]:
        deriv = [i * c for i, c in enumerate(product)][1:]
        e = 2 * product[-1] * _bareiss_det(_sylvester(product, deriv))
    else:
        e = 0
    linear = sum(1 for cs in coeff_lists if len(cs) == 2)
    discs = [b * b - 4 * a * c for c, b, a in
             (cs for cs in coeff_lists if len(cs) == 3)]
    # per quadratic member: D, |D| and a memo {p mod |D|: 1 + (D/p)}
    quadratics = [(d, abs(d), {}) for d in discs]
    shapes = [(cs, _binomial(cs)) for cs in coeff_lists if len(cs) > 3]
    binomials = [b for _, b in shapes if b is not None]
    others = [cs for cs, b in shapes if b is None]

    def count(p: int) -> int:
        # p odd and prime to E, so to every D and to a and b
        w = linear
        for d, size, memo in quadratics:
            roots = memo.get(p % size)
            if roots is None:
                roots = memo[p % size] = (2 if pow(d, (p - 1) // 2, p) == 1
                                          else 0)
            w += roots
        for b in binomials:
            w += _binomial_count(*b, p)
        for cs in others:
            w += _distinct_roots_gcd(cs, p)
        return w

    def omegas(primes) -> list[int]:
        if not (quadratics or binomials or others):  # no call per prime
            return [linear if e % p else _distinct_roots_gcd(product, p)
                    for p in primes]
        return [count(p) if e % p else _distinct_roots_gcd(product, p)
                for p in primes]
    return omegas


@dataclass(frozen=True)
class BhConstant:
    value: float
    cutoff: int
    relative_change: float  # |C(P) - C(P/10)| / C(P), 0 when C = 0
    obstruction: int | None  # prime with omega(p) = p, forcing C = 0


class _System:
    """What one system needs per prime, built once and kept on its first
    member's analysis: the bulk root counter, the fixed divisor of the
    product P (on the first constant), and one term
    log(1 - omega(p)/p) - s log(1 - 1/p) per prime, in the order of the
    prime table, for every prime up to the largest cutoff asked so far
    without an obstruction."""

    __slots__ = ("coeff_lists", "omegas", "fixed_divisor", "terms")

    def __init__(self, coeff_lists: list[list[int]]):
        self.coeff_lists = coeff_lists
        self.omegas = _root_counter(coeff_lists)
        self.fixed_divisor: int | None = None  # on the first constant
        self.terms: list[float] | array = []

    def obstruction(self, primes: list[int]) -> int | None:
        """The least p in primes with omega(p) = p: the least prime
        factor of the fixed divisor of P, since p divides every value of
        P exactly when P vanishes at every residue mod p."""
        if self.fixed_divisor is None:
            product = _product_coeffs(self.coeff_lists)
            self.fixed_divisor = _fixed_divisor(
                {(i,): c for i, c in enumerate(product) if c})
        fd = self.fixed_divisor
        if fd == 1:
            return None
        return next((p for p in primes if fd % p == 0), None)

    def constant(self, prime_cutoff: int,
                 config: WorkbenchConfig) -> BhConstant:
        # the sieve runs, with its memory check, whatever is kept
        primes = sieve_primes(prime_cutoff, config)
        obstruction = self.obstruction(primes)
        if obstruction is not None:
            return BhConstant(0.0, prime_cutoff, 0.0, obstruction)
        terms, k = self.terms, len(primes)
        if type(terms) is list and terms:  # asked again: 8 bytes a term
            terms = self.terms = array("d", terms)
        if len(terms) < k:
            new = primes[len(terms):]
            s, log1p = len(self.coeff_lists), math.log1p
            fresh = [log1p(-w / p) - s * log1p(-1.0 / p)
                     for p, w in zip(new, self.omegas(new))]
            if terms:
                terms.fromlist(fresh)
            else:  # a first constant keeps its list as built, at no cost
                terms = self.terms = fresh
        head = terms if len(terms) == k else terms[:k]
        value = math.exp(math.fsum(head))
        snapshot_terms = bisect.bisect_right(primes, prime_cutoff // 10)
        if snapshot_terms and snapshot_terms < k and value:
            earlier = math.exp(math.fsum(head[:snapshot_terms]))
            rel = abs(value - earlier) / value
        else:
            rel = 0.0
        return BhConstant(value, prime_cutoff, rel, None)


def _system(fs: FunctionSystem) -> _System:
    """The system's record, built on first use.  It is keyed by the
    members' coefficients on the first member's analysis, so it holds no
    other function and is freed with that member.  A member that is not
    a univariate polynomial raises NotUnivariatePolynomial."""
    coeff_lists = [univariate_coeffs(f) for f in fs]
    if not fs:
        return _System(coeff_lists)
    records = _analysis(fs[0]).systems
    key = tuple(map(tuple, coeff_lists))
    record = records.get(key)
    if record is None:
        record = records[key] = _System(coeff_lists)
    return record


def omega_p(fs: FunctionSystem, p: int,
            config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Roots of f_1(x)*...*f_s(x) mod p among 0..p-1, exactly."""
    system = _system(fs)
    if not is_prime(p, config):
        raise InvalidArgument(f"{p} is not prime")
    return system.omegas([p])[0]


def bateman_horn_constant(fs: FunctionSystem, prime_cutoff: int,
                          config: WorkbenchConfig = DEFAULT_CONFIG) -> BhConstant:
    """Partial singular-series product over primes <= cutoff.

    A prime with omega(p) = p is a divisibility obstruction: the system
    can produce at most finitely many primes and C is reported as 0,
    flagged, rather than raised."""
    return _system(fs).constant(prime_cutoff, config)


@dataclass(frozen=True)
class PredictedCount:
    m: int
    constant: float
    sum_form: float  # C / prod(d_i) * sum_{n=2..m} 1 / (log n)^s
    closed_form: float  # C / prod(d_i) * m / (log m)^s


def predicted_count(fs: FunctionSystem, m: int, prime_cutoff: int = 10**5,
                    config: WorkbenchConfig = DEFAULT_CONFIG) -> PredictedCount:
    """Both textbook shapes of the predicted prime count up to m; the
    sum form is the one to trust at desk scale."""
    degrees = _prediction_degrees(fs, m)
    c = bateman_horn_constant(fs, prime_cutoff, config).value
    return _prediction(degrees, m, c)


def _prediction_degrees(fs: FunctionSystem, m: int) -> list[int]:
    """The members' degrees; a constant or zero member, and then m < 2,
    have no prediction and are refused."""
    degrees = []
    for f in fs:
        d = len(univariate_coeffs(f)) - 1
        if not d:
            raise NotUnivariatePolynomial(str(f))
        degrees.append(d)
    if m < 2:
        raise InvalidArgument("m must be at least 2")
    return degrees


def _prediction(degrees: list[int], m: int, c: float) -> PredictedCount:
    s = len(degrees)
    scale = c / math.prod(degrees)
    total = math.fsum(math.log(n) ** -s for n in range(2, m + 1))
    return PredictedCount(m, c, scale * total, scale * m / math.log(m) ** s)


class _Roots:
    """One member's roots mod every prime up to `limit`, for the sieve of
    actual_count: a pair (p, r) per root, in ascending p and then r, as
    two flat array('I')s, 8 bytes a root.  A table is never changed: it
    is replaced whole when it grows, so a growth cut short leaves the
    one before it."""

    __slots__ = ("limit", "primes", "roots")

    def __init__(self, limit: int, primes: array, roots: array):
        self.limit, self.primes, self.roots = limit, primes, roots


_NO_ROOTS = _Roots(1, array("I"), array("I"))


def _strike_roots(alive: bytearray, start: int, f: NtFunction,
                  cs: list[int], flags: bytearray, bound: int,
                  room: int) -> int:
    """Clear alive[n] for every n >= start with f(n) = 0 mod p for some
    prime p <= bound (flags marks the primes to at least bound).  The
    roots come from f's kept table, and past its limit from roots_mod;
    from f's second count on, those new roots are kept while the whole
    table holds at most room bytes.  Returns the bytes of the table left
    kept."""
    m = len(alive) - 1
    a = _analysis(f)
    kept = a.roots or _NO_ROOTS
    pairs = bisect.bisect_right(kept.primes, bound)
    for p, r in itertools.islice(zip(kept.primes, kept.roots), pairs):
        first = start + (r - start) % p
        alive[first::p] = bytes(len(range(first, m + 1, p)))
    if bound > kept.limit:
        new_primes, new_roots = array("I"), array("I")
        lo = kept.limit + 1
        # roots that may still be kept; a first count keeps none, so a
        # member counted once costs only the solving and striking
        spare = room // 8 - len(kept.roots) if a.roots else -1
        limit = bound if spare >= 0 else kept.limit
        for p in itertools.compress(range(lo, bound + 1), flags[lo:bound + 1]):
            rs = roots_mod(cs, p)
            for r in rs:
                first = start + (r - start) % p
                alive[first::p] = bytes(len(range(first, m + 1, p)))
            if len(rs) <= spare:
                new_primes.extend([p] * len(rs))
                new_roots.extend(rs)
                spare -= len(rs)
            elif spare >= 0:  # keep no prime from here on
                limit, spare = p - 1, -1
        if limit > kept.limit:
            kept = _Roots(limit, kept.primes + new_primes,
                          kept.roots + new_roots)
    a.roots = kept
    return 8 * len(kept.roots)


def actual_count(fs: FunctionSystem, m: int,
                 config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Exact number of 1 <= n <= m with every f_i(n) prime.

    A system of polynomials is sieved over n: the rule is in the module
    docstring.  A system with any other member, or whose values may
    pass the bit budget, has every point evaluated and tested."""
    if any(f.arity != 1 for f in fs):
        raise InvalidArgument("actual_count scans univariate systems")
    if m < 1:
        return 0
    # a constant member has one value at every n: a prime one drops out,
    # any other leaves no n to count
    members = []
    for f in fs:
        cs = _analysis(f).coeffs
        if (cs is not None and len(cs) == 1
                and cs[0].bit_length() <= config.bit_budget):
            if not is_prime(cs[0], config):
                return 0
        else:
            members.append((f, cs))
    if not members:
        return m
    fs = [f for f, _ in members]
    coeff_lists = [cs for _, cs in members]
    top = None
    if all(cs is not None for cs in coeff_lists):
        top = max((sum(abs(c) * m**i for i, c in enumerate(cs))
                   for cs in coeff_lists), default=0)
    if top is None or top.bit_length() > config.bit_budget:
        bound, table, start, above = 1, 1, m + 1, False
    else:
        degree = max((len(cs) for cs in coeff_lists), default=1) - 1
        cap = m if degree <= 2 else 10 * math.isqrt(m)
        bound = max(1, min(math.isqrt(top), cap))
        # flags to the sieve bound, or to every value when all are small
        table = top if top <= _FLAGS_CEILING else bound
        _check_sieve_budget(m + table + 2, f"sieve over n <= {m}", config)
        start, above = 1, True
        for f in fs:
            env = envelope_outside_bound(f, bound + 1, config)
            if env is None:
                start = m + 1
                continue
            start, above = max(start, env[0]), above and env[1]
    flags = prime_flags(table, config)
    prime = _flag_test(flags, config)

    count = 0
    scan = _Scan(fs, iter_points(1, min(start, m + 1) - 1),
                 lambda v: v >= 2, config)
    for _, vals in scan:
        if all(prime(v) for v in vals):
            count += 1
    if scan.cut is not None:
        # no Unknown outcome here: an unevaluated n is not "not prime"
        raise EvaluationBudgetExceeded(
            f"a value at n={scan.cut[0]} exceeds the bit budget")
    if not above or start > m:
        return count
    alive = bytearray([1]) * (m + 1)
    alive[:start] = bytes(start)
    # the members' kept roots and this call's tables share the cap
    room = config.sieve_memory_cap - (m + table + 2)
    for f, cs in zip(fs, coeff_lists):
        room -= _strike_roots(alive, start, f, cs, flags, bound, room)
    if (bound + 1) ** 2 > top:
        return count + alive.count(1)
    return count + sum(
        1 for n in itertools.compress(range(m + 1), alive)
        if all(is_prime(_horner(cs, n), config) for cs in coeff_lists))


def dlvp_ratio(a: int, b: int, x: int,
               config: WorkbenchConfig = DEFAULT_CONFIG) -> float:
    """pi_{a,b}(x) * phi(b) * log(x) / x, the ratio that tends to 1."""
    if b < 1:
        raise InvalidArgument("b must be positive")
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")
    if x < 2:
        raise InvalidArgument("x must be at least 2")
    count = prime_flags(x, config)[a % b::b].count(1)
    return count * euler_phi(b, config) * math.log(x) / x


def _progression(a: int, b: int, config: WorkbenchConfig) -> range:
    """The values a + b*x, b >= 1, for x from 0 (1 under
    strict_positive_n) to config.horizon: what every progression search
    walks."""
    start = 1 if config.strict_positive_n else 0
    return range(a + b * start, a + b * config.horizon + 1, b)


@dataclass(frozen=True)
class ApLeastPrimeTable:
    k: int
    entries: tuple[tuple[int, int], ...]  # (l, least prime == l mod k)
    # the largest least prime and log p_k / log k; None when some
    # progression held no prime within the horizon
    p_k: int | None
    empirical_exponent: float | None


def least_prime_ap(k: int,
                   config: WorkbenchConfig = DEFAULT_CONFIG) -> ApLeastPrimeTable:
    """p(l, k) for every l coprime to k.

    The scan starts at n = 0, so l itself counts when prime; set
    strict_positive_n to start at n = 1 (the stricter reading).  When
    some l + n*k has no prime up to n = config.horizon, the table is
    Unknown: entries stop before that l and p_k is None."""
    if k < 2:
        raise InvalidArgument("k must be at least 2")
    reach = min(k * math.ceil(math.log(k)) ** 2, k * (config.horizon + 1),
                _FLAGS_CEILING, config.sieve_memory_cap - 1)
    flags = prime_flags(reach, config) if reach >= 0 else bytearray()
    prime = _flag_test(flags, config)
    entries = []
    for l in range(1, k + 1):
        if math.gcd(l, k) != 1:
            continue
        least = next((v for v in _progression(l, k, config) if prime(v)),
                     None)
        if least is None:
            return ApLeastPrimeTable(k, tuple(entries), None, None)
        entries.append((l, least))
    p_k = max(p for _, p in entries)
    return ApLeastPrimeTable(k, tuple(entries), p_k,
                             math.log(p_k) / math.log(k))


@dataclass(frozen=True)
class ApProductReport:
    a: int
    b: int
    n_max: int
    violations: tuple[int, ...]  # n with P_1 * ... * P_n <= P_{n+1}
    # least threshold with no violation beyond it in range; None (and no
    # violations) when the horizon holds fewer than n_max + 1 primes
    c_star: int | None


def ap_product_inequality(a: int, b: int, n_max: int,
                          config: WorkbenchConfig = DEFAULT_CONFIG,
                          ) -> ApProductReport:
    """Partial products of primes of the form a + b*x against the next
    prime of the form: past a small threshold the product always wins.

    x runs from 0 (1 under strict_positive_n) to config.horizon; when
    fewer than n_max + 1 of those values are prime the report is
    Unknown (c_star None), at once if there are too few candidates."""
    if b < 1:
        raise InvalidArgument("b must be positive")
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")
    if n_max < 1:
        raise InvalidArgument("n_max must be at least 1")
    need = n_max + 1
    values = _progression(a, b, config)
    primes: list[int] = []
    if need <= len(values):
        for v in values:
            if v >= 2 and is_prime(v, config):
                primes.append(v)
                if len(primes) == need:
                    break
    if len(primes) < need:
        return ApProductReport(a, b, n_max, (), None)
    violations = []
    product = 1
    for n in range(1, n_max + 1):
        product *= primes[n - 1]
        if product <= primes[n]:
            violations.append(n)
    return ApProductReport(a, b, n_max, tuple(violations),
                           violations[-1] if violations else 0)


@dataclass(frozen=True)
class DensityEstimate:
    system: tuple[str, ...]
    degrees: tuple[int, ...]
    prime_cutoff: int
    constant: float
    relative_change: float
    obstruction: int | None
    omega_sample: tuple[tuple[int, int], ...]  # (p, omega(p)) for small p
    m: int
    predicted_sum: float
    predicted_closed: float
    actual: int


def density_estimate(fs: FunctionSystem, prime_cutoff: int, m: int,
                     config: WorkbenchConfig = DEFAULT_CONFIG) -> DensityEstimate:
    """One-stop aggregate: constant, omega sample, prediction, truth.
    m < 2 and a constant or zero member have no prediction and are
    refused before anything is computed, rather than a constant read as
    a fixed prime divisor."""
    degrees = _prediction_degrees(fs, m)
    system = _system(fs)
    bh = system.constant(prime_cutoff, config)
    small = sieve_primes(100, config)
    sample = tuple(zip(small, system.omegas(small)))
    # counted first: its memory check ends a huge m before the sum over m
    actual = actual_count(fs, m, config)
    if bh.obstruction is None:
        pred = _prediction(degrees, m, bh.value)
        predicted_sum, predicted_closed = pred.sum_form, pred.closed_form
    else:
        predicted_sum = predicted_closed = 0.0
    return DensityEstimate(tuple(str(f) for f in fs), tuple(degrees),
                           prime_cutoff, bh.value, bh.relative_change,
                           bh.obstruction, sample, m, predicted_sum,
                           predicted_closed, actual)
