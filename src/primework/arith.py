"""Core integer arithmetic: primality, factoring, sieving, phi, CRT.

Everything here is deterministic for a fixed config.  Primality is a
Miller-Rabin test over a prefix of the first thirteen prime bases:
below psi_13 = 3.3e24 it runs the shortest prefix the table of least
strong pseudoprimes proves exact for n, so every verdict there is
proven; beyond it all thirteen bases plus seeded extra rounds are used
and the result is flagged probable rather than proven.

This is the only module that builds a prime table, and each builder
checks its own byte count against config.sieve_memory_cap through
_check_sieve_budget before anything is allocated: prime_flags one byte
per n, smallest_factor_table four, euler_phi_range eight (its spf
table and its own), and sieve_primes its segment, base sieve and the
returned list of ints.

The primes up to a limit come from one retained table of C ints, kept
in an anonymous memory mapping rather than on the heap and sieved again
up to the largest limit asked so far, up to the ceiling 4 * 2^20 of the
flat sieve; past it sieve_primes runs a segmented sieve and keeps
nothing.  Each call gets a fresh list cut
from the table by bisection, so a caller may change it, and the memory
check runs on every call, also when the table already holds the answer.
The trial-division primes below 1000, the segmented sieve's base
primes and the smallest-factor table's primes are read from the same
table.  Primes are read off a flag table by one regex scan for the
byte 1, which makes no int object for a composite.
"""

from __future__ import annotations

import bisect
import math
import mmap
import re
from array import array
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import (FactoringBudgetExceeded, InvalidArgument,
                     MemoryBudgetExceeded, ModuliNotCoprime, NotCoprime)

# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233; psi_12 and psi_13 by Sorenson and Webster, Math. Comp. 86,
# 2017): for n < _MR_PSI[i] the first _MR_PREFIX[i] bases decide n
# exactly.  psi_8 = psi_7 and psi_9 = psi_10 = psi_11, so 8, 10 and 11
# bases are never the least that suffice; past psi_13 all 13 are used.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
           318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981)
_MR_PREFIX = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 13)
_MR_DETERMINISTIC_BELOW = _MR_PSI[-1]

_SMALL_PRIME_LIMIT = 1000
_SEGMENT = 1 << 20
# The largest limit the retained prime table serves; sieve_primes
# segments past it and keeps nothing.  Its primes fit a C int.
_TABLE_CEILING = 4 * _SEGMENT
# every prime up to _table_limit, ascending; grown, never shrunk
_prime_table = memoryview(b"").cast("i")
_table_limit = 1
_small_primes: list[int] = []
_small_prime_set: frozenset[int] = frozenset()
_trial_product = 1  # product of the first 30 primes, 2..113


def _check_sieve_budget(nbytes: int, what: str,
                        config: WorkbenchConfig) -> None:
    """MemoryBudgetExceeded when a table of nbytes would pass the cap."""
    if nbytes > config.sieve_memory_cap:
        raise MemoryBudgetExceeded(f"{what} needs ~{nbytes} bytes")


def prime_flags(limit: int,
                config: WorkbenchConfig = DEFAULT_CONFIG) -> bytearray:
    """flags[n] == 1 exactly when n is prime, for 0 <= n <= limit: a
    plain sieve of limit + 1 bytes."""
    _check_sieve_budget(limit + 1, f"prime flags to {limit}", config)
    bs = bytearray([1]) * (limit + 1)
    bs[:2] = bytes(min(2, limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if bs[i]:
            bs[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return bs


def _flagged(flags: bytearray, offset: int = 0) -> list[int]:
    """offset + n for every n with flags[n] == 1, ascending."""
    return [m.start() + offset for m in re.finditer(b"\x01", flags)]


def _table_primes(limit: int) -> list[int]:
    """The primes <= limit, limit <= _TABLE_CEILING, as a fresh list cut
    from the retained table, which is first sieved again up to limit
    when it stops short of it."""
    global _prime_table, _table_limit
    if limit > _table_limit:
        primes = array("i", _flagged(prime_flags(limit)))
        # kept in an anonymous mapping, off the malloc heap: a block that
        # stays there for good stops the heap from shrinking past it (the
        # benchmark's density workload peaked 0.6 MB higher with the
        # array itself kept); it is never written after this fill
        table = memoryview(mmap.mmap(-1, len(primes) * primes.itemsize))
        table = table.cast("i")
        table[:] = primes
        _prime_table, _table_limit = table, limit
    table = _prime_table
    return table[:bisect.bisect_right(table, limit)].tolist()


def _ensure_small_primes():
    global _small_primes, _small_prime_set, _trial_product
    if not _small_primes:
        _small_primes = _table_primes(_SMALL_PRIME_LIMIT)
        _small_prime_set = frozenset(_small_primes)
        _trial_product = math.prod(_small_primes[:30])


@dataclass(frozen=True)
class PrimalityResult:
    n: int
    prime: bool
    # False when n was above the deterministic witness bound
    deterministic: bool


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    """One Miller-Rabin round; True means a is not a witness against n."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def primality(n: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> PrimalityResult:
    if n < 2:
        return PrimalityResult(n, False, True)
    _ensure_small_primes()
    if n <= _SMALL_PRIME_LIMIT:
        return PrimalityResult(n, n in _small_prime_set, True)
    if math.gcd(n, _trial_product) != 1:
        return PrimalityResult(n, False, True)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:_MR_PREFIX[bisect.bisect_right(_MR_PSI, n)]]:
        if not _mr_round(n, a, d, s):
            return PrimalityResult(n, False, True)
    if n < _MR_DETERMINISTIC_BELOW:
        return PrimalityResult(n, True, True)
    # Beyond the proven range: extra seeded rounds, result is "probable".
    rng_state = (config.seed * 0x9E3779B97F4A7C15 + 1) & (2**64 - 1)
    for _ in range(20):
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        a = 2 + rng_state % (n - 3)
        if not _mr_round(n, a, d, s):
            return PrimalityResult(n, False, True)
    return PrimalityResult(n, True, False)


def is_prime(n: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> bool:
    return primality(n, config).prime


@dataclass(frozen=True)
class Factorization:
    n: int
    # sorted (prime, exponent) pairs
    factors: tuple[tuple[int, int], ...]
    # composite remainder the budget could not split; 1 when complete
    cofactor: int = 1
    complete: bool = True


def _rho_brent(n: int, budget: int, seed: int) -> tuple[int, int]:
    """Brent-cycle Pollard rho.  Returns (factor, iterations_used);
    factor == n means failure within budget."""
    if n % 2 == 0:
        return 2, 0
    used = 0
    c = seed % n or 1
    while used < budget:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                cnt = min(m, r - k)
                for _ in range(cnt):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += cnt
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
        c += 1  # retry with the next polynomial offset
    return n, used


def _is_perfect_power(n: int) -> tuple[int, int] | None:
    for k in range(2, n.bit_length() + 1):
        r = round(n ** (1.0 / k))
        for cand in (r - 1, r, r + 1):
            if cand > 1 and cand**k == n:
                return cand, k
    return None


def factorize(n: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> Factorization:
    """Complete factorization, trial division then Pollard rho.

    Raises FactoringBudgetExceeded (carrying the partial result) if a
    cofactor survives the configured rho budget.
    """
    if n < 1:
        raise InvalidArgument("factorize needs a positive integer")
    orig = n
    found: dict[int, int] = {}
    # trial division by primes up to the configured bound, early exit at sqrt
    _ensure_small_primes()
    for p in _small_primes:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if n > 1 and n >= _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        p = (_SMALL_PRIME_LIMIT + 1) | 1  # first odd candidate past the table
        while p <= config.trial_division_bound and p * p <= n:
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
            p += 2
    budget = config.rho_budget
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if primality(m, config).prime:
            found[m] = found.get(m, 0) + 1
            continue
        pp = _is_perfect_power(m)
        if pp:
            base, k = pp
            pending.extend([base] * k)
            continue
        g, used = _rho_brent(m, budget, config.seed)
        budget -= used
        if g == m or g == 1:
            for rest in pending:
                m *= rest  # roll unsplit work back into the cofactor
            partial = Factorization(orig, tuple(sorted(found.items())),
                                    cofactor=m, complete=False)
            raise FactoringBudgetExceeded(partial)
        pending.extend([g, m // g])
    return Factorization(orig, tuple(sorted(found.items())))


def _estimated_sieve_bytes(limit: int) -> int:
    # working segment + base sieve + the returned list of ints
    if limit < 100:
        return 4096
    count_est = int(limit / max(math.log(limit) - 1.1, 1.0)) + 10
    return limit // 2 // 8 + 48 * count_est


def sieve_primes(limit: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> list[int]:
    """All primes <= limit, as a fresh list.

    Up to _TABLE_CEILING they are cut from the retained prime table;
    past it a segmented sieve runs and nothing is kept.  Raises
    MemoryBudgetExceeded when the estimated footprint (dominated by the
    result list itself) would pass the configured cap, whether or not
    the table already holds the answer.
    """
    _check_sieve_budget(_estimated_sieve_bytes(limit), f"sieve to {limit}",
                        config)
    if limit <= _TABLE_CEILING:
        return _table_primes(limit)
    base = _table_primes(math.isqrt(limit))
    out = list(base)
    lo = math.isqrt(limit) + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            seg[start - lo :: p] = bytearray(len(range(start, hi + 1, p)))
        out += _flagged(seg, lo)
        lo = hi + 1
    return out


def smallest_factor_table(limit: int, config: WorkbenchConfig = DEFAULT_CONFIG,
                          ) -> array:
    """spf[n] = the smallest prime factor of n (spf[0] = spf[1] = 0), as
    an array('I') of limit + 1 entries.  One slice per prime p <= sqrt
    limit writes p at p^2, p^2 + p, ...; the primes run downwards, so the
    least one is written last."""
    _check_sieve_budget(4 * (limit + 1), f"factor table to {limit}", config)
    spf = array("I", range(limit + 1))
    if limit >= 1:
        spf[1] = 0
    for p in reversed(_table_primes(math.isqrt(max(limit, 0)))):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    return spf


def factor_with_table(n: int, spf) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def euler_phi(n: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Euler totient; phi(1) = 1 by convention."""
    if n < 1:
        raise InvalidArgument("phi needs a positive integer")
    if n == 1:
        return 1
    out = n
    for p, _ in factorize(n, config).factors:
        out = out // p * (p - 1)
    return out


def euler_phi_range(limit: int,
                    config: WorkbenchConfig = DEFAULT_CONFIG) -> array:
    """phi[0..limit] as an array('I'), phi[0] = 0, in one pass over the
    smallest-factor table: with p = spf(n), phi(n) = phi(n/p) * p when p
    divides n/p, and phi(n/p) * (p - 1) when not."""
    _check_sieve_budget(8 * (limit + 1), f"phi table to {limit}", config)
    spf = smallest_factor_table(limit, config)
    phi = array("I", bytes(4 * (limit + 1)))
    if limit >= 1:
        phi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        q = n // p
        phi[n] = phi[q] * (p if q % p == 0 else p - 1)
    return phi


def omega(n: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    if n == 1:
        return 0
    return len(factorize(n, config).factors)


def crt_solve(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli.

    Returns (x, M) with 0 <= x < M = product of the moduli.
    """
    x, M = 0, 1
    for r, m in congruences:
        if m < 2:
            raise InvalidArgument(f"modulus {m} too small")
        if not 0 <= r < m:
            raise InvalidArgument(f"residue {r} outside [0, {m})")
        g = math.gcd(M, m)
        if g != 1:
            raise ModuliNotCoprime(f"moduli share factor {g}")
        # combine: x' = x + M * t where t = (r - x) / M mod m
        t = (r - x) * pow(M, -1, m) % m
        x += M * t
        M *= m
    return x, M


def least_coprime_exceeding_one(m: int) -> int:
    """Smallest integer a > 1 with gcd(a, m) = 1."""
    if m < 1:
        raise InvalidArgument("modulus must be positive")
    a = 2
    while math.gcd(a, m) != 1:
        a += 1
    return a


def multiplicative_order(a: int, m: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Order of a modulo m; requires gcd(a, m) = 1."""
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} shares a factor with {m}")
    if m == 1:
        return 1
    e = euler_phi(m, config)
    for p, _ in factorize(e, config).factors:
        while e % p == 0 and pow(a, e // p, m) == 1:
            e //= p
    return e
