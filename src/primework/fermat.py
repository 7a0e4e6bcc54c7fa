"""Fermat numbers F(x) = 2^(2^x) + 1 and their divisor structure.

Prime divisors of F(x) have the form k*2^(x+2) + 1 once x > 1 (Lucas's
sharpening of Euler's k*2^(x+1) + 1), which makes factor search a scan
over k with a single modular exponentiation per candidate.  The
telescoping product F(0)*...*F(k-1) = F(k) - 2 drives the finiteness
argument: modulo that product every later Fermat number reduces to 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .arith import is_prime
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import EvaluationBudgetExceeded, InvalidArgument


class FermatStatus(Enum):
    PRIME = "Prime"
    COMPOSITE = "Composite"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class FermatRecord:
    x: int
    value: int | None  # None when 2^x exceeds the bit budget
    known_factors: tuple[int, ...]
    status: FermatStatus


def fermat_number(x: int, config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    if x < 0:
        raise InvalidArgument("x must be nonnegative")
    if 2**x > config.bit_budget:
        raise EvaluationBudgetExceeded(
            f"F({x}) needs {2**x + 1} bits, budget is {config.bit_budget}")
    return 2**(2**x) + 1


def divides_fermat(d: int, x: int) -> bool:
    """d | F(x), decided as 2^(2^x) == -1 mod d without materializing F."""
    return d > 1 and pow(2, 2**x, d) == d - 1


def euler_lucas_search(x: int, k_limit: int,
                       config: WorkbenchConfig = DEFAULT_CONFIG) -> list[int]:
    """Prime factors k*2^(x+2) + 1 of F(x) with k <= k_limit, ascending.

    The trivial divisor F(x) itself is excluded, which is what keeps
    the prime F(4) = 65537 = 1024*64 + 1 out of its own factor list.
    """
    if x < 2:
        raise InvalidArgument("the 2^(x+2) divisor form needs x >= 2")
    step = 2**(x + 2)
    found = []
    for k in range(1, k_limit + 1):
        d = k * step + 1
        if d.bit_length() > 2**x:
            break  # d >= F(x): the only smaller integer this wide is even
        if divides_fermat(d, x) and is_prime(d, config):
            found.append(d)
    return found


def verify_factorization(x: int, claimed: list[int],
                         config: WorkbenchConfig = DEFAULT_CONFIG) -> bool:
    """True iff the claimed factors multiply to F(x) and are all prime."""
    if not claimed:
        return False
    product = math.prod(claimed)
    if product != fermat_number(x, config):
        return False
    return all(is_prime(d, config) for d in claimed)


def fermat_coprime_check(m_range: tuple[int, int]) -> list[tuple[int, int]]:
    """gcd(m, F(m)) over a range, via F(m) mod m; violations (expected
    none) are returned as (m, gcd) pairs."""
    lo, hi = m_range
    if lo < 1 or hi < lo:
        raise InvalidArgument("bad range")
    bad = []
    for m in range(max(lo, 2), hi + 1):
        g = math.gcd((pow(2, 2**m, m) + 1) % m, m)
        if g != 1:
            bad.append((m, g))
    return bad


@dataclass(frozen=True)
class FinitenessCheck:
    k: int
    m: int  # F(0) * ... * F(k-1)
    telescoping_ok: bool  # m + 2 == F(k)
    fermat_free: bool  # no Fermat number lies in Z_m^*


def finiteness_argument_check(k_range: tuple[int, int],
                              config: WorkbenchConfig = DEFAULT_CONFIG,
                              ) -> list[FinitenessCheck]:
    """For each k: the product of the first k Fermat numbers is
    F(k) - 2, and Z_m^* for that product m contains no Fermat number
    (earlier ones divide m, later ones exceed it)."""
    lo, hi = k_range
    if lo < 1 or hi < lo:
        raise InvalidArgument("bad range")
    if 2**hi > config.bit_budget:
        raise EvaluationBudgetExceeded(f"product for k={hi} breaks the budget")
    out = []
    for k in range(lo, hi + 1):
        m = math.prod(fermat_number(i, config) for i in range(k))
        telescopes = m + 2 == fermat_number(k, config)
        free = fermat_in_zm(m, x_min=0, config=config) is None
        out.append(FinitenessCheck(k, m, telescopes, free))
    return out


def fermat_in_zm(m: int, x_min: int = 1,
                 config: WorkbenchConfig = DEFAULT_CONFIG) -> int | None:
    """Least Fermat number inside Z_m^*, or None (always conclusive:
    F(x) outgrows m within log2(log2(m)) + 2 steps)."""
    if m < 2:
        raise InvalidArgument("modulus must be at least 2")
    if x_min not in (0, 1):
        raise InvalidArgument("x_min must be 0 or 1")
    bits = m.bit_length()
    x = x_min
    while 2**x + 1 <= bits:  # otherwise F(x).bit_length() > bits, so F > m
        f = 2**(2**x) + 1
        if f < m and math.gcd(f, m) == 1:
            return f
        x += 1
    return None


# Known factor corpus.  F(0)..F(4) are the five known Fermat primes;
# the composite entries list published small prime factors (cofactors
# for x >= 7 are recorded in the literature only by digit count, so the
# corpus check is divisibility, not completeness).
_KNOWN_FACTORS: dict[int, tuple[int, ...]] = {
    5: (641, 6700417),
    6: (274177, 67280421310721),
    7: (59649589127497217,),
    8: (1238926361552897,),
    9: (2424833,),
    10: (45592577, 6487031809),
    11: (319489, 974849),
}

_COMPLETE_FACTORIZATIONS = {5, 6}


def known_fermat_records(config: WorkbenchConfig = DEFAULT_CONFIG,
                         ) -> tuple[FermatRecord, ...]:
    records = []
    for x in range(12):
        value = fermat_number(x, config) if 2**x <= config.bit_budget else None
        if x <= 4:
            records.append(FermatRecord(x, value, (), FermatStatus.PRIME))
        else:
            records.append(FermatRecord(x, value, _KNOWN_FACTORS[x],
                                        FermatStatus.COMPOSITE))
    return tuple(records)


def factorization_is_complete(x: int) -> bool:
    """Whether the corpus entry multiplies out to F(x) exactly."""
    return x <= 4 or x in _COMPLETE_FACTORIZATIONS
