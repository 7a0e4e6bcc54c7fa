"""Factorial-modulus probes: witnesses coprime to l! and their primality.

gcd(v, l!) = 1 simply says no prime factor of v is l or smaller, so
membership tests run on small prime tables and bit-length bounds; l!
itself is materialized only for l <= 20 (or inside a two-bit marginal
band where nothing cheaper can decide the range comparison).
The probes record violations and leave verdicts to the reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .analysis import _box, _Scan, iter_points, traits
from .arith import is_prime, sieve_primes
from .config import DEFAULT_CONFIG, SCAN_HORIZON, WorkbenchConfig
from .errors import InvalidArgument
from .expr import FunctionSystem, NtFunction


@lru_cache(maxsize=64)
def _primes_upto(l: int, config: WorkbenchConfig) -> tuple[int, ...]:
    return tuple(sieve_primes(l, config))


def coprime_to_factorial(v: int, l: int,
                         config: WorkbenchConfig = DEFAULT_CONFIG) -> bool:
    """gcd(v, l!) = 1, decided as: no prime <= l divides v."""
    if v <= 1:
        raise InvalidArgument("v must exceed 1")
    if l < 2:
        return True
    return all(v % p for p in _primes_upto(l, config))


def less_than_factorial(v: int, l: int) -> bool:
    """v < l!, via exact factorial for small l and summed-log bit
    bounds beyond; the unresolvable two-bit band falls back to exact."""
    if l <= 20:
        return v < math.factorial(l)
    log2_fact = math.fsum(math.log2(j) for j in range(2, l + 1))
    bl = v.bit_length()
    if bl <= log2_fact - 1e-6:
        return True  # v < 2^bl <= l!
    if bl - 1 >= log2_fact + 1e-6:
        return False  # v >= 2^(bl-1) >= l!
    return v < math.factorial(l)


def in_factorial_zm(v: int, l: int,
                    config: WorkbenchConfig = DEFAULT_CONFIG) -> bool:
    """v lies in Z_{l!}^* and exceeds 1."""
    return v > 1 and coprime_to_factorial(v, l, config) \
        and less_than_factorial(v, l)


@dataclass(frozen=True)
class FactorialWitness:
    l: int
    point: tuple[int, ...]
    values: tuple[int, ...]
    all_prime: bool
    least_value_prime: bool


def least_factorial_witness(fs: FunctionSystem, l: int,
                            horizon: int = SCAN_HORIZON,
                            config: WorkbenchConfig = DEFAULT_CONFIG,
                            ) -> FactorialWitness | None:
    """Least point where every member value exceeds 1, has no prime
    factor <= l, and stays below l!."""
    if l < 2:
        raise InvalidArgument("l must be at least 2")
    scan = _Scan(fs, iter_points(fs[0].arity, horizon),
                 lambda v: in_factorial_zm(v, l, config), config)
    for point, vals in scan:
        return FactorialWitness(
            l, point, vals,
            all(is_prime(v, config) for v in vals),
            is_prime(min(vals), config))
    return None


@dataclass(frozen=True)
class Prop3Entry:
    m: int
    value: int | None  # least qualifying value (None: no value found)
    argument: int | None  # its least preimage
    prime: bool | None
    first_value: int | None  # value at the argument-least hit
    differs: bool  # value-least and argument-least disagree


@dataclass(frozen=True)
class ProbeReport:
    lo: int
    hi: int
    entries: tuple
    violations: tuple[int, ...]
    r_estimate: int | None = None
    prime_fraction: float | None = None


def _values_in_zm(f: NtFunction, m: int, horizon: int,
                  config: WorkbenchConfig) -> tuple[int, int, int] | None:
    """Values of f strictly between 1 and m and coprime to m: the least
    one, its least argument, and the value at the least argument."""
    nondec = traits(f.body).nondec
    limit = _box((f,), m, horizon, config)[1]  # past it, none in [1, m-1]
    best: tuple[int, int, int] | None = None
    scan = _Scan((f,), iter_points(1, limit),
                 lambda v: 1 < v < m and math.gcd(v, m) == 1, config)
    for (x,), (v,) in scan:
        if best is None:
            best = (v, x, v)
            if nondec:
                break  # later values cannot be smaller
        elif v < best[0]:
            best = (v, x, best[2])
    return best


def prop3_scan(f: NtFunction, m_range: tuple[int, int],
               horizon: int = SCAN_HORIZON,
               config: WorkbenchConfig = DEFAULT_CONFIG) -> ProbeReport:
    """Per modulus: the least f-value inside Z_m^*, its primality, and
    whether value-least and argument-least disagree.  The fraction of
    prime least-values is evidence, not a verdict."""
    if f.arity != 1:
        raise InvalidArgument("prop3_scan is univariate")
    lo, hi = m_range
    if lo < 2 or hi < lo:
        raise InvalidArgument("bad range")
    entries = []
    violations = []
    found = prime_hits = 0
    for m in range(lo, hi + 1):
        hit = _values_in_zm(f, m, horizon, config)
        if hit is None:
            entries.append(Prop3Entry(m, None, None, None, None, False))
            continue
        value, arg, first = hit
        prime = is_prime(value, config)
        entries.append(Prop3Entry(m, value, arg, prime, first,
                                  first != value))
        found += 1
        if prime:
            prime_hits += 1
        else:
            violations.append(m)
    fraction = prime_hits / found if found else None
    return ProbeReport(lo, hi, tuple(entries), tuple(violations),
                       prime_fraction=fraction)


def _estimate_r(present: list[bool], lo: int) -> int | None:
    """Least r with a witness at every index >= r in the window."""
    if not present or not present[-1]:
        return None
    r = len(present) - 1
    while r > 0 and present[r - 1]:
        r -= 1
    return lo + r


def conjecture3_probe(fs: FunctionSystem, l_range: tuple[int, int],
                      horizon: int = SCAN_HORIZON,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> ProbeReport:
    """Least witness per factorial index l; violations are l whose
    witness carries a composite value."""
    lo, hi = l_range
    if lo < 2 or hi < lo:
        raise InvalidArgument("bad range")
    entries: list[FactorialWitness | None] = []
    violations = []
    for l in range(lo, hi + 1):
        w = least_factorial_witness(fs, l, horizon, config)
        entries.append(w)
        if w is not None and not w.all_prime:
            violations.append(l)
    present = [w is not None for w in entries]
    return ProbeReport(lo, hi, tuple(entries), tuple(violations),
                       r_estimate=_estimate_r(present, lo))


def section9_probe(fs: FunctionSystem, m_range: tuple[int, int],
                   horizon: int = SCAN_HORIZON,
                   config: WorkbenchConfig = DEFAULT_CONFIG) -> ProbeReport:
    """Per index m: hunt a point whose values are simultaneously prime
    and inside Z_{m!}^*.  Violations are indices with nothing found in
    scan range."""
    lo, hi = m_range
    if lo < 2 or hi < lo:
        raise InvalidArgument("bad range")
    k = fs[0].arity
    entries: list[FactorialWitness | None] = []
    violations = []
    for m in range(lo, hi + 1):
        found = None
        scan = _Scan(fs, iter_points(k, horizon),
                     lambda v: in_factorial_zm(v, m, config)
                     and is_prime(v, config), config)
        for point, vals in scan:
            found = FactorialWitness(m, point, vals, True, True)
            break
        entries.append(found)
        if found is None:
            violations.append(m)
    present = [w is not None for w in entries]
    return ProbeReport(lo, hi, tuple(entries), tuple(violations),
                       r_estimate=_estimate_r(present, lo))
