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

from .analysis import envelope_outside_bound, iter_points, traits
from .arith import is_prime, sieve_primes
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import (DomainError, EvaluationBudgetExceeded, EvaluationError,
                     InvalidArgument)
from .expr import FunctionSystem, NtFunction, evaluate


@lru_cache(maxsize=64)
def _primes_upto(l: int) -> tuple[int, ...]:
    return tuple(sieve_primes(l))


def coprime_to_factorial(v: int, l: int,
                         config: WorkbenchConfig = DEFAULT_CONFIG) -> bool:
    """gcd(v, l!) = 1, decided as: no prime <= l divides v."""
    if v <= 1:
        raise InvalidArgument("v must exceed 1")
    if l < 2:
        return True
    return all(v % p for p in _primes_upto(l))


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


def least_factorial_witness(fs: FunctionSystem, l: int, horizon: int = 10**4,
                            config: WorkbenchConfig = DEFAULT_CONFIG,
                            ) -> FactorialWitness | None:
    """Least point where every member value exceeds 1, has no prime
    factor <= l, and stays below l!."""
    if l < 2:
        raise InvalidArgument("l must be at least 2")
    k = fs[0].arity
    for point in iter_points(k, horizon):
        vals = []
        for f in fs:
            try:
                v = evaluate(f, point, config=config)
            except (DomainError, EvaluationError, EvaluationBudgetExceeded):
                vals = None
                break
            if not in_factorial_zm(v, l, config):
                vals = None
                break
            vals.append(v)
        if vals:
            return FactorialWitness(
                l, point, tuple(vals),
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


def _least_value_in_zm(f: NtFunction, m: int, horizon: int,
                       config: WorkbenchConfig) -> tuple[int, int] | None:
    """Least value of f strictly between 1 and m and coprime to m,
    argument-lexicographic tie-break; returns (value, argument)."""
    nondec = traits(f.body).nondec
    if nondec:
        limit = horizon
    else:
        env = envelope_outside_bound(f, m, config)
        limit = min(horizon, env - 1) if env is not None else horizon
    best: tuple[int, int] | None = None
    for x in range(1, limit + 1):
        try:
            v = evaluate(f, (x,), config=config)
        except (DomainError, EvaluationError, EvaluationBudgetExceeded):
            continue
        if 1 < v < m and math.gcd(v, m) == 1:
            if nondec:
                return v, x  # later values cannot be smaller
            if best is None or v < best[0]:
                best = (v, x)
    return best


def prop3_scan(f: NtFunction, m_range: tuple[int, int], horizon: int = 10**4,
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
        hit = _least_value_in_zm(f, m, horizon, config)
        if hit is None:
            entries.append(Prop3Entry(m, None, None, None, None, False))
            continue
        value, arg = hit
        first = _first_value_in_zm(f, m, horizon, config)
        prime = is_prime(value, config)
        entries.append(Prop3Entry(m, value, arg, prime, first,
                                  first is not None and first != value))
        found += 1
        if prime:
            prime_hits += 1
        else:
            violations.append(m)
    fraction = prime_hits / found if found else None
    return ProbeReport(lo, hi, tuple(entries), tuple(violations),
                       prime_fraction=fraction)


def _first_value_in_zm(f: NtFunction, m: int, horizon: int,
                       config: WorkbenchConfig) -> int | None:
    """Value at the argument-least qualifying x (scan order)."""
    for x in range(1, horizon + 1):
        try:
            v = evaluate(f, (x,), config=config)
        except (DomainError, EvaluationError, EvaluationBudgetExceeded):
            continue
        if 1 < v < m and math.gcd(v, m) == 1:
            return v
    return None


def _estimate_r(present: list[bool], lo: int) -> int | None:
    """Least r with a witness at every index >= r in the window."""
    if not present or not present[-1]:
        return None
    r = len(present) - 1
    while r > 0 and present[r - 1]:
        r -= 1
    return lo + r


def conjecture3_probe(fs: FunctionSystem, l_range: tuple[int, int],
                      horizon: int = 10**4,
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
                   horizon: int = 10**4,
                   config: WorkbenchConfig = DEFAULT_CONFIG,
                   factorial_base=None) -> ProbeReport:
    """Per index m: hunt a point whose values are simultaneously prime
    and inside Z_{l!}^*, where l = factorial_base(m) (default: m
    itself).  Violations are indices with nothing found in scan range."""
    lo, hi = m_range
    if lo < 2 or hi < lo:
        raise InvalidArgument("bad range")
    base = factorial_base or (lambda m: m)
    k = fs[0].arity
    entries: list[FactorialWitness | None] = []
    violations = []
    for m in range(lo, hi + 1):
        l = base(m)
        found = None
        for point in iter_points(k, horizon):
            vals = []
            for f in fs:
                try:
                    v = evaluate(f, point, config=config)
                except (DomainError, EvaluationError,
                        EvaluationBudgetExceeded):
                    vals = None
                    break
                if not (in_factorial_zm(v, l, config)
                        and is_prime(v, config)):
                    vals = None
                    break
                vals.append(v)
            if vals:
                found = FactorialWitness(l, point, tuple(vals), True, True)
                break
        entries.append(found)
        if found is None:
            violations.append(m)
    present = [w is not None for w in entries]
    return ProbeReport(lo, hi, tuple(entries), tuple(violations),
                       r_estimate=_estimate_r(present, lo))
