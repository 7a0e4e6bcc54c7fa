"""Least-witness functions and the bound suites built on them.

S_f(m) is the least argument whose value exceeds 1 and is coprime to
m; S for a system asks every member to do both at once.  The classic
bounds (sqrt for the identity, log2 for 2^x - 1, the (m/L)^(1/d) shape
for polynomials, and the linear bound for the double-power tower) are
scanned over ranges and every violation is reported, never swallowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import classify, is_fermat_shape, is_identity, is_mersenne_shape
from .arith import (euler_phi_range, least_coprime_exceeding_one,
                    multiplicative_order, smallest_factor_table)
from .conditions import Status, check_system_conditions, find_value_witness
from .config import DEFAULT_CONFIG, SCAN_HORIZON, WorkbenchConfig
from .errors import BoundFunctionMismatch, InvalidArgument
from .expr import NtFunction, evaluate_mod, parse_function


@dataclass(frozen=True)
class LeastWitnessRecord:
    m: int
    point: tuple[int, ...] | None
    values: tuple[int, ...]
    conclusive: bool


def s_f(f: NtFunction, m: int, horizon: int = SCAN_HORIZON,
        config: WorkbenchConfig = DEFAULT_CONFIG) -> LeastWitnessRecord:
    """Least witness for one function.

    point=None with conclusive=True means no witness exists at all;
    conclusive=False means the horizon ran out first.
    """
    verdict = find_value_witness(f, m, "E", horizon, config)
    if verdict.status is Status.HOLDS:
        w = verdict.witness
        return LeastWitnessRecord(m, w.point, w.values, True)
    return LeastWitnessRecord(m, None, (), verdict.status is Status.FAILS)


def s_system(fs: tuple[NtFunction, ...], m: int,
             horizon: int = SCAN_HORIZON,
             config: WorkbenchConfig = DEFAULT_CONFIG) -> LeastWitnessRecord:
    """Least point where every member value exceeds 1 and is coprime to m."""
    verdict = check_system_conditions(fs, m, horizon, config)
    if verdict.status is Status.HOLDS:
        w = verdict.witness
        return LeastWitnessRecord(m, w.point, w.values, True)
    return LeastWitnessRecord(m, None, (), verdict.status is Status.FAILS)


BOUND_KINDS = ("sqrt", "log2", "poly", "linear_fermat")


@dataclass(frozen=True)
class BoundReport:
    kind: str
    lo: int
    hi: int
    violations: tuple[tuple[int, int], ...]  # (m, S)
    threshold: int | None = None  # poly kind: m below it were skipped

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_bound(f: NtFunction, bound_kind: str, m_range: tuple[int, int],
                 config: WorkbenchConfig = DEFAULT_CONFIG) -> BoundReport:
    """Scan S_f over [lo, hi] against a named bound.

    sqrt pairs with the identity, log2 with 2^x - 1, poly with any
    positive-leading univariate polynomial, linear_fermat with the
    double-power tower; any other pairing raises BoundFunctionMismatch.
    """
    lo, hi = m_range
    if lo < 1 or hi < lo:
        raise InvalidArgument("bad range")
    if bound_kind == "sqrt":
        if not is_identity(f):
            raise BoundFunctionMismatch("sqrt bound is stated for the identity")
        return _sqrt_suite(lo, hi)
    if bound_kind == "log2":
        if not is_mersenne_shape(f):
            raise BoundFunctionMismatch("log2 bound is stated for 2^x - 1")
        return _log2_suite(lo, hi, config)
    if bound_kind == "poly":
        return _poly_suite(f, lo, hi, config)
    if bound_kind == "linear_fermat":
        if not is_fermat_shape(f):
            raise BoundFunctionMismatch("linear bound is stated for 2^(2^x) + 1")
        return _fermat_suite(lo, hi, config)
    raise InvalidArgument(f"bound kind must be one of {BOUND_KINDS}")


def _sqrt_suite(lo: int, hi: int) -> BoundReport:
    # S for the identity is the least a > 1 coprime to m
    bad = []
    for m in range(max(lo, 2), hi + 1):
        a = least_coprime_exceeding_one(m)
        if a * a >= m:
            bad.append((m, a))
    return BoundReport("sqrt", lo, hi, tuple(bad))


def _log2_suite(lo: int, hi: int, config: WorkbenchConfig) -> BoundReport:
    spf = smallest_factor_table(hi, config)
    order_cache: dict[int, int] = {}
    bad = []
    for m in range(max(lo, 2), hi + 1):
        t = m
        while t % 2 == 0:
            t //= 2
        orders = set()
        while t > 1:
            p = spf[t]
            while t % p == 0:
                t //= p
            d = order_cache.get(p)
            if d is None:
                d = multiplicative_order(2, p, config)
                order_cache[p] = d
            orders.add(d)
        n = 2
        while not all(n % d for d in orders):
            n += 1
        if 2**n >= m:
            bad.append((m, n))
    return BoundReport("log2", lo, hi, tuple(bad))


def _poly_suite(f: NtFunction, lo: int, hi: int,
                config: WorkbenchConfig) -> BoundReport:
    prof = classify(f)
    if not (prof.total_degree and (prof.leading_coefficient or 0) > 0):
        raise BoundFunctionMismatch(
            "poly bound needs a nonconstant univariate polynomial with positive lead")
    d = prof.total_degree
    L = prof.leading_coefficient
    threshold = 10 * L * 2**d
    bad = []
    for m in range(max(lo, threshold + 1), hi + 1):
        rec = s_f(f, m, config=config)
        if rec.point is None:
            bad.append((m, 0))  # no witness, or none within the horizon
        elif L * rec.point[0]**d >= m:  # claim is S < (m/L)^(1/d)
            bad.append((m, rec.point[0]))
    return BoundReport("poly", lo, hi, tuple(bad), threshold=threshold)


def _fermat_suite(lo: int, hi: int, config: WorkbenchConfig) -> BoundReport:
    """Claim S <= m for F(x) = 2^(2^x) + 1.  An odd prime p divides
    F(n) exactly when ord_p(2) = 2^(n+1), so each prime of m rules out
    at most one n; the scan is the honest modular-gcd loop anyway."""
    bad = []
    for m in range(max(lo, 2), hi + 1):
        s = None
        for n in range(1, m + 1):
            fn_mod = (pow(2, 2**n, m) + 1) % m
            if math.gcd(fn_mod, m) == 1:
                s = n
                break
        if s is None:
            bad.append((m, 0))  # no witness within the claimed bound
    return BoundReport("linear_fermat", lo, hi, tuple(bad))


@dataclass(frozen=True)
class ExponentIdentityReport:
    lo: int
    hi: int
    violations: tuple[tuple[int, int], ...]  # (m, offending gcd)

    @property
    def clean(self) -> bool:
        return not self.violations


def exponent_identity_check(m_range: tuple[int, int],
                            config: WorkbenchConfig = DEFAULT_CONFIG) -> ExponentIdentityReport:
    """gcd(m, 2^(phi(m)+1) - 1) = 1 for odd m; for even m = 2^e * t the
    exponent uses phi of the odd part t.  Checked via evaluate_mod of
    the 2^x - 1 function at the appropriate exponent."""
    lo, hi = m_range
    if lo < 1 or hi < lo:
        raise InvalidArgument("bad range")
    mers = parse_function("2^x - 1")
    phi = euler_phi_range(hi, config)
    bad = []
    for m in range(max(lo, 2), hi + 1):
        t = m
        while t % 2 == 0:
            t //= 2
        e = phi[t] + 1 if t > 1 else 2  # phi(1) = 1
        g = math.gcd(evaluate_mod(mers, (e,), m), m)
        if g != 1:
            bad.append((m, g))
    return ExponentIdentityReport(lo, hi, tuple(bad))
