"""Generalized Euler counting and pairwise-coprime packing.

phi_general counts distinct value tuples landing in Z_n^* in every
slot; with the identity it reduces to Euler phi, which is the check
the tests lean on.  pi_general_* measure the largest pairwise-coprime
set of values in (1, x]; with the identity the exact solver must land
on pi(x).  Exactness is only ever claimed when a monotone envelope
proves the scanned box covers every attainable value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .analogy import find_zm_witness
from .analysis import _box, _Scan, is_identity
from .arith import factor_with_table, factorize, smallest_factor_table
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import CapExceeded, InvalidArgument
from .expr import FunctionSystem, NtFunction


@dataclass(frozen=True)
class PhiResult:
    n: int
    count: int
    box: int  # side of the scanned cube [1, box]^k
    exact: bool


@dataclass(frozen=True)
class PiResult:
    x: int
    value: int
    method: str  # "exact" | "greedy-lower-bound"
    subset: tuple[int, ...]
    enumeration_complete: bool = True


def phi_general(fs: FunctionSystem, n: int, box: int | None = None,
                config: WorkbenchConfig = DEFAULT_CONFIG) -> PhiResult:
    """Count distinct tuples (f_1(X),...,f_s(X)) with every component
    in Z_n^*, X ranging over [1, side]^k."""
    if n < 2:
        raise InvalidArgument("n must be at least 2")
    if not fs:
        raise InvalidArgument("empty system")
    side, scanned, covered = _box(fs, n, box, config)
    if len(fs) == 1 and is_identity(fs[0]):
        gcd = math.gcd
        count = sum(1 for a in range(1, min(scanned, n - 1) + 1)
                    if gcd(a, n) == 1)
        return PhiResult(n, count, side, covered)

    single = len(fs) == 1
    scan = _Scan(fs, itertools.product(range(1, scanned + 1),
                                       repeat=fs[0].arity),
                 lambda v: 1 <= v < n and math.gcd(v, n) == 1, config)
    seen = {vals[0] if single else vals for _, vals in scan}
    return PhiResult(n, len(seen), side, covered and scan.cut is None)


def _distinct_values(f: NtFunction, x: int,
                     config: WorkbenchConfig) -> tuple[set[int], bool]:
    """Distinct values of f in (1, x]; flag says the box provably
    covers every attainable one."""
    if is_identity(f):
        return set(range(2, x + 1)), True
    _, scanned, covered = _box((f,), x + 1, None, config)
    scan = _Scan((f,), itertools.product(range(1, scanned + 1),
                                         repeat=f.arity),
                 lambda v: 1 < v <= x, config)
    values = {v for _, (v,) in scan}
    return values, covered and scan.cut is None


def _supports(values: list[int],
              config: WorkbenchConfig) -> dict[int, frozenset[int]]:
    return {v: frozenset(p for p, _ in factorize(v, config).factors)
            for v in values}


def _dominance_reduce(values: list[int],
                      supp: dict[int, frozenset[int]]) -> list[int]:
    """Drop v whenever some kept u has supp(u) included in supp(v):
    any coprime set using v can swap in u, so the maximum survives."""
    order = sorted(values, key=lambda v: (len(supp[v]), v))
    kept: list[int] = []
    for v in order:
        sv = supp[v]
        if not any(supp[u] <= sv for u in kept):
            kept.append(v)
    return sorted(kept)


def _greedy_pack(values: list[int],
                 supp: dict[int, frozenset[int]]) -> list[int]:
    used: set[int] = set()
    chosen = []
    for v in values:
        if used.isdisjoint(supp[v]):
            chosen.append(v)
            used.update(supp[v])
    return chosen


def pi_general_exact(f: NtFunction, x: int, cap: int | None = 64,
                     config: WorkbenchConfig = DEFAULT_CONFIG) -> PiResult:
    """True maximum pairwise-coprime subset of the values of f in
    (1, x], via branch and bound over prime supports."""
    if x < 0:
        raise InvalidArgument("--limit must be nonnegative")
    values, complete = _distinct_values(f, x, config)
    if not values:
        return PiResult(x, 0, "exact", (), complete)
    if cap is not None and len(values) > cap:
        raise CapExceeded(
            f"{len(values)} distinct values exceed cap {cap}; "
            "use pi_general_greedy or raise the cap")
    vlist = sorted(values)
    supp = _supports(vlist, config)
    ground = _dominance_reduce(vlist, supp)

    best_set = _greedy_pack(ground, supp)
    best = len(best_set)

    n = len(ground)
    suffix: list[frozenset[int]] = [frozenset()] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | supp[ground[i]]

    def walk(i: int, used: frozenset[int], cur: list[int]) -> None:
        nonlocal best, best_set
        if len(cur) > best:
            best, best_set = len(cur), list(cur)
        if i == n:
            return
        if len(cur) + min(n - i, len(suffix[i] - used)) <= best:
            return
        s = supp[ground[i]]
        if used.isdisjoint(s):
            cur.append(ground[i])
            walk(i + 1, used | s, cur)
            cur.pop()
        walk(i + 1, used, cur)

    walk(0, frozenset(), [])
    return PiResult(x, best, "exact", tuple(sorted(best_set)), complete)


def pi_general_greedy(f: NtFunction, x: int,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> PiResult:
    """Smallest-value-first coprime packing; a lower bound for the
    exact maximum, usable past the exact solver's cap."""
    values, complete = _distinct_values(f, x, config)
    if not values:
        return PiResult(x, 0, "greedy-lower-bound", (), complete)
    vlist = sorted(values)
    supp = _supports(vlist, config)
    chosen = _greedy_pack(vlist, supp)
    return PiResult(x, len(chosen), "greedy-lower-bound", tuple(chosen),
                    complete)


def implication_check(f: NtFunction, m_range: tuple[int, int],
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> list[dict]:
    """Whenever Pi_f(m) > omega(m), some value of f must sit in Z_m^*:
    of more than omega(m) pairwise coprime values in (1, m], one shares
    no prime with m, so find_zm_witness must find a value in (1, m).

    Returns violating m with the search's outcome, FAILS (proven empty)
    or UNKNOWN (expected none: this is a theorem, so an entry means an
    implementation bug)."""
    lo, hi = m_range
    if lo < 2 or hi < lo:
        raise InvalidArgument("bad range")
    spf = smallest_factor_table(hi, config)
    violations = []
    for m in range(lo, hi + 1):
        pi = pi_general_exact(f, m, cap=None, config=config)
        omega_m = len(factor_with_table(m, spf))
        if pi.value <= omega_m:
            continue
        witness, conclusive = find_zm_witness((f,), m, config=config)
        if witness is None:
            violations.append({
                "m": m,
                "pi": pi.value,
                "omega": omega_m,
                "zm_witness_status": "FAILS" if conclusive else "UNKNOWN",
            })
    return violations
