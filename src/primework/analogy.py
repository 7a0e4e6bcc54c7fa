"""Witness lifting between coprime moduli.

The classical Chinese Remainder Theorem lifts residues from Z_a and
Z_b to Z_ab.  The question here is whether a system with values
exceeding 1 inside Z_a^* and inside Z_b^* must also put values inside
Z_ab^*.  For polynomials that can fail (x^3+1 over 9 and 10), for the
Fermat tower it fails over 51 and 1285, and a three-branch piecewise
function fails over 3 and 4.  FailsToLift is only ever reported with
an envelope certificate that the empty scan covered every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .analysis import _box, _Scan, iter_points
from .arith import is_prime
from .conditions import Witness
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import InvalidArgument, ModuliNotCoprime
from .expr import FunctionSystem, parse_function


class LiftStatus(Enum):
    LIFTS = "Lifts"
    FAILS_TO_LIFT = "FailsToLift"
    INAPPLICABLE = "Inapplicable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class AnalogyResult:
    a: int
    b: int
    witness_a: Witness | None
    witness_b: Witness | None
    witness_ab: Witness | None
    status: LiftStatus
    function_text: str | None = None


def find_zm_witness(fs: FunctionSystem, m: int, box: int | None = None,
                    config: WorkbenchConfig = DEFAULT_CONFIG,
                    ) -> tuple[Witness | None, bool]:
    """Least point with every member value strictly between 1 and m
    and coprime to m, with the values the scan computed.  The box
    follows analysis._box.  Second element reports whether an empty
    result is conclusive: the box covers the envelope's side and no
    value ran over the bit budget."""
    if m < 2:
        raise InvalidArgument("modulus must be at least 2")
    _, scanned, covered = _box(fs, m, box, config)
    scan = _Scan(fs, iter_points(fs[0].arity, scanned),
                 lambda v: 1 < v < m and math.gcd(v, m) == 1, config)
    for point, values in scan:
        return Witness(point, values, m), True
    return None, covered and scan.cut is None


def _combine_status(wa: Witness | None, ca: bool,
                    wb: Witness | None, cb: bool,
                    wab: Witness | None, cab: bool) -> LiftStatus:
    if wa is None or wb is None:
        # premise unmet; only claim so when the empty side is proven empty
        if (wa is None and ca) or (wb is None and cb):
            return LiftStatus.INAPPLICABLE
        return LiftStatus.UNKNOWN
    if wab is not None:
        return LiftStatus.LIFTS
    return LiftStatus.FAILS_TO_LIFT if cab else LiftStatus.UNKNOWN


def check_crt_analogy(fs: FunctionSystem, a: int, b: int,
                      box: int | None = None,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> AnalogyResult:
    """Witnesses for a, b, and ab, and whether the side witnesses lift."""
    if a < 2 or b < 2:
        raise InvalidArgument("moduli must be at least 2")
    if math.gcd(a, b) != 1:
        raise ModuliNotCoprime(f"gcd({a}, {b}) != 1")
    wa, ca = find_zm_witness(fs, a, box, config)
    wb, cb = find_zm_witness(fs, b, box, config)
    wab, cab = find_zm_witness(fs, a * b, box, config)
    status = _combine_status(wa, ca, wb, cb, wab, cab)
    return AnalogyResult(a, b, wa, wb, wab, status)


_PIECEWISE_TEXT = "piecewise(x <= 2: 2, x <= 39: 3, else: floor(x / 3))"


def check_piecewise_counterexample(
        config: WorkbenchConfig = DEFAULT_CONFIG) -> AnalogyResult:
    """The three-branch function valued 2, then 3, then floor(x/3):
    witnesses in Z_3^* and Z_4^* but provably nothing in Z_12^*."""
    f = parse_function(_PIECEWISE_TEXT)
    result = check_crt_analogy((f,), 3, 4, config=config)
    return AnalogyResult(result.a, result.b, result.witness_a,
                         result.witness_b, result.witness_ab, result.status,
                         function_text=_PIECEWISE_TEXT)


def scan_for_lift_failures(family, ab_limit: int, box: int | None = None,
                           config: WorkbenchConfig = DEFAULT_CONFIG,
                           ) -> list[AnalogyResult]:
    """All FailsToLift instances over coprime pairs 2 <= a < b with
    a*b <= ab_limit, for each family member, in deterministic order."""
    out = []
    for f in family:
        text = str(f)
        for a in range(2, ab_limit + 1):
            if a * (a + 1) > ab_limit:
                break
            for b in range(a + 1, ab_limit // a + 1):
                if math.gcd(a, b) != 1:
                    continue
                r = check_crt_analogy((f,), a, b, box, config)
                if r.status is LiftStatus.FAILS_TO_LIFT:
                    out.append(AnalogyResult(r.a, r.b, r.witness_a,
                                             r.witness_b, r.witness_ab,
                                             r.status, function_text=text))
    return out


def _prime_form_witness(a: int, b: int, m: int,
                        config: WorkbenchConfig) -> tuple[Witness | None, bool]:
    """Least x >= 1 with a + b*x prime and strictly inside Z_m^*.
    The scan is complete: beyond (m - a) / b the value leaves [0, m)."""
    if m < 2:
        raise InvalidArgument("modulus must be at least 2")
    x = 1
    while True:
        v = a + b * x
        if v >= m:
            return None, True
        if v > 1 and math.gcd(v, m) == 1 and is_prime(v, config):
            return Witness((x,), (v,), m), True
        x += 1


def prime_witness_lift(a: int, b: int, m: int, n: int,
                       box: int | None = None,
                       config: WorkbenchConfig = DEFAULT_CONFIG) -> AnalogyResult:
    """Remark-7 variant for the linear form a + b*x: witnesses must be
    prime on top of lying strictly inside the residue group."""
    if b < 1:
        raise InvalidArgument("b must be positive")
    if math.gcd(a, b) != 1:
        raise InvalidArgument(f"gcd({a}, {b}) != 1 makes the form degenerate")
    if m < 2 or n < 2:
        raise InvalidArgument("moduli must be at least 2")
    if math.gcd(m, n) != 1:
        raise ModuliNotCoprime(f"gcd({m}, {n}) != 1")
    wa, ca = _prime_form_witness(a, b, m, config)
    wb, cb = _prime_form_witness(a, b, n, config)
    wab, cab = _prime_form_witness(a, b, m * n, config)
    status = _combine_status(wa, ca, wb, cb, wab, cab)
    return AnalogyResult(m, n, wa, wb, wab, status,
                         function_text=f"{a} + {b}*x")
