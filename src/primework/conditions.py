"""Checkers for the necessary conditions a prime-representing function
must satisfy.

Letter key, for one function f and a modulus m (system forms take the
product of the member values):

  A  arbitrarily long pairwise-coprime value sequences exist
  B  some value is coprime to m
  C  some value is not divisible by m
  D  for each prime p, some value is not divisible by p
  E  some value exceeds 1 and is coprime to m
  F  some value exceeds 1 and is not divisible by m
  G  E restricted to prime moduli
  H  system form of A (pairwise coprime products, all members > 1)
  I  system form of E

Verdicts are three-valued.  B, C and D ask whether a block of m (a
prime of m for B, m for C, a prime p for D) divides every value, and
one routine, _residue_verdict, answers all three with one horizon
rule.  A polynomial fails exactly when a block divides its fixed
divisor; otherwise its residue scan covers a whole period, so these
verdicts never read the horizon.  Any other shape scans at most the
horizon and fails only on an empty scan of a whole residue period
(c*b^x + d).  The residue scan (_residues) is the counterpart of
analysis._Scan: it skips a point where f has no value, and a witness
carries the exact value, or None when that is over the bit budget.

E, F and G close through envelope certificates and residue periods.
Other shapes report Unknown when the horizon runs out, and so does a
value scan that meets a value beyond the bit budget.

E, F and G on a univariate f, and condition A's chain, scan exact
values through analysis._Scan.  When f is not a polynomial, the scan
takes its points from the residue stream (_residues), which keeps only
the x whose residue passes a pre-test (E and G: gcd(f(x) mod m, m) = 1;
F: f(x) != 0 mod m; A: gcd(f(x) mod P, P) = 1 for P the product of the
values kept, the stream re-seeded at the next x whenever P grows), so
only a point that passes is evaluated exactly.  For c*b^x + d the
stream costs one multiplication mod m per point.  Each test is
necessary for the scan's accept, and the stream has no value where
evaluate has none.  A point left out is never evaluated, so it could
not end the scan at the bit budget: the stream therefore serves a scan
only after analysis._within_budget shows that no exact value up to the
scan's limit can pass the budget.  Towers and tight budgets fail that
guard and keep the exact scan, so every verdict is that of the exact
scan.  Polynomial scans stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .analysis import (_analysis, _Scan, _within_budget, classify,
                       exceeds_one_from, iter_points)
from .arith import factorize, is_prime, multiplicative_order, sieve_primes
from .config import DEFAULT_CONFIG, SCAN_HORIZON, WorkbenchConfig
from .errors import (DomainError, EvaluationBudgetExceeded, EvaluationError,
                     GRequiresPrime, InvalidArgument)
from .expr import NtFunction, evaluate, evaluate_mod
from .poly import _fixed_divisor, _horner, _nf_mul


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Witness:
    point: tuple[int, ...]
    values: tuple[int, ...]
    modulus: int


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Witness | None = None
    obstruction: int | None = None  # prime (or modulus) blocking the condition
    horizon: int | None = None      # recorded when the scan was horizon-limited

    @property
    def conclusive(self) -> bool:
        return self.status is not Status.UNKNOWN


def _residues(f: NtFunction, q: int, limit: int, start: int = 1):
    """Yield (x, f(x) mod q) for x = start..limit: the one residue
    stream of univariate scans, the counterpart of analysis._Scan.  A
    polynomial runs by Horner over its cached coefficients, c*b^x + d by
    one multiplication mod q per point from a seed of pow(b, start, q),
    and any other f through evaluate_mod.  A point where f has no value
    is skipped, as _Scan skips it.  Residue periods are certified only
    for polynomials and c*b^x + d, which have no such points, so a skip
    never hides a point that a Fails rests on."""
    _require_univariate(f)
    a = _analysis(f)
    if a.coeffs is not None:
        red = [c % q for c in a.coeffs]
        for x in range(start, limit + 1):
            yield x, _horner(red, x % q) % q
        return
    if a.shape is not None:
        c, b, d = a.shape
        r = (c * pow(b, start, q) + d) % q
        step = d * (1 - b)  # c*b^(x+1) + d = b*(c*b^x + d) + d*(1 - b)
        for x in range(start, limit + 1):
            yield x, r
            r = (b * r + step) % q
        return
    for x in range(start, limit + 1):
        try:
            r = evaluate_mod(f, (x,), q)
        except (DomainError, EvaluationError):
            continue  # f has no value at x
        yield x, r


def _pretested(f: NtFunction, limit: int, config: WorkbenchConfig) -> bool:
    """Whether a value scan of f over x = 1..limit takes its points from
    the residue stream, keeping only the x whose residue passes a test
    that the scan's accept implies.  Only a univariate f that is not a
    polynomial does (polynomial scans stay exact), and only when
    _within_budget proves that no exact value of the scan can cut it,
    since a point left out is never evaluated exactly."""
    return (f.arity == 1 and _analysis(f).coeffs is None
            and _within_budget(f, limit, config))


def _require_univariate(f: NtFunction) -> None:
    if f.arity != 1:
        raise InvalidArgument("conditions B, C and D take a univariate function")


def _holds_at(f: NtFunction, x: int, modulus: int,
              config: WorkbenchConfig) -> Verdict:
    """Holds at x, with the exact value (None when over the budget)."""
    try:
        value = evaluate(f, (x,), config=config)
    except EvaluationBudgetExceeded:
        value = None
    return Verdict(Status.HOLDS, Witness((x,), (value,), modulus))


def _residue_period(f: NtFunction, modulus: int,
                    config: WorkbenchConfig) -> int | None:
    """Period of x -> f(x) mod modulus over x >= 1, when provable."""
    a = _analysis(f)
    if a.coeffs is not None:
        return modulus
    if a.shape is not None:
        _, b, _ = a.shape
        if math.gcd(b, modulus) == 1:
            return multiplicative_order(b, modulus, config)
        if b % modulus == 0:
            return 1  # b^x = 0 mod modulus for every x >= 1
    return None


def _residue_verdict(f: NtFunction, m: int, blocks: list[int], horizon: int,
                     config: WorkbenchConfig) -> Verdict:
    """Least x >= 1 where no block divides f(x), the witness reported
    modulo m; the blocks are pairwise coprime.  A polynomial fails at
    the first block of its fixed divisor, else scans the whole joint
    period.  Any other shape scans at most the horizon; with more than
    one block it first fails at a block whose own period fits in the
    horizon and is all zeros, which the joint period may not."""
    poly = _analysis(f).coeffs is not None
    joint = 1  # lcm of the block periods; None when one is unknown
    for block in blocks:
        if poly:
            if classify(f).fixed_divisor % block == 0:
                return Verdict(Status.FAILS, obstruction=block)
            period = block
        else:
            period = _residue_period(f, block, config)
            if period is None:
                joint = None
                break
            if len(blocks) > 1 and period <= horizon and not any(
                    r for _, r in _residues(f, block, period)):
                return Verdict(Status.FAILS, obstruction=block)
        joint = math.lcm(joint, period)
    # a polynomial does not read the horizon
    limit = joint if poly else (horizon if joint is None else min(horizon, joint))
    q, single = math.prod(blocks), len(blocks) == 1
    for x, r in _residues(f, q, limit):
        if (r != 0) if single else math.gcd(r, q) == 1:
            return _holds_at(f, x, m, config)
    if joint is not None and joint <= limit:
        return Verdict(Status.FAILS, obstruction=blocks[0] if single else m)
    return Verdict(Status.UNKNOWN, horizon=horizon)


def check_condition_D(f: NtFunction, prime_bound: int,
                      horizon: int = SCAN_HORIZON,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> dict[int, Verdict]:
    """Condition D prime by prime, for every prime <= prime_bound."""
    return {p: _residue_verdict(f, p, [p], horizon, config)
            for p in sieve_primes(prime_bound, config)}


def check_condition_C(f: NtFunction, m: int, horizon: int = SCAN_HORIZON,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> Verdict:
    """Condition C: some value not divisible by m (m >= 2)."""
    if m < 2:
        raise InvalidArgument("condition C needs a modulus >= 2")
    return _residue_verdict(f, m, [m], horizon, config)


def check_condition_B(f: NtFunction, m: int, horizon: int = SCAN_HORIZON,
                      config: WorkbenchConfig = DEFAULT_CONFIG) -> Verdict:
    """Condition B: some value coprime to m, one block per prime of m."""
    if m < 2:
        raise InvalidArgument("condition B needs a modulus >= 2")
    primes = [p for p, _ in factorize(m, config).factors]
    return _residue_verdict(f, m, primes, horizon, config)


VALUE_MODES = ("E", "F", "G")


def find_value_witness(f: NtFunction, m: int, mode: str,
                       horizon: int = SCAN_HORIZON,
                       config: WorkbenchConfig = DEFAULT_CONFIG) -> Verdict:
    """Least-point witness scans for the value conditions E, F and G.
    An empty scan is a Fails only for univariate f, through the tail
    certificate of exceeds_one_from (a reading of the envelope) and a
    residue period, and only when no value ran over the bit budget.  E
    and G on a multivariate f are the one-member system form, whose
    Fails is the fixed-divisor certificate of check_system_conditions.
    Membership of a value in Z_m^* is analogy.find_zm_witness."""
    if mode not in VALUE_MODES:
        raise InvalidArgument(f"mode must be one of {VALUE_MODES}")
    if m < 2:
        raise InvalidArgument("modulus must be >= 2")
    if mode == "G" and not is_prime(m, config):
        raise GRequiresPrime(f"{m} is not prime")
    if f.arity > 1 and mode in ("E", "G"):
        return check_system_conditions((f,), m, horizon, config)
    if mode == "F":
        accept = lambda v: v > 1 and v % m != 0
        passes = lambda r: r != 0
    else:  # E, G: value exceeds 1 and is coprime to m
        accept = lambda v: v > 1 and math.gcd(v % m, m) == 1
        passes = lambda r: math.gcd(r, m) == 1
    limit, proof = horizon, None
    if f.arity == 1:
        limit, proof = _value_certificate(f, m, mode, horizon, config)
    points = (((x,) for x, r in _residues(f, m, limit) if passes(r))
              if _pretested(f, limit, config) else iter_points(f.arity, limit))
    scan = _Scan((f,), points, accept, config)
    for point, values in scan:
        return Verdict(Status.HOLDS, Witness(point, values, m))
    if proof is not None and scan.cut is None:
        return proof
    return Verdict(Status.UNKNOWN, horizon=horizon)


def _value_certificate(f: NtFunction, m: int, mode: str, horizon: int,
                       config: WorkbenchConfig) -> tuple[int, Verdict | None]:
    """Scan limit for univariate f, and the Fails an empty scan up to
    that limit proves (None when no certificate fits in the horizon)."""
    cert = exceeds_one_from(f, config)
    if cert is None:
        return horizon, None
    x1, eventually_positive = cert
    if not eventually_positive:  # no value exceeds 1 from x1 on
        end, proof = x1 - 1, Verdict(Status.FAILS)
    else:
        # values exceed 1 from x1 on; their residues repeat with period
        q = m if mode == "F" else math.prod(
            p for p, _ in factorize(m, config).factors)  # the radical of m
        period = _residue_period(f, q, config)
        if period is None:
            return horizon, None
        end, proof = x1 + period - 1, Verdict(Status.FAILS, obstruction=m)
    return (end, proof) if end <= horizon else (horizon, None)


@dataclass(frozen=True)
class CoprimeSequence:
    requested: int
    entries: tuple[tuple[tuple[int, ...], int], ...]  # (point, value)
    # True when the function provably yields no further values > 1,
    # so no longer sequence exists at any horizon
    capped: bool = False

    @property
    def achieved(self) -> int:
        return len(self.entries)


def generate_coprime_sequence(f: NtFunction, count: int,
                              horizon: int = SCAN_HORIZON,
                              config: WorkbenchConfig = DEFAULT_CONFIG) -> CoprimeSequence:
    """Greedy condition-A witness: scan points in workbench order and
    keep each value > 1 that is coprime to everything kept so far."""
    entries = []
    product = 1
    cert = exceeds_one_from(f, config) if f.arity == 1 else None
    limit = horizon
    capped = False
    if cert is not None and not cert[1]:
        # beyond x1 every value is < 1: the sequence cannot grow there
        limit = min(horizon, cert[0] - 1)
        capped = cert[0] - 1 <= horizon

    def coprime_residues():
        # the stream mod the product kept, re-seeded at the next x
        # whenever a kept value has grown the product
        x, q = 0, None
        while q != product:
            q = product
            for x, r in _residues(f, q, limit, x + 1):
                if math.gcd(r, q) == 1:
                    yield (x,)
                    if q != product:
                        break
    points = (coprime_residues() if _pretested(f, limit, config)
              else iter_points(f.arity, limit))
    scan = _Scan((f,), points,
                 lambda v: v > 1 and math.gcd(v, product) == 1, config)
    for point, (v,) in scan:
        entries.append((point, v))
        product *= v
        if len(entries) == count:
            break
    capped = capped and scan.cut is None and len(entries) < count
    return CoprimeSequence(count, tuple(entries), capped)


def check_system_conditions(fs: tuple[NtFunction, ...], m: int,
                            horizon: int = SCAN_HORIZON,
                            config: WorkbenchConfig = DEFAULT_CONFIG) -> Verdict:
    """Condition I for a system: least point where every member value
    exceeds 1 and the product of values is coprime to m.

    All-polynomial systems fail conclusively when some prime of m
    divides the fixed divisor of the product of the members.
    """
    if m < 2:
        raise InvalidArgument("modulus must be >= 2")
    nfs = [_analysis(g).nf for g in fs]
    if None not in nfs:
        fd = _fixed_divisor(reduce(_nf_mul, nfs))
        for p, _ in factorize(m, config).factors:
            if fd % p == 0:
                return Verdict(Status.FAILS, obstruction=p)
    scan = _Scan(fs, iter_points(fs[0].arity, horizon),
                 lambda v: v > 1 and math.gcd(v % m, m) == 1, config)
    for point, values in scan:
        return Verdict(Status.HOLDS, Witness(point, values, m))
    return Verdict(Status.UNKNOWN, horizon=horizon)


@dataclass(frozen=True)
class ConditionReport:
    modulus: int
    verdicts: dict
    coprime_sequence: CoprimeSequence


def condition_report(f: NtFunction, m: int, horizon: int = SCAN_HORIZON,
                     config: WorkbenchConfig = DEFAULT_CONFIG) -> ConditionReport:
    """One-stop report for a single function against one modulus.

    D and G are evaluated at the primes dividing m and their verdicts
    conjoined (Fails wins, then Unknown).  The A entry records whether
    a pairwise-coprime sequence of length omega(m) + 1 was reached.
    """
    if m < 2:  # refused before A's scan, with B's message
        raise InvalidArgument("condition B needs a modulus >= 2")
    primes = [p for p, _ in factorize(m, config).factors]
    _require_univariate(f)
    verdicts = {}
    seq = generate_coprime_sequence(f, len(primes) + 1, horizon, config)
    verdicts["A"] = Verdict(Status.HOLDS if seq.achieved == len(primes) + 1
                            else (Status.FAILS if seq.capped else Status.UNKNOWN),
                            horizon=horizon)
    verdicts["B"] = check_condition_B(f, m, horizon, config)
    verdicts["C"] = check_condition_C(f, m, horizon, config)
    verdicts["D"] = _conjoin([_residue_verdict(f, p, [p], horizon, config)
                              for p in primes])
    verdicts["E"] = find_value_witness(f, m, "E", horizon, config)
    verdicts["F"] = find_value_witness(f, m, "F", horizon, config)
    verdicts["G"] = _conjoin([find_value_witness(f, p, "G", horizon, config)
                              for p in primes])
    return ConditionReport(m, verdicts, seq)


def _conjoin(parts: list[Verdict]) -> Verdict:
    for v in parts:
        if v.status is Status.FAILS:
            return v
    for v in parts:
        if v.status is Status.UNKNOWN:
            return v
    witnessed = [v for v in parts if v.witness is not None]
    return Verdict(Status.HOLDS, witness=witnessed[0].witness if witnessed else None)
