"""Built-in verification corpus.

Every check pins one concrete, hand-verifiable fact about the library:
a factorization, a least witness, a lift failure, a bound suite with no
violations.  The CLI runs the whole registry through ``verify-paper``
and fails loudly on any mismatch, so a green run certifies that the
installed build still reproduces the reference corpus byte for byte.

Checks are pure and deterministic; slow suites run at desk scale here
(the full-range versions live in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analogy import (LiftStatus, check_crt_analogy,
                      check_piecewise_counterexample, find_zm_witness,
                      scan_for_lift_failures)
from .arith import euler_phi, factorize, is_prime
from .analysis import classify
from .conditions import (Status, check_condition_B, find_value_witness,
                         generate_coprime_sequence)
from .config import DEFAULT_CONFIG, WorkbenchConfig
from .counting import phi_general
from .expr import evaluate, parse_function
from .factorial import coprime_to_factorial, least_factorial_witness
from .fermat import (euler_lucas_search, fermat_in_zm, fermat_number,
                     finiteness_argument_check, verify_factorization)
from .witness import exponent_identity_check, s_f, verify_bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str


_REGISTRY: list = []


def _check(name):
    """Register a check under its name.  A check returns (expected,
    actual); it passes when their texts are equal."""
    def wrap(fn):
        _REGISTRY.append((name, fn))
        return fn
    return wrap


@_check("mersenne_2047_composite")
def _c1(config):
    return ("composite 23x89",
            "composite 23x89" if not is_prime(2047, config)
            and 2047 == 23 * 89 else "mismatch")


@_check("cofactor_6700417_prime")
def _c2(config):
    return (True, is_prime(6700417, config))


@_check("factor_4294967297")
def _c3(config):
    got = factorize(4294967297, config).factors
    return ("[(641, 1), (6700417, 1)]", sorted(got))


@_check("parse_double_exponential")
def _c4(config):
    f = parse_function("2^(2^x)+1")
    return ("arity 1", f"arity {f.arity}")


@_check("double_exponential_at_5")
def _c5(config):
    f = parse_function("2^(2^x)+1")
    return (4294967297, evaluate(f, (5,), config=config))


@_check("parse_piecewise_three_branch")
def _c6(config):
    f = parse_function("piecewise(x <= 2: 2, x <= 39: 3, else: floor(x / 3))")
    vals = [evaluate(f, (x,), config=config) for x in (1, 2, 3, 39, 40, 120)]
    return ([2, 2, 3, 3, 13, 40], vals)


@_check("negative_quadratic_leading_coefficient")
def _c7(config):
    info = classify(parse_function("-x^2+6"))
    return ("degree 2, lead -1",
            f"degree {info.total_degree}, lead {info.leading_coefficient}")


@_check("cubic_shift_unit_mod_9")
def _c8(config):
    f = parse_function("x^3+1")
    v = evaluate(f, (1,), config=config)
    ok = 1 <= v < 9 and math.gcd(v, 9) == 1
    return ("2 in Z_9*", f"{v} in Z_9*" if ok else f"{v} not a unit")


@_check("cubic_shift_unit_mod_10")
def _c9(config):
    f = parse_function("x^3+1")
    v = evaluate(f, (2,), config=config)
    ok = 1 <= v < 10 and math.gcd(v, 10) == 1
    return ("9 in Z_10*", f"{v} in Z_10*" if ok else f"{v} not a unit")


@_check("cubic_shift_no_unit_mod_90")
def _c10(config):
    w, conclusive = find_zm_witness((parse_function("x^3+1"),), 90,
                                    config=config)
    return ("fails", "holds" if w else ("fails" if conclusive else "unknown"))


@_check("negative_quadratic_nonzero_mod_7")
def _c11(config):
    v = find_value_witness(parse_function("-x^2+6"), 7, "F", config=config)
    w = v.witness
    return ("holds x=1 value 5",
            f"{v.status.value} x={w.point[0]} value {w.values[0]}"
            if w else v.status.value)


@_check("negative_quadratic_coprime_chain_stops_at_2")
def _c12(config):
    seq = generate_coprime_sequence(parse_function("-x^2+6"), 3,
                                    config=config)
    vals = [v for _, v in seq.entries]
    return ([5, 2], vals)


@_check("mersenne_least_witness_82677")
def _c13(config):
    rec = s_f(parse_function("2^x-1"), 82677, config=config)
    prime = is_prime(rec.values[0], config) if rec.values else None
    return ("n=11 value=2047 prime=False",
            f"n={rec.point[0] if rec.point else None} "
            f"value={rec.values[0] if rec.values else None} "
            f"prime={prime}")


@_check("identity_sqrt_bound_desk_scale")
def _c14(config):
    rep = verify_bound(parse_function("x"), "sqrt", (31, 10**4), config)
    return ("[]", list(rep.violations))


@_check("mersenne_log2_bound_desk_scale")
def _c15(config):
    rep = verify_bound(parse_function("2^x-1"), "log2", (22, 10**4), config)
    return ("[]", list(rep.violations))


@_check("exponent_identity_odd_moduli")
def _c16(config):
    rep = exponent_identity_check((3, 10**3), config)
    return ("[]", list(rep.violations))


@_check("identity_unit_count_matches_phi")
def _c17(config):
    f = parse_function("x")
    bad = [n for n in range(2, 501)
           if phi_general((f,), n, config=config).count != euler_phi(n, config)]
    return ("[]", bad)


@_check("cubic_shift_lift_failure_9_10")
def _c18(config):
    r = check_crt_analogy((parse_function("x^3+1"),), 9, 10, config=config)
    return (LiftStatus.FAILS_TO_LIFT.value, r.status.value)


@_check("double_exponential_lift_failure_51_1285")
def _c19(config):
    r = check_crt_analogy((parse_function("2^(2^x)+1"),), 51, 1285,
                          config=config)
    wa = r.witness_a.values[0] if r.witness_a else None
    wb = r.witness_b.values[0] if r.witness_b else None
    return ("FailsToLift a-side 5 b-side 17",
            f"{r.status.value} a-side {wa} b-side {wb}")


@_check("piecewise_lift_failure_3_4")
def _c20(config):
    r = check_piecewise_counterexample(config)
    wa = (r.witness_a.point[0], r.witness_a.values[0]) if r.witness_a else None
    wb = (r.witness_b.point[0], r.witness_b.values[0]) if r.witness_b else None
    return ("FailsToLift a=(1, 2) b=(3, 3)", f"{r.status.value} a={wa} b={wb}")


@_check("cubic_shift_scan_finds_9_10")
def _c21(config):
    hits = scan_for_lift_failures([parse_function("x^3+1")], 100,
                                  config=config)
    return (True, any(r.a == 9 and r.b == 10 for r in hits))


@_check("fermat_small_values")
def _c22(config):
    vals = [fermat_number(x, config) for x in (0, 1, 2, 3, 4)]
    return ([3, 5, 17, 257, 65537], vals)


@_check("fermat_f5_value")
def _c23(config):
    return (4294967297, fermat_number(5, config))


@_check("fermat_f5_trial_search")
def _c24(config):
    hits = euler_lucas_search(5, 16, config)
    k_euler = (hits[0] - 1) // 64 if hits else None
    return ("[641] at 64k+1 k=10", f"{hits} at 64k+1 k={k_euler}")


@_check("fermat_f4_no_small_factor")
def _c25(config):
    return ("[]", euler_lucas_search(4, 10**4, config))


@_check("fermat_f5_factorization")
def _c26(config):
    return (True, verify_factorization(5, [641, 6700417], config))


@_check("fermat_f6_factorization")
def _c27(config):
    return (True, verify_factorization(6, [274177, 67280421310721], config))


@_check("fermat_telescoping_65535")
def _c28(config):
    rows = finiteness_argument_check((4, 4), config)
    r = rows[0]
    return ("m=65535 telescoping=True fermat_free=True",
            f"m={r.m} telescoping={r.telescoping_ok} "
            f"fermat_free={r.fermat_free}")


@_check("fermat_unit_mod_51")
def _c29(config):
    return (5, fermat_in_zm(51, config=config))


@_check("fermat_unit_mod_1285")
def _c30(config):
    return (17, fermat_in_zm(1285, config=config))


@_check("fermat_no_unit_mod_65535")
def _c31(config):
    return (None, fermat_in_zm(65535, config=config))


@_check("factorial_coprime_187_l6")
def _c32(config):
    return (True, coprime_to_factorial(187, 6, config))


@_check("pair_shift_180_witness_l6")
def _c33(config):
    fs = (parse_function("x"), parse_function("x+180"))
    w = least_factorial_witness(fs, 6, config=config)
    return ("x=7 values (7, 187) all_prime=False",
            f"x={w.point[0]} values {w.values} all_prime={w.all_prime}"
            if w else "no witness")


@_check("identity_least_unit_prime_desk_scale")
def _c34(config):
    from .arith import least_coprime_exceeding_one
    bad = [m for m in range(3, 2001)
           if not is_prime(least_coprime_exceeding_one(m), config)]
    return ("[]", bad)


@_check("condition_b_cubic_shift_mod_90")
def _c35(config):
    v = check_condition_B(parse_function("x^3+1"), 90, config=config)
    w = v.witness
    return ("holds x=6 value 217",
            f"{v.status.value} x={w.point[0]} value {w.values[0]}"
            if w else v.status.value)


def run_checks(config: WorkbenchConfig = DEFAULT_CONFIG,
               names: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run the registry (or a named subset) in registration order."""
    wanted = set(names) if names is not None else None
    out = []
    for name, fn in _REGISTRY:
        if wanted is not None and name not in wanted:
            continue
        try:
            expected, actual = map(str, fn(config))
        except Exception as exc:  # a crash is a failed check, not a crash
            expected, actual = "no exception", f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(name, expected == actual, expected, actual))
    return out
