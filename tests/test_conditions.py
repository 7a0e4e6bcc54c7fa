"""Necessary-condition checkers and the coprime-sequence generator."""

import math
import random

import pytest

from primework.analogy import find_zm_witness
from primework.analysis import envelope_outside_bound, exceeds_one_from
from primework.conditions import (Status, check_condition_B,
                                  check_condition_C, check_condition_D,
                                  check_system_conditions, condition_report,
                                  find_value_witness,
                                  generate_coprime_sequence)
from primework.config import DEFAULT_CONFIG
from primework.errors import GRequiresPrime, InvalidArgument
from primework.expr import evaluate, parse_function, parse_system


def test_condition_d_fixed_divisor():
    verdicts = check_condition_D(parse_function("x^2+x"), 10)
    assert verdicts[2].status is Status.FAILS
    assert verdicts[3].status is Status.HOLDS
    assert verdicts[5].status is Status.HOLDS


def test_condition_d_identity():
    verdicts = check_condition_D(parse_function("x"), 30)
    for p, v in verdicts.items():
        assert v.status is Status.HOLDS
        assert v.witness.values[0] % p != 0


def test_condition_d_cubic():
    verdicts = check_condition_D(parse_function("x^3+1"), 10)
    v = verdicts[3]
    assert v.status is Status.HOLDS
    assert v.witness.point == (1,) and v.witness.values == (2,)


def test_condition_b_cubic_mod_90():
    v = check_condition_B(parse_function("x^3+1"), 90)
    assert v.status is Status.HOLDS
    assert v.witness.point == (6,) and v.witness.values == (217,)
    assert math.gcd(217, 90) == 1


def test_condition_b_fixed_divisor_fails():
    v = check_condition_B(parse_function("x^2+x"), 2)
    assert v.status is Status.FAILS
    assert v.obstruction == 2


def test_condition_b_identity():
    v = check_condition_B(parse_function("x"), 10)
    assert v.status is Status.HOLDS
    assert v.witness.point == (1,)


def test_condition_b_witness_rechecks():
    rng = random.Random(23)
    f = parse_function("x^3+1")
    for _ in range(80):
        m = rng.randrange(2, 3000)
        v = check_condition_B(f, m)
        if v.status is Status.HOLDS:
            x = v.witness.point[0]
            assert math.gcd(evaluate(f, (x,)), m) == 1


def test_e_mode_cubic_mod_90_holds():
    v = find_value_witness(parse_function("x^3+1"), 90, "E", 10**4)
    assert v.status is Status.HOLDS
    assert v.witness.point == (6,) and v.witness.values == (217,)


def test_f_mode_negative_quadratic():
    v = find_value_witness(parse_function("-x^2+6"), 7, "F", 10**4)
    assert v.status is Status.HOLDS
    assert v.witness.point == (1,) and v.witness.values == (5,)


def test_g_mode_requires_prime():
    with pytest.raises(GRequiresPrime):
        find_value_witness(parse_function("x"), 10, "G", 100)
    v = find_value_witness(parse_function("x"), 7, "G", 100)
    assert v.status is Status.HOLDS


def test_zm_holds_implies_e_holds():
    rng = random.Random(31)
    fns = [parse_function(s) for s in ("x", "x^2+1", "x^3+1", "2*x+1")]
    for _ in range(120):
        f = rng.choice(fns)
        m = rng.randrange(2, 500)
        zm, _ = find_zm_witness((f,), m)
        if zm is not None:
            v = zm.values[0]
            assert 1 < v < m and math.gcd(v, m) == 1
            # a value in Z_m^* above 1 is an E witness, found no later
            e = find_value_witness(f, m, "E", 2000)
            assert e.status is Status.HOLDS
            assert e.witness.point <= zm.point


def test_coprime_sequence_identity():
    seq = generate_coprime_sequence(parse_function("x"), 5, 10**4)
    assert [v for _, v in seq.entries] == [2, 3, 5, 7, 11]


def test_coprime_sequence_mersenne():
    seq = generate_coprime_sequence(parse_function("2^x-1"), 4, 10**4)
    assert [pt[0] for pt, _ in seq.entries] == [2, 3, 5, 7]
    assert [v for _, v in seq.entries] == [3, 7, 31, 127]


def test_coprime_sequence_negative_quadratic_stops():
    seq = generate_coprime_sequence(parse_function("-x^2+6"), 3, 10**4)
    assert [v for _, v in seq.entries] == [5, 2]


def test_coprime_sequence_pairwise():
    rng = random.Random(41)
    for text in ("x^2+1", "x^3+1", "3*x+2"):
        f = parse_function(text)
        seq = generate_coprime_sequence(f, 8, 10**4)
        vals = [v for _, v in seq.entries]
        assert all(v > 1 for v in vals)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert math.gcd(vals[i], vals[j]) == 1


def test_system_conditions_twin():
    # least x with x, x+2 > 1 and x*(x+2) coprime to 15: x=2 (2*4=8)
    v = check_system_conditions(parse_system("x; x+2"), 15, 10**3)
    assert v.status is Status.HOLDS
    assert v.witness.point == (2,) and v.witness.values == (2, 4)
    brute = next(x for x in range(1, 100)
                 if x > 1 and math.gcd(x * (x + 2), 15) == 1)
    assert brute == 2


def test_system_conditions_trivial():
    v = check_system_conditions(parse_system("x"), 2, 10**3)
    assert v.status is Status.HOLDS
    assert v.witness.point == (3,)


def test_system_conditions_consecutive_fails():
    v = check_system_conditions(parse_system("x; x+1"), 2, 10**3)
    assert v.status is Status.FAILS


def test_b_agrees_with_d_over_prime_divisors():
    rng = random.Random(53)
    fns = [parse_function(s) for s in
           ("x", "x^2+x", "x^3+1", "x^2+1", "2*x+4", "x^2+x+2")]
    for f in fns:
        table = check_condition_D(f, 200)
        for _ in range(60):
            m = rng.randrange(2, 200)
            primes = {p for p in table if m % p == 0}
            b = check_condition_B(f, m)
            expected = all(table[p].status is Status.HOLDS for p in primes)
            assert (b.status is Status.HOLDS) == expected, (str(f), m)


def test_condition_report_structure():
    rep = condition_report(parse_function("x^3+1"), 90)
    assert set(rep.verdicts) == set("ABCDEFG")
    assert all(v.status is Status.HOLDS for v in rep.verdicts.values())
    vals = [v for _, v in rep.coprime_sequence.entries]
    assert len(vals) >= 3  # omega(90) + 1


def test_condition_report_fixed_divisor():
    rep = condition_report(parse_function("x^2+x"), 2)
    assert rep.verdicts["B"].status is Status.FAILS
    assert rep.verdicts["D"].status is Status.FAILS


def test_value_witness_over_budget_is_unknown_not_fails():
    # 127 = f(7) is coprime to 3255, but 2^7 needs 8 bits: the scan is
    # cut at x = 6, so the period certificate proves nothing
    f = parse_function("2^x-1")
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=6)
    v = find_value_witness(f, 3255, "E", config=tight)
    assert v.status is Status.UNKNOWN and v.horizon == 10**4
    assert find_value_witness(f, 3255, "E").witness.point == (7,)
    # F: f(3) = 7 is not divisible by 3; 2^2 already needs 3 bits
    tighter = DEFAULT_CONFIG.with_overrides(bit_budget=2)
    v = find_value_witness(f, 3, "F", config=tighter)
    assert v.status is Status.UNKNOWN and v.horizon == 10**4
    assert find_value_witness(f, 3, "F").witness.point == (3,)


def test_fixed_divisor_ignores_the_bit_budget():
    # x^30 + x takes a 30-bit power at x = 2; its fixed divisor is 2,
    # from the coefficients, so B holds at x = 1 under a 20-bit budget
    f = parse_function("x^30+x")
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=20)
    v = check_condition_B(f, 15, config=tight)
    assert v.status is Status.HOLDS
    assert v.witness.point == (1,) and v.witness.values == (2,)
    assert check_condition_B(f, 15) == v
    # 3 divides every (x^30 + x)(x + 2)
    fs = parse_system("x^30+x; x+2")
    v = check_system_conditions(fs, 15, config=tight)
    assert v.status is Status.FAILS and v.obstruction == 3


def test_coprime_sequence_not_capped_after_budget_cut():
    f = parse_function("piecewise(x <= 1: 2, x <= 2: 2^20, x <= 3: 3, else: 0)")
    seq = generate_coprime_sequence(f, 2)
    assert [v for _, v in seq.entries] == [2, 3]
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=8)
    seq = generate_coprime_sequence(f, 2, config=tight)
    assert seq.achieved == 1 and not seq.capped


def test_undefined_points_are_skipped():
    f = parse_function("2^(x-2)+1")  # no value at x = 1
    v = find_value_witness(f, 10, "E")
    assert v.status is Status.HOLDS
    assert v.witness.point == (3,) and v.witness.values == (3,)
    seq = generate_coprime_sequence(f, 3)
    assert [p for p, _ in seq.entries] == [(2,), (3,), (4,)]
    v = check_system_conditions((f, parse_function("x+2")), 15)
    assert v.witness.point == (2,) and v.witness.values == (2, 4)


def test_a_constant_one_tail_never_exceeds_one():
    # the value 1 lies inside every envelope range [1, m-1], but it is
    # no E or F witness: a tail that is the constant 1 still closes
    f = parse_function("piecewise(x <= 3: 4, else: 1)")
    assert envelope_outside_bound(f, 2) is None
    assert exceeds_one_from(f) == (4, False)
    assert exceeds_one_from(parse_function("2-1")) == (1, False)
    v = find_value_witness(f, 2, "E")
    assert v.status is Status.FAILS and v.horizon is None
    assert find_value_witness(f, 3, "E").witness.point == (1,)
    seq = generate_coprime_sequence(f, 2)
    assert [v for _, v in seq.entries] == [4] and seq.capped


def test_decreasing_exponential_is_below_one_for_good():
    # c*b^x + d with c < 0 falls below 1 at X and stays there
    for text, x in (("-2*3^x+5", 1), ("-3^x+20", 3), ("-2^x+9", 4)):
        f = parse_function(text)
        assert exceeds_one_from(f) == (x, False), text
        assert envelope_outside_bound(f, 10) == (x, False), text
        assert all(evaluate(f, (t,)) >= 1 for t in range(1, x))
        assert all(evaluate(f, (t,)) < 1 for t in range(x, x + 30))
    f = parse_function("-3^x+20")
    seq = generate_coprime_sequence(f, 4)
    assert [v for _, v in seq.entries] == [17, 11] and seq.capped
    # its only values above 1 are 17 and 11
    assert find_value_witness(f, 187, "E").status is Status.FAILS
    assert find_value_witness(f, 17, "E").witness.values == (11,)


def test_residue_conditions_take_one_variable():
    f = parse_function("x+y")
    for check in (lambda: check_condition_B(f, 6),
                  lambda: check_condition_C(f, 6),
                  lambda: check_condition_D(f, 6)):
        with pytest.raises(InvalidArgument):
            check()


def test_polynomial_b_witness_is_not_cut_by_the_horizon():
    # the Chinese remainder theorem puts it within the radical, 30
    v = check_condition_B(parse_function("x^3+1"), 90, horizon=2)
    assert v.status is Status.HOLDS and v.witness.point == (6,)


def test_period_longer_than_the_horizon_proves_nothing():
    # 2^x - 2 is 0 mod 7 at x = 1 and 2 at x = 2; ord_7(2) = 3
    f = parse_function("2^x-2")
    assert check_condition_C(f, 7, horizon=1).status is Status.UNKNOWN
    assert check_condition_C(f, 7, horizon=3).witness.point == (2,)
    assert check_condition_B(f, 21, horizon=1).status is Status.UNKNOWN
    assert check_condition_B(f, 21, horizon=2).witness.point == (2,)


def test_multivariate_e_and_g_are_the_system_form():
    # every value of 3xy + 3 is a multiple of 3: the fixed divisor
    # closes E and G at once instead of a 10^4-per-axis scan
    f = parse_function("3*x*y+3")
    for mode in ("E", "G"):
        v = find_value_witness(f, 3, mode)
        assert (v.status, v.obstruction) == (Status.FAILS, 3)
        assert v == check_system_conditions((f,), 3)
    v = find_value_witness(f, 10, "E")
    assert v.witness.point == (1, 2) and v.witness.values == (9,)
    assert v == check_system_conditions((f,), 10)
    # every value of 2^x * y is even, but no certificate says so: the
    # system form runs out of its horizon
    v = find_value_witness(parse_function("2^x*y"), 2, "E", horizon=3)
    assert (v.status, v.horizon) == (Status.UNKNOWN, 3)
