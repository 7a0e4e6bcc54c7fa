"""Expression parsing, exact and modular evaluation."""

import random
import re
import time

import pytest

from primework.config import DEFAULT_CONFIG
from primework.errors import (DomainError,
                              EvaluationBudgetExceeded, EvaluationError,
                              ExpressionSyntaxError)
from primework.expr import (evaluate, evaluate_mod, parse_function,
                            parse_system)


def test_parse_basic_shapes():
    assert parse_function("x").arity == 1
    assert parse_function("x^3+1").arity == 1
    assert parse_function("2^(2^x)+1").arity == 1
    assert parse_function("x*y + 2").arity == 2


def test_reference_values():
    f = parse_function("x^3+1")
    assert evaluate(f, (2,)) == 9
    assert evaluate(f, (1,)) == 2
    assert evaluate(f, (6,)) == 217
    tower = parse_function("2^(2^x)+1")
    assert evaluate(tower, (5,)) == 4294967297
    assert evaluate(parse_function("2^x-1"), (11,)) == 2047


def test_negative_leading_values():
    f = parse_function("-x^2+6")
    assert evaluate(f, (1,)) == 5
    assert evaluate(f, (2,)) == 2
    assert evaluate(f, (3,)) == -3


def test_piecewise_branches():
    f = parse_function("piecewise(x <= 2: 2, x <= 39: 3, else: floor(x / 3))")
    got = [evaluate(f, (x,)) for x in (1, 2, 3, 20, 39, 40, 41, 120)]
    assert got == [2, 2, 3, 3, 3, 13, 13, 40]


def test_floor_division_semantics():
    f = parse_function("floor(x / 3)")
    assert [evaluate(f, (x,)) for x in range(1, 8)] == [0, 0, 1, 1, 1, 2, 2]


def test_parse_system_common_arity():
    fs = parse_system("x; x+2")
    assert len(fs) == 2
    assert all(f.arity == 1 for f in fs)
    fs = parse_system("x*y; x+1")
    assert all(f.arity == 2 for f in fs)


def test_syntax_errors():
    for bad in ("", "x +", "2^^x", "piecewise(x: 1)", "x & y", "((x)"):
        with pytest.raises(ExpressionSyntaxError):
            parse_function(bad)


def test_arity_mismatch():
    f = parse_function("x + y")
    with pytest.raises(DomainError):
        evaluate(f, (3,))


def test_domain_guard():
    f = parse_function("x")
    with pytest.raises(DomainError):
        evaluate(f, (0,))
    with pytest.raises(DomainError):
        evaluate_mod(f, (0,), 5)


def test_bit_budget_guard():
    f = parse_function("2^(2^x)+1")
    with pytest.raises(EvaluationBudgetExceeded):
        evaluate(f, (60,))


def test_evaluate_mod_matches_plain():
    # every place where the residue domain departs from the exact one:
    # negative floor numerators, piecewise arms, towers, undefined
    # points (both domains raise the same error) and m = 1
    rng = random.Random(5)
    cases = [("x^3+1", 40), ("x^2+x", 40), ("-x^2+6", 40), ("2^x-1", 40),
             ("x*y+7", 40), ("x^4 - 3*x + 5", 40), ("floor((x^2-50)/7)", 40),
             ("piecewise(x <= 3: x^2-20, x <= 10: 2^x+1, else: floor(x/3)-7)",
              40),
             ("2^(2^x)+1", 5), ("3*2^(x-2)+1", 40), ("(0-2)^x", 40),
             ("x^y+y^x", 40)]
    for text, top in cases:
        f = parse_function(text)
        points = [(1,) * f.arity] + [
            tuple(rng.randrange(1, top) for _ in range(f.arity))
            for _ in range(150)]
        for point in points:
            for m in (1, rng.randrange(2, 1000)):
                try:
                    want = evaluate(f, point) % m
                except EvaluationError as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        evaluate_mod(f, point, m)
                else:
                    assert evaluate_mod(f, point, m) == want, (text, point, m)


def test_pow_evaluation_order():
    # residue domain: the exponent first, so the negative exponent is
    # refused before 7^(2^24) is built
    f = parse_function("(7^(2^(4*x)))^(x-9)")
    start = time.perf_counter()
    with pytest.raises(EvaluationError, match="negative exponent"):
        evaluate_mod(f, (6,), 10)
    assert time.perf_counter() - start < 1
    # exact domain: the base first, so its 2^25 bits end the walk as a
    # cut (over budget), not as an undefined point (2^(-5))
    g = parse_function("(2^(2^x))^(2^(x-30))")
    with pytest.raises(EvaluationBudgetExceeded):
        evaluate(g, (25,))


def test_evaluate_mod_big_exponent():
    # modular path must not materialize the full power
    f = parse_function("2^x-1")
    assert evaluate_mod(f, (10**9,), 11) == (pow(2, 10**9, 11) - 1) % 11


def test_printer_roundtrip():
    rng = random.Random(9)
    for text in ("x^3+1", "-x^2+6", "2^(2^x)+1", "x*y + 2*x + 1",
                 "piecewise(x <= 2: 2, x <= 39: 3, else: floor(x / 3))"):
        f = parse_function(text)
        g = parse_function(str(f))
        for _ in range(40):
            point = tuple(rng.randrange(1, 20) for _ in range(f.arity))
            assert evaluate(f, point) == evaluate(g, point), text
