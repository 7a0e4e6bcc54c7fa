"""Expression parsing, exact and modular evaluation."""

import random

import pytest

from primework.config import DEFAULT_CONFIG
from primework.errors import (DomainError,
                              EvaluationBudgetExceeded,
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
    rng = random.Random(5)
    fns = [parse_function(s) for s in
           ("x^3+1", "x^2+x", "-x^2+6", "2^x-1", "x*y+7", "x^4 - 3*x + 5")]
    for f in fns:
        for _ in range(150):
            point = tuple(rng.randrange(1, 40) for _ in range(f.arity))
            m = rng.randrange(2, 1000)
            assert evaluate_mod(f, point, m) == evaluate(f, point) % m


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
