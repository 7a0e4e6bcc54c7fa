"""Expression parsing, exact and modular evaluation."""

import random
import re
import time

import pytest

from primework import expr
from primework.config import DEFAULT_CONFIG
from primework.errors import (DomainError,
                              EvaluationBudgetExceeded, EvaluationError,
                              ExpressionSyntaxError, WorkbenchError)
from primework.expr import (Add, Const, Floor, Mul, Neg, NtFunction,
                            Piecewise, Pow, Sub, Var, _max_var, evaluate,
                            evaluate_mod, parse_function, parse_system)


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


# The tree walk that the compiled closures replaced, kept here as the
# reference they are compared with.

def _eval(node, point, m, budget):
    """The one walk: the exact value when m is None, with every
    intermediate value checked against budget; else the residue mod m
    (budget None).  What does not commute with reduction stays exact
    and unbudgeted in the residue domain: exponents, floor numerators
    and the base of a variable exponent."""
    if isinstance(node, Const):
        return node.value if m is None else node.value % m
    if isinstance(node, Var):
        v = point[node.index - 1]
        return v if m is None else v % m
    if isinstance(node, Add):
        v = _eval(node.left, point, m, budget) + _eval(node.right, point, m, budget)
    elif isinstance(node, Sub):
        v = _eval(node.left, point, m, budget) - _eval(node.right, point, m, budget)
    elif isinstance(node, Neg):
        v = -_eval(node.operand, point, m, budget)
    elif isinstance(node, Mul):
        v = _eval(node.left, point, m, budget) * _eval(node.right, point, m, budget)
    elif isinstance(node, Pow):
        if m is None:
            base = _eval(node.base, point, None, budget)
        exp = _eval(node.exponent, point, None, budget)
        if exp < 0:
            raise EvaluationError("negative exponent")
        if m is not None:
            if not _max_var(node.exponent):
                return pow(_eval(node.base, point, m, None), exp, m)
            base = _eval(node.base, point, None, None)
        if base < 1 and _max_var(node.exponent):
            raise EvaluationError("variable exponent needs base >= 1")
        if m is not None:
            return pow(base, exp, m)
        if budget is not None and abs(base) >= 2:
            if exp * (abs(base).bit_length() - 1) > budget:
                raise EvaluationBudgetExceeded(
                    f"power of a {abs(base).bit_length()}-bit base to a "
                    f"{exp.bit_length()}-bit exponent exceeds budget {budget}")
        v = base**exp
    elif isinstance(node, Floor):
        v = _eval(node.numerator, point, None, budget) // node.divisor
    elif isinstance(node, Piecewise):
        guard = point[node.var - 1]
        for bound, body in node.branches:
            if guard <= bound:
                return _eval(body, point, m, budget)
        return _eval(node.default, point, m, budget)
    else:
        raise TypeError(f"not a node: {node!r}")
    if m is not None:
        return v % m
    if budget is not None and v.bit_length() > budget:
        raise EvaluationBudgetExceeded(
            f"intermediate value of {v.bit_length()} bits exceeds budget {budget}")
    return v


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def _random_tree(rng, depth, arity):
    """A tree over every node kind: constant and variable exponents
    (which go negative, and meet bases below 1), floors and piecewise
    definitions with one to three guarded arms."""
    def var():
        return Var(rng.randint(1, arity))

    def sub():
        return _random_tree(rng, depth - 1, arity)

    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return var()
        if rng.random() < 0.7:
            return Const(rng.randint(-3, 9))
        # up to 72 bits, so values straddle the tight budgets
        return Const(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 72)))
    kind = rng.choice(("add", "sub", "neg", "mul", "pow", "varpow", "floor",
                       "piecewise"))
    if kind == "add":
        return Add(sub(), sub())
    if kind == "sub":
        return Sub(sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "mul":
        return Mul(sub(), sub())
    if kind == "pow":
        return Pow(sub(), Const(rng.randint(-1, 4)))
    if kind == "varpow":
        exponent = rng.choice((var(), Sub(var(), Const(rng.randint(1, 4))),
                               Pow(var(), Const(2))))
        base = Const(rng.randint(-2, 5)) if rng.random() < 0.5 else sub()
        return Pow(base, exponent)
    if kind == "floor":
        return Floor(sub(), rng.randint(1, 7))
    bounds = sorted(rng.sample(range(1, 13), rng.randint(1, 3)))
    return Piecewise(rng.randint(1, arity),
                     tuple((b, sub()) for b in bounds), sub())


def test_closures_match_the_tree_walk():
    rng = random.Random(22)
    kinds = set()
    raised = {"exact": 0, "residue": 0}
    for _ in range(400):
        arity = rng.randint(1, 2)
        f = NtFunction(arity, _random_tree(rng, 4, arity))
        stack = [f.body]
        while stack:
            node = stack.pop()
            kinds.add(type(node).__name__)
            stack += [v for v in vars(node).values() if isinstance(v, expr.Node)]
            if isinstance(node, Piecewise):
                stack += [body for _, body in node.branches]
        for _ in range(6):
            point = tuple(rng.randint(1, 12) for _ in range(arity))
            for budget in (DEFAULT_CONFIG.bit_budget, 64, 8):
                config = DEFAULT_CONFIG.with_overrides(bit_budget=budget)
                want = _outcome(_eval, f.body, point, None, budget)
                assert _outcome(evaluate, f, point, config=config) == want, (
                    str(f), point, budget)
                raised["exact"] += isinstance(want, tuple)
            for m in (1, 2, 12, 97, 10**9 + 7):
                want = _outcome(_eval, f.body, point, m, None)
                assert _outcome(evaluate_mod, f, point, m) == want, (
                    str(f), point, m)
                raised["residue"] += isinstance(want, tuple)
    assert kinds == {"Const", "Var", "Add", "Sub", "Neg", "Mul", "Pow",
                     "Floor", "Piecewise"}
    assert raised["exact"] > 0 and raised["residue"] > 0


@pytest.mark.parametrize("text, point, message", [
    ("x^(x-3)", (2,), "negative exponent"),
    ("(x-3)^x", (2,), "variable exponent needs base >= 1"),
    ("0^x", (4,), "variable exponent needs base >= 1"),
    ("(2^x)^(0-1)", (30,), "negative exponent"),
])
def test_undefined_points_raise_alike_in_both_domains(text, point, message):
    f = parse_function(text)
    for run in (lambda: evaluate(f, point),
                lambda: _eval(f.body, point, None, DEFAULT_CONFIG.bit_budget),
                lambda: evaluate_mod(f, point, 7),
                lambda: _eval(f.body, point, 7, None)):
        with pytest.raises(EvaluationError, match=re.escape(message)):
            run()


def test_each_function_compiles_once_per_domain(monkeypatch):
    calls = []
    compile_ = expr._compile

    def counted(node, domain):
        calls.append(domain)
        return compile_(node, domain)

    monkeypatch.setattr(expr, "_compile", counted)
    f = parse_function("3*x^3 - 2*x^2 + 5*x + 7")
    for x in range(1, 1001):
        evaluate(f, (x,))
        evaluate_mod(f, (x,), 1009)
    assert sorted(calls) == ["exact", "residue"]
    # the closures take no part in equality, hashing or output
    g = parse_function("3*x^3 - 2*x^2 + 5*x + 7")
    assert (f == g, hash(f) == hash(g), repr(f), str(f)) == (
        True, True, repr(g), str(g))


def test_a_long_sum_and_deep_parentheses_evaluate_in_both_domains():
    # the nesting the parser and the analysis reach at the default
    # recursion limit; compiling must not lower it
    total = parse_function("+".join(["x"] * 900))
    nested = parse_function("(" * 200 + "x*x+1" + ")" * 200)
    assert (evaluate(total, (5,)), evaluate_mod(total, (5,), 7)) == (4500, 6)
    assert (evaluate(nested, (5,)), evaluate_mod(nested, (5,), 7)) == (26, 5)
