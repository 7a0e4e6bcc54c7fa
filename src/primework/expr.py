"""Expression model for number-theoretic functions.

Functions are expressions over integer constants and variables with
addition, subtraction, multiplication, right-associative powers, floor
division by a positive constant, and ordered piecewise definitions.
Variables map to argument slots: x, y, z, w name slots 1..4 and xN
names slot N.

Evaluation runs compiled closures in two domains: each function's tree
is turned into nested closures once per domain, on first use, and kept
on the function.  evaluate() computes the exact integer value under a
bit budget.  evaluate_mod() reduces modulo m as it goes, so exponential
towers stay cheap; exponents are always computed exactly and fed to
modular exponentiation, never reduced by order assumptions.  These two
are the checked public entry points; the exact scans of analysis fetch
a function's closure once through _closure and call it per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, WorkbenchConfig
from .errors import (ArityError, DomainError, EvaluationBudgetExceeded,
                     EvaluationError, ExpressionSyntaxError, InvalidArgument)


# --- AST -----------------------------------------------------------------

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: int


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based argument slot


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Node


@dataclass(frozen=True)
class Floor(Node):
    numerator: Node
    divisor: int  # positive constant


@dataclass(frozen=True)
class Piecewise(Node):
    var: int  # the designated guard variable
    branches: tuple[tuple[int, Node], ...]  # ordered (bound, expr): var <= bound
    default: Node  # mandatory else arm


@dataclass(frozen=True)
class NtFunction:
    arity: int
    body: Node

    def __str__(self) -> str:
        return to_text(self)


FunctionSystem = tuple  # of NtFunction, equal arity


# --- parser --------------------------------------------------------------

_VAR_NAMES = {"x": 1, "y": 2, "z": 3, "w": 4}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ExpressionSyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.accept(lit):
            self.error(f"expected {lit!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        digits = self.text[start:self.pos]
        try:
            return int(digits)
        except ValueError:  # past the int digit limit, or a digit like '²'
            self.pos = start
            self.error(f"cannot read the {len(digits)}-digit integer literal")

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()):
            self.pos += 1
        return self.text[start:self.pos]

    def try_var(self) -> Var | None:
        self.skip_ws()
        save = self.pos
        word = self.name()
        if not word:
            return None
        if word in _VAR_NAMES:
            idx = _VAR_NAMES[word]
        elif word[0] == "x" and word[1:].isdigit():
            idx = int(word[1:])
            if idx < 1:
                self.error("variable index must be at least 1")
        else:
            self.pos = save
            return None
        return Var(idx)

    def expr(self) -> Node:
        if self.accept("-"):
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.peek() == "-":
                self.accept("-")
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while self.accept("*"):
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.accept("^"):
            return Pow(node, self.factor())  # right associative
        return node

    def atom(self) -> Node:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.accept("(")
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit():
            return Const(self.integer())
        save = self.pos
        word = self.name()
        if word == "floor":
            self.expect("(")
            num = self.expr()
            self.expect("/")
            div = self.integer()
            if div < 1:
                self.error("floor divisor must be a positive constant")
            self.expect(")")
            return Floor(num, div)
        if word == "piecewise":
            self.pos = save
            return self.piecewise()
        self.pos = save
        var = self.try_var()
        if var is not None:
            return var
        self.error("expected an integer, variable, or parenthesized expression")

    def piecewise(self) -> Node:
        self.expect("piecewise")
        self.expect("(")
        branches = []
        guard_var = None
        while True:
            self.skip_ws()
            save = self.pos
            word = self.name()
            if word == "else":
                self.expect(":")
                default = self.expr()
                break
            self.pos = save
            var = self.try_var()
            if var is None:
                self.error("expected a guard variable or 'else'")
            if guard_var is None:
                guard_var = var.index
            elif var.index != guard_var:
                self.error("piecewise guards must use a single variable")
            self.expect("<=")
            bound = self.integer()
            self.expect(":")
            body = self.expr()
            if branches and bound <= branches[-1][0]:
                self.error("piecewise bounds must increase")
            branches.append((bound, body))
            self.expect(",")
        if not branches:
            self.error("piecewise needs at least one guarded branch")
        self.expect(")")
        return Piecewise(guard_var, tuple(branches), default)


def _max_var(node: Node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, (Add, Sub, Mul)):
        return max(_max_var(node.left), _max_var(node.right))
    if isinstance(node, Neg):
        return _max_var(node.operand)
    if isinstance(node, Pow):
        return max(_max_var(node.base), _max_var(node.exponent))
    if isinstance(node, Floor):
        return _max_var(node.numerator)
    if isinstance(node, Piecewise):
        out = node.var
        for _, b in node.branches:
            out = max(out, _max_var(b))
        return max(out, _max_var(node.default))
    return 0


def parse_function(text: str, arity: int | None = None) -> NtFunction:
    """Parse one function.  Arity defaults to the largest variable slot
    used (at least 1); an explicit arity below that raises ArityError.
    """
    p = _Parser(text)
    body = p.expr()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("unexpected trailing input")
    used = max(_max_var(body), 1)
    if arity is None:
        arity = used
    elif used > arity:
        raise ArityError(f"variable slot {used} exceeds declared arity {arity}")
    return NtFunction(arity, body)


def parse_system(text: str, arity: int | None = None) -> tuple[NtFunction, ...]:
    """Parse a semicolon-separated list of functions sharing one arity."""
    parts = [s for s in text.split(";") if s.strip()]
    if not parts:
        raise ExpressionSyntaxError("empty system", 0)
    fns = [parse_function(s, arity) for s in parts]
    common = max(f.arity for f in fns)
    return tuple(NtFunction(common, f.body) for f in fns)


# --- printer -------------------------------------------------------------

_CANON = {1: "x", 2: "y", 3: "z", 4: "w"}


def _var_name(idx: int) -> str:
    return _CANON.get(idx, f"x{idx}")


def _fmt(node: Node) -> str:
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Var):
        return _var_name(node.index)
    if isinstance(node, Add):
        return f"{_fmt(node.left)} + {_fmt_operand(node.right)}"
    if isinstance(node, Sub):
        return f"{_fmt(node.left)} - {_fmt_operand(node.right)}"
    if isinstance(node, Neg):
        return f"-{_fmt_operand(node.operand)}"
    if isinstance(node, Mul):
        return f"{_fmt_operand(node.left)} * {_fmt_operand(node.right)}"
    if isinstance(node, Pow):
        return f"{_fmt_powbase(node.base)}^{_fmt_powexp(node.exponent)}"
    if isinstance(node, Floor):
        return f"floor({_fmt(node.numerator)} / {node.divisor})"
    if isinstance(node, Piecewise):
        parts = [f"{_var_name(node.var)} <= {b}: {_fmt(e)}" for b, e in node.branches]
        parts.append(f"else: {_fmt(node.default)}")
        return "piecewise(" + ", ".join(parts) + ")"
    raise TypeError(f"not a node: {node!r}")


def _fmt_operand(node: Node) -> str:
    # operand of *, of unary - and right operand of +/-: wrap anything
    # that would re-associate
    if isinstance(node, (Add, Sub, Neg)):
        return f"({_fmt(node)})"
    return _fmt(node)


def _fmt_powbase(node: Node) -> str:
    if isinstance(node, (Const, Var)) and not (isinstance(node, Const) and node.value < 0):
        return _fmt(node)
    return f"({_fmt(node)})"


def _fmt_powexp(node: Node) -> str:
    if isinstance(node, (Const, Var, Pow)):
        return _fmt(node)
    return f"({_fmt(node)})"


def to_text(f: NtFunction) -> str:
    """Render back to parseable text; parse(to_text(f)) evaluates like f."""
    return _fmt(f.body)


# --- evaluation ----------------------------------------------------------
#
# _compile turns a tree into nested closures, once per function and
# domain.  An exact closure runs as run(point, budget) and checks every
# intermediate value against budget; a residue closure runs as
# run(point, m) and reduces mod m as it goes.  What does not commute with
# reduction stays exact and unbudgeted in the residue domain: exponents,
# floor numerators and the base of a variable exponent are exact
# closures run at _UNBUDGETED.  A constant operand of +, -, * and a
# constant exponent sit in closure cells, not behind a call.  Each
# closure makes its checks in one fixed order, pinned by tests: the
# exact Pow reads its base first, so an over-budget base is a cut before
# the exponent is read; the residue Pow reads its exponent first, so a
# negative one is refused before the base of a tower is built.
#
# The compilers recurse once per tree level and build each closure
# after its children, so compiling a tree nests no deeper than
# evaluating it.

_UNBUDGETED = math.inf  # no bit length exceeds it


def _over_budget(v: int, budget: int) -> EvaluationBudgetExceeded:
    return EvaluationBudgetExceeded(
        f"intermediate value of {v.bit_length()} bits exceeds budget {budget}")


def _compile(node: Node, domain: str):
    """The closure that evaluates node in domain: "exact" gives
    run(point, budget), "residue" gives run(point, m)."""
    return _compile_exact(node) if domain == "exact" else _compile_residue(node)


def _operands(node: Node) -> tuple[type, Node | int, Node | int]:
    """(kind, left, right) of a binary node, a constant side as its int:
    f + c, f * c or c - f, as c + f, c * f and f - c are rewritten to
    these (the values are the same)."""
    kind, left, right = type(node), node.left, node.right
    if type(left) is Const and kind is not Sub:
        left, right = right, left
    if type(right) is Const:
        if kind is Sub:
            return Add, left, -right.value
        return kind, left, right.value
    if type(left) is Const:
        return kind, left.value, right
    return kind, left, right


def _compile_exact(node: Node):
    kind = type(node)
    if kind is Const:
        c = node.value
        return lambda point, budget: c
    if kind is Var:
        i = node.index - 1
        return lambda point, budget: point[i]
    if kind is Add or kind is Sub or kind is Mul:
        # the sides compile in this frame, one frame per tree level
        kind, left, right = _operands(node)
        if not isinstance(left, int):
            left = _compile_exact(left)
        if not isinstance(right, int):
            right = _compile_exact(right)
        return _exact_binary(kind, left, right)
    if kind is Neg:
        operand = _compile_exact(node.operand)

        def run(point, budget):
            v = -operand(point, budget)
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
        return run
    if kind is Pow:
        exponent = node.exponent
        if type(exponent) is Const and exponent.value >= 0:
            return _exact_const_pow(_compile_exact(node.base), exponent.value)
        return _exact_pow(_compile_exact(node.base), _compile_exact(exponent),
                          _max_var(exponent) > 0)
    if kind is Floor:
        numerator, d = _compile_exact(node.numerator), node.divisor

        def run(point, budget):
            v = numerator(point, budget) // d
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
        return run
    if kind is Piecewise:
        return _piecewise(node.var, [(bound, _compile_exact(body))
                                     for bound, body in node.branches],
                          _compile_exact(node.default))
    raise TypeError(f"not a node: {node!r}")


def _exact_binary(kind: type, left, right):
    if isinstance(right, int):
        if kind is Add:
            def run(point, budget):
                v = left(point, budget) + right
                if v.bit_length() > budget:
                    raise _over_budget(v, budget)
                return v
        else:
            def run(point, budget):
                v = left(point, budget) * right
                if v.bit_length() > budget:
                    raise _over_budget(v, budget)
                return v
    elif isinstance(left, int):
        def run(point, budget):
            v = left - right(point, budget)
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
    elif kind is Add:
        def run(point, budget):
            v = left(point, budget) + right(point, budget)
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
    elif kind is Sub:
        def run(point, budget):
            v = left(point, budget) - right(point, budget)
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
    else:
        def run(point, budget):
            v = left(point, budget) * right(point, budget)
            if v.bit_length() > budget:
                raise _over_budget(v, budget)
            return v
    return run


def _power_refused(base: int, exp: int, budget: int) -> EvaluationBudgetExceeded:
    return EvaluationBudgetExceeded(
        f"power of a {abs(base).bit_length()}-bit base to a "
        f"{exp.bit_length()}-bit exponent exceeds budget {budget}")


def _exact_pow(base_fn, exp_fn, variable: bool):
    # base^exp has at least exp*(bits(base)-1) bits, so an over-budget
    # power is refused before it is built
    def run(point, budget):
        base = base_fn(point, budget)
        exp = exp_fn(point, budget)
        if exp < 0:
            raise EvaluationError("negative exponent")
        if base < 1 and variable:
            raise EvaluationError("variable exponent needs base >= 1")
        if abs(base) >= 2 and exp * (abs(base).bit_length() - 1) > budget:
            raise _power_refused(base, exp, budget)
        v = base**exp
        if v.bit_length() > budget:
            raise _over_budget(v, budget)
        return v
    return run


def _exact_const_pow(base_fn, exp: int):
    # a constant exponent >= 0: no exponent to read, nothing to refuse
    def run(point, budget):
        base = base_fn(point, budget)
        if abs(base) >= 2 and exp * (abs(base).bit_length() - 1) > budget:
            raise _power_refused(base, exp, budget)
        v = base**exp
        if v.bit_length() > budget:
            raise _over_budget(v, budget)
        return v
    return run


def _compile_residue(node: Node):
    kind = type(node)
    if kind is Const:
        c = node.value
        return lambda point, m: c % m
    if kind is Var:
        i = node.index - 1
        return lambda point, m: point[i] % m
    if kind is Add or kind is Sub or kind is Mul:
        # the sides compile in this frame, one frame per tree level
        kind, left, right = _operands(node)
        if not isinstance(left, int):
            left = _compile_residue(left)
        if not isinstance(right, int):
            right = _compile_residue(right)
        return _residue_binary(kind, left, right)
    if kind is Neg:
        operand = _compile_residue(node.operand)
        return lambda point, m: -operand(point, m) % m
    if kind is Pow:
        exponent = node.exponent
        if type(exponent) is Const and exponent.value >= 0:
            base_fn, exp = _compile_residue(node.base), exponent.value
            return lambda point, m: pow(base_fn(point, m), exp, m)
        if _max_var(exponent):
            return _residue_var_pow(_compile_exact(node.base),
                                    _compile_exact(exponent))
        return _residue_pow(_compile_residue(node.base),
                            _compile_exact(exponent))
    if kind is Floor:
        numerator, d = _compile_exact(node.numerator), node.divisor
        return lambda point, m: numerator(point, _UNBUDGETED) // d % m
    if kind is Piecewise:
        return _piecewise(node.var, [(bound, _compile_residue(body))
                                     for bound, body in node.branches],
                          _compile_residue(node.default))
    raise TypeError(f"not a node: {node!r}")


def _residue_binary(kind: type, left, right):
    if isinstance(right, int):
        if kind is Add:
            return lambda point, m: (left(point, m) + right) % m
        return lambda point, m: left(point, m) * right % m
    if isinstance(left, int):
        return lambda point, m: (left - right(point, m)) % m
    if kind is Add:
        return lambda point, m: (left(point, m) + right(point, m)) % m
    if kind is Sub:
        return lambda point, m: (left(point, m) - right(point, m)) % m
    return lambda point, m: left(point, m) * right(point, m) % m


def _residue_pow(base_fn, exp_fn):
    # a constant exponent, read first: the base is reduced mod m
    def run(point, m):
        exp = exp_fn(point, _UNBUDGETED)
        if exp < 0:
            raise EvaluationError("negative exponent")
        return pow(base_fn(point, m), exp, m)
    return run


def _residue_var_pow(base_fn, exp_fn):
    # a variable exponent, read first: the base stays exact
    def run(point, m):
        exp = exp_fn(point, _UNBUDGETED)
        if exp < 0:
            raise EvaluationError("negative exponent")
        base = base_fn(point, _UNBUDGETED)
        if base < 1:
            raise EvaluationError("variable exponent needs base >= 1")
        return pow(base, exp, m)
    return run


def _piecewise(var: int, arms: list, default):
    # the closure of either domain: arg is the budget or m
    g = var - 1
    arms = tuple(arms)

    def run(point, arg):
        guard = point[g]
        for bound, arm in arms:
            if guard <= bound:
                return arm(point, arg)
        return default(point, arg)
    return run


def _closure(f: NtFunction, domain: str):
    """f's closure in domain ("exact" or "residue"), compiled on first
    use and kept as f._exact or f._residue.  NtFunction is frozen, so
    the closure is attached past its __setattr__, as analysis._analysis
    attaches its cache; it is not a dataclass field and takes no part in
    equality, hashing or output.  The closure checks nothing about its
    point: a caller hands it f.arity components, each >= 1, as evaluate
    and evaluate_mod check and as every scan point is built."""
    name = "_exact" if domain == "exact" else "_residue"
    run = f.__dict__.get(name)
    if run is None:
        run = _compile(f.body, domain)
        object.__setattr__(f, name, run)
    return run


def _check_point(f: NtFunction, point: tuple[int, ...]):
    if len(point) != f.arity:
        raise DomainError(f"point has {len(point)} components, arity is {f.arity}")
    for c in point:
        if c < 1:
            raise DomainError(f"component {c} below domain minimum 1")


def evaluate(f: NtFunction, point: tuple[int, ...], *,
             config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Exact value of f at point: the checked public entry point of the
    exact domain.  The point must have f.arity components, each >= 1
    (DomainError otherwise); intermediate results respect
    config.bit_budget."""
    _check_point(f, point)
    return _closure(f, "exact")(point, config.bit_budget)


def evaluate_mod(f: NtFunction, point: tuple[int, ...], m: int) -> int:
    """f(point) mod m in [0, m): the checked public entry point of the
    residue domain.  m must be positive and the point must have f.arity
    components, each >= 1.  Exponential towers are reduced by modular
    exponentiation over the exact exponent."""
    if m < 1:
        raise InvalidArgument("modulus must be positive")
    _check_point(f, point)
    return _closure(f, "residue")(point, m)
