"""Expression model for number-theoretic functions.

Functions are expressions over integer constants and variables with
addition, subtraction, multiplication, right-associative powers, floor
division by a positive constant, and ordered piecewise definitions.
Variables map to argument slots: x, y, z, w name slots 1..4 and xN
names slot N.

One recursive walk evaluates in two domains.  evaluate() computes the
exact integer value under a bit budget.  evaluate_mod() reduces modulo
m as it goes, so exponential towers stay cheap; exponents are always
computed exactly and fed to modular exponentiation, never reduced by
order assumptions.
"""

from __future__ import annotations

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

def _eval(node: Node, point: tuple[int, ...], m: int | None,
          budget: int | None) -> int:
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
        # exact: base first, so an over-budget base is a cut before the
        # exponent is read; residue: exponent first, so a negative one
        # is refused before the base of a tower is built
        if m is None:
            base = _eval(node.base, point, None, budget)
        exp = _eval(node.exponent, point, None, budget)
        if exp < 0:
            raise EvaluationError("negative exponent")
        if m is not None:
            if not _max_var(node.exponent):
                return pow(_eval(node.base, point, m, None), exp, m)
            base = _eval(node.base, point, None, None)
        if base < 1 and _max_var(node.exponent):  # cheap test first
            raise EvaluationError("variable exponent needs base >= 1")
        if m is not None:
            return pow(base, exp, m)
        if budget is not None and abs(base) >= 2:
            # base^exp has at least exp*(bits(base)-1) bits
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


def _check_point(f: NtFunction, point: tuple[int, ...]):
    if len(point) != f.arity:
        raise DomainError(f"point has {len(point)} components, arity is {f.arity}")
    for c in point:
        if c < 1:
            raise DomainError(f"component {c} below domain minimum 1")


def evaluate(f: NtFunction, point: tuple[int, ...], *,
             config: WorkbenchConfig = DEFAULT_CONFIG) -> int:
    """Exact value of f at point.  Components must be >= 1;
    intermediate results respect config.bit_budget."""
    _check_point(f, point)
    return _eval(f.body, point, None, config.bit_budget)


def evaluate_mod(f: NtFunction, point: tuple[int, ...], m: int) -> int:
    """f(point) mod m in [0, m).  Components must be >= 1.  Exponential
    towers are reduced by modular exponentiation over the exact
    exponent."""
    if m < 1:
        raise InvalidArgument("modulus must be positive")
    _check_point(f, point)
    return _eval(f.body, point, m, None)
