"""Structural analysis of parsed functions.

Classification into polynomial normal form (its arithmetic is in
poly), monotonicity traits, and the envelope bounds that let bounded
scans close conclusively: once every later value provably falls
outside [1, m-1], an empty scan is a proof rather than a shrug.

Each function is analysed once.  The normal form, the dense
coefficients and the classify profile (one per function, whatever the
config) are built lazily and cached on the NtFunction instance itself,
so a cache lives exactly as long as its function.  The public readers
hand out fresh dicts and lists, never the cached objects.

The workbench scan order (iter_points) lives here too, with the one
exact search over it (_Scan) that every least-witness, count and probe
loop runs through.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, SCAN_HORIZON, WorkbenchConfig
from .errors import (DomainError, EvaluationBudgetExceeded, EvaluationError,
                     InvalidArgument, NotPolynomial, NotUnivariatePolynomial)
from .expr import (Add, Const, Floor, Mul, Neg, NtFunction, Node, Piecewise,
                   Pow, Sub, Var, _max_var, evaluate)
from .poly import (_cauchy_outside, _dense, _fixed_divisor, _nf_add, _nf_mul,
                   _nf_scale)

# --- polynomial normal form ---------------------------------------------

def _normal_form(node: Node, arity: int) -> dict | None:
    """Monomial dict {exponent tuple: coefficient} or None if the node
    is not polynomial (variable exponents, floors, piecewise)."""
    zero = (0,) * arity
    if isinstance(node, Const):
        return {zero: node.value} if node.value else {}
    if isinstance(node, Var):
        key = tuple(1 if i == node.index - 1 else 0 for i in range(arity))
        return {key: 1}
    if isinstance(node, (Add, Sub)):
        left = _normal_form(node.left, arity)
        right = _normal_form(node.right, arity)
        if left is None or right is None:
            return None
        return _nf_add(left, right if isinstance(node, Add) else _nf_scale(right, -1))
    if isinstance(node, Neg):
        inner = _normal_form(node.operand, arity)
        return None if inner is None else _nf_scale(inner, -1)
    if isinstance(node, Mul):
        left = _normal_form(node.left, arity)
        right = _normal_form(node.right, arity)
        if left is None or right is None:
            return None
        return _nf_mul(left, right)
    if isinstance(node, Pow):
        if not isinstance(node.exponent, Const) or node.exponent.value < 0:
            return None
        base = _normal_form(node.base, arity)
        if base is None:
            return None
        out = {zero: 1}
        for _ in range(node.exponent.value):
            out = _nf_mul(out, base)
        return out
    return None  # Floor, Piecewise


def _magnitude(node: Node) -> Node:
    """A tree whose value at x bounds |v| for every intermediate v of
    exact evaluation at every point up to x: each constant c becomes
    max(|c|, 1), Sub becomes Add, Neg its operand, Floor its numerator
    and Piecewise the sum of its arms.  Every node of it is >= 1 and
    nondecreasing, so the exact budget checks, the power pre-check
    included, never fire where this tree's evaluation passes."""
    if isinstance(node, Const):
        return Const(max(abs(node.value), 1))
    if isinstance(node, Var):
        return node
    if isinstance(node, (Add, Sub)):
        return Add(_magnitude(node.left), _magnitude(node.right))
    if isinstance(node, Neg):
        return _magnitude(node.operand)
    if isinstance(node, Mul):
        return Mul(_magnitude(node.left), _magnitude(node.right))
    if isinstance(node, Pow):
        return Pow(_magnitude(node.base), _magnitude(node.exponent))
    if isinstance(node, Floor):
        return _magnitude(node.numerator)
    if isinstance(node, Piecewise):
        arms = [_magnitude(body) for _, body in node.branches]
        return functools.reduce(Add, arms, _magnitude(node.default))
    raise TypeError(f"not a node: {node!r}")


class _Analysis:
    """What is known about one function, filled in on first use."""

    __slots__ = ("nf", "coeffs", "profile", "exceeds", "magnitude")

    def __init__(self, f: NtFunction):
        self.nf = _normal_form(f.body, f.arity)
        # dense coefficients (constant first); None when f is not a
        # univariate polynomial
        self.coeffs = (_dense(self.nf) if self.nf is not None and f.arity == 1
                       else None)
        self.profile: FunctionProfile | None = None
        # exceeds_one_from per config; per-m envelopes are not kept
        self.exceeds: dict[WorkbenchConfig, tuple[int, bool] | None] = {}
        self.magnitude: NtFunction | None = None  # see _within_budget


def _analysis(f: NtFunction) -> _Analysis:
    """The analysis cached on f, built on first use.  NtFunction is
    frozen, so the cache is attached past its __setattr__; it is not a
    dataclass field and takes no part in equality, hashing or output."""
    a = f.__dict__.get("_analysis")
    if a is None:
        a = _Analysis(f)
        object.__setattr__(f, "_analysis", a)
    return a


def poly_normal_form(f: NtFunction) -> dict | None:
    nf = _analysis(f).nf
    return None if nf is None else dict(nf)


@dataclass(frozen=True)
class FunctionProfile:
    arity: int
    is_polynomial: bool
    total_degree: int | None = None
    var_degrees: tuple[int, ...] | None = None
    # univariate nonzero polynomials only
    leading_coefficient: int | None = None
    fixed_divisor: int | None = None
    monomials: tuple[tuple[tuple[int, ...], int], ...] | None = None


def classify(f: NtFunction) -> FunctionProfile:
    """Shape report; fixed_divisor is filled exactly when polynomial."""
    a = _analysis(f)
    if a.profile is None:
        a.profile = _profile(f, a.nf)
    return a.profile


def _profile(f: NtFunction, nf: dict | None) -> FunctionProfile:
    if nf is None:
        return FunctionProfile(arity=f.arity, is_polynomial=False)
    total = max((sum(k) for k in nf), default=0)
    var_deg = tuple(max((k[i] for k in nf), default=0) for i in range(f.arity))
    leading = nf[max(nf)] if f.arity == 1 and nf else None
    return FunctionProfile(arity=f.arity, is_polynomial=True, total_degree=total,
                           var_degrees=var_deg, leading_coefficient=leading,
                           fixed_divisor=_fixed_divisor(nf),
                           monomials=tuple(sorted(nf.items())))


def fixed_divisor(f: NtFunction) -> int:
    """gcd of all values of a polynomial over integer points."""
    profile = classify(f)
    if not profile.is_polynomial:
        raise NotPolynomial("fixed divisor is defined for polynomials only")
    return profile.fixed_divisor


def univariate_coeffs(f: NtFunction) -> list[int]:
    """Dense coefficient list (constant first) of a univariate polynomial;
    NotUnivariatePolynomial, naming f, for any other function."""
    coeffs = _analysis(f).coeffs
    if coeffs is None:
        raise NotUnivariatePolynomial(str(f))
    return coeffs[:]


# --- monotonicity traits -------------------------------------------------

@dataclass(frozen=True)
class Traits:
    nonneg: bool          # value >= 0 on the whole domain (components >= 1)
    ge1: bool             # value >= 1 on the whole domain
    nondec: bool          # nondecreasing in every variable
    unbounded: frozenset  # variables that individually drive the value to infinity


_NO_VARS = frozenset()
_BOTTOM = Traits(False, False, False, _NO_VARS)


def _is_const_subtree(node: Node) -> bool:
    return _max_var(node) == 0


def traits(node: Node) -> Traits:
    """Conservative structural traits; any False just means unproven."""
    if isinstance(node, Const):
        return Traits(node.value >= 0, node.value >= 1, True, _NO_VARS)
    if isinstance(node, Var):
        return Traits(True, True, True, frozenset({node.index}))
    if isinstance(node, Add):
        a, b = traits(node.left), traits(node.right)
        nondec = a.nondec and b.nondec
        return Traits(a.nonneg and b.nonneg,
                      (a.ge1 and b.nonneg) or (a.nonneg and b.ge1),
                      nondec,
                      (a.unbounded | b.unbounded) if nondec else _NO_VARS)
    if isinstance(node, Sub):
        if _is_const_subtree(node.right):
            a = traits(node.left)
            return Traits(False, False, a.nondec, a.unbounded if a.nondec else _NO_VARS)
        return _BOTTOM
    if isinstance(node, Mul):
        a, b = traits(node.left), traits(node.right)
        nondec = a.nondec and b.nondec and a.nonneg and b.nonneg
        unb = _NO_VARS
        if nondec:
            unb = frozenset(v for v in a.unbounded | b.unbounded
                            if (v in a.unbounded and b.ge1) or (v in b.unbounded and a.ge1))
        return Traits(a.nonneg and b.nonneg, a.ge1 and b.ge1, nondec, unb)
    if isinstance(node, Pow):
        b = traits(node.base)
        if isinstance(node.exponent, Const):
            c = node.exponent.value
            if c == 0:
                return Traits(True, True, True, _NO_VARS)
            if c < 0:
                return _BOTTOM
            nondec = b.nondec and b.nonneg
            return Traits(b.nonneg, b.ge1, nondec,
                          b.unbounded if (nondec and b.nonneg) else _NO_VARS)
        e = traits(node.exponent)
        if isinstance(node.base, Const):
            base = node.base.value
            if base >= 2:
                return Traits(True, True, e.nondec, e.unbounded if e.nondec else _NO_VARS)
            if base == 1:
                return Traits(True, True, True, _NO_VARS)
            return _BOTTOM
        # variable base with variable exponent: only mild guarantees
        nondec = b.nondec and e.nondec and b.ge1
        return Traits(b.ge1, b.ge1, nondec,
                      b.unbounded if (nondec and e.ge1) else _NO_VARS)
    if isinstance(node, Floor):
        a = traits(node.numerator)
        return Traits(a.nonneg, False, a.nondec, a.unbounded if a.nondec else _NO_VARS)
    if isinstance(node, Neg):
        if _is_const_subtree(node.operand):
            return Traits(False, False, True, _NO_VARS)  # a constant
        return _BOTTOM
    if isinstance(node, Piecewise):
        return _BOTTOM
    raise TypeError(f"not a node: {node!r}")


# --- envelope bounds -----------------------------------------------------

def _ge_probe(f: NtFunction, point: tuple[int, ...], m: int,
              config: WorkbenchConfig) -> bool | None:
    """Is f(point) >= m?  One evaluation at the config's bit budget (at
    least m's bits plus 16).  False where f has no value: f is
    nondecreasing where defined, so an undefined point can only move a
    threshold later or leave none.  None when the value is past the
    budget: a huge intermediate may still be multiplied by 0, so its
    size proves nothing about the value."""
    probe = config.with_overrides(
        bit_budget=max(config.bit_budget, m.bit_length() + 16))
    try:
        return evaluate(f, point, config=probe) >= m
    except (DomainError, EvaluationError):
        return False
    except EvaluationBudgetExceeded:
        return None


def _axis_threshold(f: NtFunction, axis: int, m: int,
                    config: WorkbenchConfig) -> int | None:
    """Least t with f(1,..,t,..,1) >= m along one axis, by doubling then
    bisection.  None if not reached by 2**62 or if a probe on the way
    cannot decide."""
    def at(t: int) -> bool | None:
        return _ge_probe(f, tuple(t if i == axis else 1
                                  for i in range(f.arity)), m, config)
    hi = 1
    while not (reached := at(hi)):
        hi *= 2
        if reached is None or hi >= 2**62:
            return None
    lo = hi // 2  # f(lo) < m <= f(hi)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        reached = at(mid)
        if reached is None:
            return None
        if reached:
            hi = mid
        else:
            lo = mid
    return hi


def envelope_outside_bound(f: NtFunction, m: int,
                           config: WorkbenchConfig = DEFAULT_CONFIG,
                           ) -> tuple[int, bool] | None:
    """The one tail certificate: (X, above) such that f(point) lies
    outside [1, m-1] at every defined point with some coordinate >= X,
    on one side: f(point) >= m when above, else f(point) < 1.  None when
    no certificate applies.  For m < 2 the range is empty: X is 1 and
    the side claims nothing.

    The routes, in order: a nondecreasing f unbounded in every variable
    (bisection along each axis: above); c*b^x + d with c < 0, which
    strictly decreases (below); a univariate piecewise f (its tail's
    side, from past the last branch); a constant (its own side); a
    univariate polynomial (the Cauchy bound, on the side of the lead).

    With such an X, exhausting the box [1, X)^k turns an empty scan
    into a proof that no value of f lies in Z_m^*.
    """
    if m < 2:
        return 1, True
    body = f.body
    t = traits(body)
    if t.nondec and t.unbounded == frozenset(range(1, f.arity + 1)):
        worst = 1
        for axis in range(f.arity):
            th = _axis_threshold(f, axis, m, config)
            if th is None:
                break
            worst = max(worst, th)
        else:
            return worst, True
    shape = exp_linear_shape(f)
    if shape is not None and shape[0] < 0:
        c, b, d = shape  # strictly decreasing: once below 1, it stays
        x = 1
        while c * b**x + d >= 1:
            x += 1
        return x, False
    if isinstance(body, Piecewise) and f.arity == 1:
        tail = envelope_outside_bound(NtFunction(1, body.default), m, config)
        if tail is None:
            return None
        return max(body.branches[-1][0] + 1, tail[0]), tail[1]
    a = _analysis(f)
    nf = a.nf
    if nf is not None:
        if not nf or max(sum(k) for k in nf) == 0:
            v = nf.get((0,) * f.arity, 0)
            return None if 1 <= v <= m - 1 else (1, v >= m)
        if f.arity == 1:
            return _cauchy_outside(a.coeffs, m), a.coeffs[-1] > 0
    return None


def _box(fs, bound: int, box: int | None,
         config: WorkbenchConfig) -> tuple[int, int, bool]:
    """The one box rule of the Phi, Pi and Z_bound^* scans: (side,
    scanned, covered).  Past the required side some member provably
    leaves [1, bound-1], killing every tuple.  The side is `box`, else
    the required side, else about min(config.horizon, SCAN_HORIZON)
    points in all; covered says it reaches the required side, and then
    only that is scanned.  A negative box is refused."""
    if box is not None and box < 0:
        raise InvalidArgument("box must be nonnegative")
    required = None
    for f in fs:
        env = envelope_outside_bound(f, bound, config)
        if env is not None and (required is None or env[0] - 1 < required):
            required = env[0] - 1
    if box is not None:
        side = box
    elif required is not None:
        side = required
    else:
        points = min(config.horizon, SCAN_HORIZON)
        side = max(1, int(round(points ** (1.0 / fs[0].arity))))
    covered = required is not None and side >= required
    return side, required if covered else side, covered


def exceeds_one_from(f: NtFunction,
                     config: WorkbenchConfig = DEFAULT_CONFIG) -> tuple[int, bool] | None:
    """For univariate f: (X, True) when f(x) > 1 for all x >= X, or
    (X, False) when f(x) <= 1 for all x >= X.  None if undetermined.
    This is envelope_outside_bound(f, 2), plus a tail that is the
    constant 1: it lies inside [1, 1] but never exceeds 1.  Cached per
    config, since it does not depend on a modulus."""
    if f.arity != 1:
        return None
    a = _analysis(f)
    if config not in a.exceeds:
        cert = envelope_outside_bound(f, 2, config)
        tail, start = f.body, 1
        if isinstance(tail, Piecewise):
            tail, start = tail.default, tail.branches[-1][0] + 1
        if cert is None and _normal_form(tail, 1) == {(0,): 1}:
            cert = start, False
        a.exceeds[config] = cert
    return a.exceeds[config]


# --- scan order ----------------------------------------------------------

def _shell(k: int, n: int, prefix: tuple = (), has_n: bool = False):
    if len(prefix) == k:
        if has_n:
            yield prefix
        return
    last = len(prefix) == k - 1
    for v in range(1, n + 1):
        if v == n:
            yield from _shell(k, n, prefix + (v,), True)
        elif has_n or not last:
            yield from _shell(k, n, prefix + (v,), has_n)


def iter_points(k: int, limit: int):
    """Points of N^k with components in [1, limit], ordered by max-norm
    with lexicographic tie-break.  This is the workbench scan order."""
    if k == 1:
        for n in range(1, limit + 1):
            yield (n,)
        return
    for n in range(1, limit + 1):
        yield from _shell(k, n)


# the guard's own budget, so that it stays cheap beside a scan that may
# end at its first point; a refusal only leaves the scan exact
_GUARD_BITS = 2**18


def _within_budget(f: NtFunction, limit: int,
                   config: WorkbenchConfig) -> bool:
    """True when no exact evaluation of univariate f at x = 1..limit can
    pass config.bit_budget: the magnitude tree of f (built once, cached)
    evaluates at (limit,) under that budget, capped at _GUARD_BITS.  One
    evaluation, which raises for towers and tight budgets; then the
    answer is False."""
    a = _analysis(f)
    if a.magnitude is None:
        a.magnitude = NtFunction(1, _magnitude(f.body))
    if config.bit_budget > _GUARD_BITS:
        config = config.with_overrides(bit_budget=_GUARD_BITS)
    try:
        evaluate(a.magnitude, (limit,), config=config)
    except (DomainError, EvaluationBudgetExceeded):  # limit < 1, or too big
        return False
    return True


class _Scan:
    """The one exact search: walk `points`, evaluate the members of `fs`
    in order at each point, stop at the first value `accept` rejects,
    and yield (point, values) for every point where all members pass.

    A point where some member is undefined (DomainError,
    EvaluationError) has no value: it is skipped and coverage stays
    intact.  The first point whose value exceeds the bit budget ends
    the scan as a horizon would; `cut` records that point, and a
    caller must then not claim to have covered the points it passed.

    `pre`, when given, filters the points before any exact evaluation
    (the residue pre-test of conditions._pretest).  It may reject only
    points that `accept` or the domain would, and since a rejected
    point can no longer cut the scan, a caller passes one only after
    _within_budget holds over all of `points`.
    """

    __slots__ = ("fs", "points", "accept", "config", "cut", "pre")

    def __init__(self, fs, points, accept, config: WorkbenchConfig,
                 pre=None):
        self.fs = fs
        self.points = points
        self.accept = accept
        self.config = config
        self.cut: tuple[int, ...] | None = None
        self.pre = pre

    def __iter__(self):
        fs, accept, config = self.fs, self.accept, self.config
        points = self.points if self.pre is None else filter(self.pre,
                                                             self.points)
        for point in points:
            values = []
            for f in fs:
                try:
                    v = evaluate(f, point, config=config)
                except (DomainError, EvaluationError):
                    break
                except EvaluationBudgetExceeded:
                    self.cut = point
                    return
                if not accept(v):
                    break
                values.append(v)
            else:
                yield point, tuple(values)


# --- shape detection -----------------------------------------------------

def is_identity(f: NtFunction) -> bool:
    return isinstance(f.body, Var) and f.body.index == 1


def exp_linear_shape(f: NtFunction) -> tuple[int, int, int] | None:
    """Match c1 * b^x + c0 with constant b >= 2; returns (c1, b, c0)."""
    if f.arity != 1:
        return None
    out = _collect_exp_linear(f.body)
    if out is None:
        return None
    c1, b, c0 = out
    if b is None or c1 == 0 or b < 2:
        return None
    return c1, b, c0


def _collect_exp_linear(node: Node):
    if isinstance(node, Const):
        return 0, None, node.value
    if (isinstance(node, Pow) and isinstance(node.base, Const)
            and isinstance(node.exponent, Var)):
        return 1, node.base.value, 0
    if isinstance(node, (Add, Sub)):
        left = _collect_exp_linear(node.left)
        right = _collect_exp_linear(node.right)
        if left is None or right is None:
            return None
        sign = 1 if isinstance(node, Add) else -1
        c1a, ba, c0a = left
        c1b, bb, c0b = right
        if ba is not None and bb is not None and ba != bb:
            return None
        return c1a + sign * c1b, ba if ba is not None else bb, c0a + sign * c0b
    if isinstance(node, Neg):
        inner = _collect_exp_linear(node.operand)
        if inner is None:
            return None
        return -inner[0], inner[1], -inner[2]
    if isinstance(node, Mul):
        for const_side, term_side in ((node.left, node.right), (node.right, node.left)):
            if isinstance(const_side, Const):
                inner = _collect_exp_linear(term_side)
                if inner is not None:
                    c = const_side.value
                    return inner[0] * c, inner[1], inner[2] * c
        return None
    return None


def is_mersenne_shape(f: NtFunction) -> bool:
    """True for 2^x - 1."""
    return exp_linear_shape(f) == (1, 2, -1)


_FERMAT_BODY = Add(Pow(Const(2), Pow(Const(2), Var(1))), Const(1))


def is_fermat_shape(f: NtFunction) -> bool:
    """True for 2^(2^x) + 1."""
    return f.arity == 1 and f.body == _FERMAT_BODY
