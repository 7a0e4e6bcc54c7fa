"""The per-function analysis cache against fresh, uncached computation."""

import dataclasses

import pytest

from primework import analysis
from primework.analysis import classify, poly_normal_form, univariate_coeffs
from primework.conditions import (Status, Verdict, check_condition_C,
                                  check_system_conditions)
from primework.cli import main
from primework.config import DEFAULT_CONFIG, WorkbenchConfig
from primework.errors import NotUnivariatePolynomial
from primework.expr import NtFunction, parse_function

from test_acceptance import _corpus_polys

# the shapes the README's examples use, plus the non-polynomial and
# multivariate ones the cache must also answer for
README_SHAPES = ["2^x-1", "x^3+1", "x", "x+2", "x+180", "2^(2^x)+1",
                 "x^2+1", "x^2+x+41", "x^3+2", "2*x+1", "-x^2+6", "0",
                 "floor(x^2 / 3)", "piecewise(x <= 2: x, else: x^2)",
                 "x*y+1", "(x+y)^3-2*z"]


def _functions():
    return _corpus_polys() + [parse_function(t) for t in README_SHAPES]


def _fresh_coeffs(f):
    """Dense coefficients straight from the normal form, no cache."""
    nf = analysis._normal_form(f.body, f.arity)
    if f.arity != 1 or nf is None:
        return None
    out = [0] * (max((k[0] for k in nf), default=0) + 1)
    for k, c in nf.items():
        out[k[0]] = c
    return out


def _coeffs_or_none(f):
    try:
        return univariate_coeffs(f)
    except NotUnivariatePolynomial:
        return None


def test_cached_readers_equal_fresh_computation():
    for f in _functions():
        fresh_nf = analysis._normal_form(f.body, f.arity)
        fresh_profile = analysis._profile(f, fresh_nf)
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert poly_normal_form(f) == fresh_nf, str(f)
            assert _coeffs_or_none(f) == _fresh_coeffs(f), str(f)
            assert classify(f) == fresh_profile, str(f)


def test_returned_objects_are_copies():
    f = parse_function("x^3-2*x+5")
    nf = poly_normal_form(f)
    nf[(7,)] = 1
    nf[(0,)] = 99
    coeffs = univariate_coeffs(f)
    coeffs[0] = 99
    coeffs.append(4)
    assert poly_normal_form(f) == {(3,): 1, (1,): -2, (0,): 5}
    assert univariate_coeffs(f) == [5, -2, 0, 1]
    assert classify(f).monomials == (((0,), 5), ((1,), -2), ((3,), 1))


def test_one_profile_under_every_config():
    # the fixed divisor is exact arithmetic on the coefficients: no bit
    # budget reaches it, so the one cached profile serves every config
    for text, fd in [("x^3-x", 6), ("x^30+x", 2), ("2*x*y+4", 2)]:
        f = parse_function(text)
        profile = classify(f)
        assert profile.fixed_divisor == fd
        for budget in (2, 20, 2**24):
            config = DEFAULT_CONFIG.with_overrides(bit_budget=budget)
            g = parse_function(text)
            if f.arity == 1:
                # C fills g's profile under this config
                assert check_condition_C(g, fd, config=config) == Verdict(
                    Status.FAILS, obstruction=fd)
            else:
                assert check_system_conditions((g,), fd, config=config) == Verdict(
                    Status.FAILS, obstruction=fd)
            assert classify(g) == profile
        assert classify(f) is profile


def test_cache_is_not_part_of_the_function():
    f = parse_function("x^2+x")
    g = parse_function("x^2+x")
    classify(f)
    assert f == g and hash(f) == hash(g)
    assert [fl.name for fl in dataclasses.fields(NtFunction)] == ["arity", "body"]
    assert dataclasses.asdict(f) == dataclasses.asdict(g)
    # each instance carries its own analysis
    assert "_analysis" in vars(f) and "_analysis" not in vars(g)


def test_envelope_probe_is_undecided_past_the_budget():
    # 2^(2^x) * floor(x/25) is 0 below x = 25: a huge intermediate says
    # nothing about the value, so the probe gives no answer there and
    # the envelope no threshold
    f = parse_function("2^(2^x)*floor(x/25)+floor(x/20)+1")
    assert analysis._ge_probe(f, (8,), 5, DEFAULT_CONFIG) is False
    assert analysis._ge_probe(f, (20,), 2, DEFAULT_CONFIG) is True
    assert analysis._ge_probe(f, (32,), 5, DEFAULT_CONFIG) is None
    assert analysis.envelope_outside_bound(f, 5) is None
    # no value at x = 1; below the bound there
    g = parse_function("2^(x-2)+1")
    assert analysis._ge_probe(g, (1,), 2, DEFAULT_CONFIG) is False
    # the probe's budget is never below the bits of the bound
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=4)
    assert analysis._ge_probe(parse_function("2^x"), (40,), 2**40,
                              tight) is True


# the parent outputs of the commands whose envelopes and magnitude
# guards run the probes; each probe passes its budget to the closure
PROBED_COMMANDS = {
    ("phi", "-f", "2^x+1", "--modulus", "30"): "count: 1  (box 4, exact)",
    ("phi", "-f", "x^2+1", "--modulus", "30"): "count: 1  (box 5, exact)",
    ("crt-analogy", "-f", "3*2^x+1", "--a", "5", "--b", "7"):
        "status: Inapplicable\nwitness mod 5: none\nwitness mod 7: none\n"
        "witness mod 35: x=2 value=13",
    ("crt-analogy", "-f", "x^2+x+1", "--a", "4", "--b", "9"):
        "status: Lifts\nwitness mod 4: x=1 value=3\nwitness mod 9: x=2 value=7\n"
        "witness mod 36: x=2 value=7",
    ("conditions", "-f", "3*2^x+1", "--modulus", "35"):
        "A: holds\nB: holds  x=2 value=13\nC: holds  x=1 value=7\n"
        "D: holds  x=1 value=7\nE: holds  x=2 value=13\nF: holds  x=1 value=7\n"
        "G: holds  x=1 value=7\ncoprime sequence: [7, 13, 25]",
    ("conditions", "-f", "x^2+x+1", "--modulus", "21"):
        "A: holds\nB: holds  x=3 value=13\nC: holds  x=1 value=3\n"
        "D: holds  x=2 value=7\nE: holds  x=3 value=13\nF: holds  x=1 value=3\n"
        "G: holds  x=2 value=7\ncoprime sequence: [3, 7, 13]",
}


def test_probes_build_no_config(monkeypatch, capsys):
    def refused(self, **kw):
        raise AssertionError("a probe copied the config")
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    monkeypatch.setattr(WorkbenchConfig, "with_overrides", refused)
    for argv, want in PROBED_COMMANDS.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == want + "\n"
    # below x = 1 there is no point, so no exact value to bound
    f = parse_function("2^x+1")
    assert not analysis._within_budget(f, 0, DEFAULT_CONFIG)
    assert analysis._within_budget(f, 1, DEFAULT_CONFIG)


@pytest.mark.parametrize("shifted, negated", [
    ("3*4^(x-3)-5", "3*4^(x-3)+(-5)"),
    ("x^2-7", "x^2+(-7)"),
    ("2^x+x-3", "2^x+(x+(-3))"),
])
def test_a_negated_constant_is_a_constant(shifted, negated):
    # (-5) parses as Neg(Const(5)): as nondecreasing as the 5 of x-5
    f, g = parse_function(shifted), parse_function(negated)
    assert analysis.traits(g.body) == analysis.traits(f.body)
    for m in (2, 7, 21, 300):
        assert analysis.envelope_outside_bound(g, m) \
            == analysis.envelope_outside_bound(f, m) is not None
    assert analysis.exceeds_one_from(g) == analysis.exceeds_one_from(f)
    assert not analysis.traits(parse_function("-(2)").body).nonneg
