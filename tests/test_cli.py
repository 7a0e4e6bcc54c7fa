"""CLI surface: exit codes, text output, JSON determinism."""

import contextlib
import dataclasses
import enum
import fcntl
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primework
from primework.analogy import LiftStatus
from primework.cli import (_COMMANDS, _build_parser, _dumps, _envelope,
                           _fast_args, main)
from primework.conditions import Status
from primework.config import WorkbenchConfig
from primework.errors import InvalidArgument
from primework.fermat import FermatStatus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sfm_text(capsys):
    code, out, _ = run(capsys, "sfm", "-f", "2^x-1", "--modulus", "82677")
    assert code == 0
    assert "x=11" in out
    assert "2047 (composite)" in out


def test_crt_analogy_text(capsys):
    code, out, _ = run(capsys, "crt-analogy", "-f", "x^3+1",
                       "--a", "9", "--b", "10")
    assert code == 0
    assert "FailsToLift" in out


def test_conditions_text(capsys):
    code, out, _ = run(capsys, "conditions", "-f", "x^3+1",
                       "--modulus", "90")
    assert code == 0
    assert "B: holds" in out
    assert "x=6 value=217" in out


def test_usage_error_without_function(capsys):
    code, _, err = run(capsys, "pi", "--limit", "50")
    assert code == 1
    assert "error" in err


def test_usage_error_bad_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_usage_error_no_subcommand(capsys):
    code, _, err = run(capsys, )
    assert code == 1


def test_validation_error_noncoprime_moduli(capsys):
    code, _, err = run(capsys, "crt-analogy", "-f", "x", "--a", "4",
                       "--b", "6")
    assert code == 1
    assert "ModuliNotCoprime" in err


def test_unknown_exit_code(capsys):
    # no twin values fit inside Z_{3!}^* and the scan cannot conclude
    code, out, _ = run(capsys, "factorial", "-s", "x; x+2", "--limit", "3")
    assert code == 2
    assert "no witness" in out


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "sfm", "-f", "2^x-1", "--modulus", "82677",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "sfm"
    assert doc["conclusive"] is True
    assert doc["elapsed_ms"] == 0
    assert doc["results"]["record"]["point"] == [11]
    assert doc["config"]["seed"] == 0


def test_json_big_integers_are_strings(capsys):
    code, out, _ = run(capsys, "fermat", "--limit", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    records = doc["results"]["records"]
    f7 = next(r for r in records if r["x"] == 7)
    assert isinstance(f7["value"], str)
    assert int(f7["value"]) == 2**128 + 1
    f4 = next(r for r in records if r["x"] == 4)
    assert f4["value"] == 65537


def test_json_deterministic_across_runs(capsys):
    argv = ["verify-paper", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_paper_all_green(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_seed_flag_reaches_config(capsys):
    code, out, _ = run(capsys, "phi", "-f", "x", "--modulus", "10",
                       "--seed", "7", "--json")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 7


def test_config_file_via_environment(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bench.conf"
    path.write_text("seed = 9\nhorizon = 5000\n")
    monkeypatch.setenv("WORKBENCH_CONFIG", str(path))
    code, out, _ = run(capsys, "phi", "-f", "x", "--modulus", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 9
    assert doc["config"]["horizon"] == 5000
    # flags beat the file
    code, out, _ = run(capsys, "phi", "-f", "x", "--modulus", "10",
                       "--seed", "3", "--json")
    assert json.loads(out)["config"]["seed"] == 3


def test_over_budget_value_scan_is_unknown(capsys, tmp_path, monkeypatch):
    path = tmp_path / "tight.conf"
    path.write_text("bit_budget = 6\n")
    monkeypatch.setenv("WORKBENCH_CONFIG", str(path))
    code, out, _ = run(capsys, "conditions", "-f", "2^x-1",
                       "--modulus", "3255")
    assert code == 2
    assert "E: unknown  horizon=10000" in out.splitlines()
    assert "fails" not in out


def test_sfm_skips_undefined_points(capsys):
    code, out, _ = run(capsys, "sfm", "-f", "2^(x-2)+1", "--modulus", "10")
    assert code == 0
    assert out == "least witness: x=3  values: 3 (prime)\n"


def test_strict_positive_n_flag(capsys):
    code, out, _ = run(capsys, "ap", "--limit", "4", "--json")
    assert code == 0
    entries = json.loads(out)["results"]["table"]["entries"]
    assert [3, 3] in entries
    code, out, _ = run(capsys, "ap", "--limit", "4", "--strict-positive-n",
                       "--json")
    entries = json.loads(out)["results"]["table"]["entries"]
    assert [3, 7] in entries


def test_phi_exit_zero_and_payload(capsys):
    code, out, _ = run(capsys, "phi", "-s", "x; x+2", "--modulus", "15",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["result"]["count"] == 2
    assert doc["results"]["result"]["exact"] is True


def test_density_dlvp_branch(capsys):
    code, out, _ = run(capsys, "density", "--a", "1", "--b", "4",
                       "--limit", "10000")
    assert code == 0
    assert "1 mod 4" in out


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_fermat_x_min_zero_admits_f0(capsys):
    # F(0) = 3 is the least Fermat number in Z_10^*; from x = 1 on there
    # is none (F(1) = 5 shares a factor with 10, F(2) = 17 is too big)
    code, out, _ = run(capsys, "fermat", "--modulus", "10", "--x-min", "0")
    assert code == 0
    assert out == "least term in Z_10*: 3\n"
    code, out, _ = run(capsys, "fermat", "--modulus", "10")
    assert code == 0
    assert out == "least term in Z_10*: none\n"


@pytest.mark.parametrize("argv", [
    ["sfm", "-f", "x", "--modulus", "1"],
    ["conditions", "-f", "x", "--modulus", "1"],
    ["phi", "-f", "x", "--modulus", "1"],
    ["factorial", "-f", "x", "--limit", "1"],
    # 2^x - 1 once took a route of its own that accepted modulus 1
    ["sfm", "-f", "2^x-1", "--modulus", "1"],
])
def test_out_of_range_argument_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidArgument: ")


def test_verify_paper_json_matches_golden_bytes(capsys, monkeypatch):
    golden = Path(__file__).parent / "data" / "verify_paper.json"
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_psi12_is_tagged_composite(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the
    # twelve Miller-Rabin bases 2..37; base 41 exposes it
    code, out, _ = run(capsys, "sfm", "-f", "x+318665857834031151167460",
                       "--modulus", "2")
    assert code == 0
    assert out == ("least witness: x=1  values: "
                   "318665857834031151167461 (composite)\n")


def test_ap_horizon_exhaustion_is_unknown(capsys, tmp_path, monkeypatch):
    # 10^8 + 1 primes cannot fit in the 10^6 + 1 candidates of the horizon
    code, out, _ = run(capsys, "ap", "--a", "1", "--b", "2",
                       "--limit", "100000000")
    assert (code, out) == (2, "unknown  horizon=1000000\n")
    code, out, _ = run(capsys, "ap", "--a", "1", "--b", "2",
                       "--limit", "100000000", "--json")
    doc = json.loads(out)
    assert code == 2 and doc["conclusive"] is False
    assert doc["results"]["report"]["violations"] == []
    assert doc["results"]["report"]["c_star"] is None
    # 1 + 10x for x = 0..3 holds the primes 11 and 31 only
    path = tmp_path / "short.conf"
    path.write_text("horizon = 3\n")
    monkeypatch.setenv("WORKBENCH_CONFIG", str(path))
    code, out, _ = run(capsys, "ap", "--a", "1", "--b", "10", "--limit", "2")
    assert (code, out) == (2, "unknown  horizon=3\n")
    code, out, _ = run(capsys, "ap", "--a", "1", "--b", "10", "--limit", "1")
    assert (code, out) == (0, "violations up to n=1: [1]\n"
                              "holds for all n > 1\n")
    # 21, 121, 221 and 321 are composite: the table stops before l = 21
    code, out, _ = run(capsys, "ap", "--modulus", "100")
    assert code == 2
    assert out.splitlines()[-2:] == ["  l=19  least prime: 19",
                                     "unknown  horizon=3"]


def test_conditions_skip_undefined_points(capsys):
    # 2^(x-2)+1 has no value at x = 1; the residue scans of B, C and D
    # step over it as the exact scans do
    code, out, err = run(capsys, "conditions", "-f", "2^(x-2)+1",
                         "--modulus", "10")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "B: holds  x=3 value=3" in lines
    assert "C: holds  x=2 value=2" in lines


def test_conditions_over_budget_witness_has_no_value(capsys):
    # f(x) = 0 below x = 25; f(25) = 2^(2^25) is 1 mod 3 but over the
    # bit budget, so the witness carries value None and E is cut there
    code, out, err = run(capsys, "conditions", "-f", "2^(2^x)*floor(x/25)",
                         "--modulus", "3")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    for letter in "BCD":
        assert f"{letter}: holds  x=25 value=None" in lines
    assert "E: unknown  horizon=10000" in lines


def test_decreasing_exponential_has_no_witness(capsys):
    # -2*3^x + 5 is below 1 from x = 1 on
    code, out, _ = run(capsys, "sfm", "--function=-2*3^x+5", "--modulus", "10")
    assert (code, out) == (0, "no witness\n")
    code, out, _ = run(capsys, "conditions", "--function=-2*3^x+5",
                       "--modulus", "10")
    assert code == 0
    lines = out.splitlines()
    for letter in "AEFG":
        assert f"{letter}: fails" in lines
    assert "coprime sequence: []" in lines


@pytest.mark.parametrize("argv, code, expected", [
    (["conditions", "-f", "x^30+x", "--modulus", "15"], 2,
     "A: unknown  horizon=10000\n"
     + "".join(f"{c}: holds  x=1 value=2\n" for c in "BCDEFG")
     + "coprime sequence: [2]\n"),
    # 3 divides every (x^30 + x)(x + 2)
    (["sfm", "-s", "x^30+x; x+2", "--modulus", "15"], 0, "no witness\n"),
], ids=["conditions", "sfm-system"])
def test_fixed_divisor_under_a_tight_budget(capsys, tmp_path, monkeypatch,
                                            argv, code, expected):
    # x^30 + x runs over a 20-bit budget at x = 2; the fixed divisor
    # comes from the coefficients and needs no budget
    path = tmp_path / "tight.conf"
    path.write_text("bit_budget = 20\n")
    monkeypatch.setenv("WORKBENCH_CONFIG", str(path))
    assert run(capsys, *argv) == (code, expected, "")


def test_fixed_divisor_beyond_the_horizon_fails(capsys):
    code, out, _ = run(capsys, "conditions", "-f", "20011*x",
                       "--modulus", "20011")
    lines = out.splitlines()
    for letter in "BCD":
        assert f"{letter}: fails  obstruction=20011" in lines


@pytest.mark.parametrize("text, message", [
    ("seed 9\n", ":1: expected key=value"),
    ("seed = 9\ncolour = red\n", ":2: unknown config key 'colour'"),
    ("horizon = abc\n", ":1: bad value for horizon: 'abc'"),
    (None, ": No such file or directory"),
])
def test_bad_config_file_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                          text, message):
    path = tmp_path / "bad.conf"
    if text is not None:
        path.write_text(text)
    monkeypatch.setenv("WORKBENCH_CONFIG", str(path))
    code, out, err = run(capsys, "ap", "--modulus", "100")
    assert (code, out) == (1, "")
    assert err == f"error: InvalidArgument: {path}{message}\n"


@pytest.mark.parametrize("argv, expected", [
    (["phi", "-f", "2^(x-2)+1", "--modulus", "10"],
     "count: 2  (box 5, exact)\n"),
    (["pi", "-f", "2^(x-2)+1", "--limit", "20"],
     "count: 4  (method exact)\nsubset: [2, 3, 5, 17]\n"),
    (["crt-analogy", "-f", "2^(x-2)+1", "--a", "3", "--b", "5"],
     "status: Lifts\n"
     "witness mod 3: x=2 value=2\n"
     "witness mod 5: x=2 value=2\n"
     "witness mod 15: x=2 value=2\n"),
], ids=["phi", "pi", "crt-analogy"])
def test_envelope_probe_skips_undefined_points(capsys, argv, expected):
    # 2^(x-2)+1 has no value at x = 1, where the envelope probe starts
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, expected", [
    (["density", "-f", "2^x-1", "--limit", "100"],
     "error: NotUnivariatePolynomial: 2^x - 1\n"),
    (["density", "-s", "x; 1", "--limit", "100"],
     "error: NotUnivariatePolynomial: 1\n"),
], ids=["function", "system"])
def test_density_names_the_member_it_rejects(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", expected)


@pytest.mark.parametrize("argv, expected", [
    (["-s", "x; 7", "--limit", "100"], "7"),
    (["-f", "7", "--limit", "100"], "7"),
    (["-s", "x; -3", "--limit", "10"], "-3"),
    (["-s", "x; 0", "--limit", "100"], "0"),
    (["-s", "x; 7", "--limit", "1"], "7"),
], ids=["prime", "alone", "negative", "zero", "limit-1"])
def test_density_refuses_a_constant_member(capsys, argv, expected):
    # a constant member is no fixed prime divisor: 7 is itself prime
    code, out, err = run(capsys, "density", *argv)
    assert (code, out, err) \
        == (1, "", f"error: NotUnivariatePolynomial: {expected}\n")


@pytest.mark.parametrize("argv", [
    ["-s", "x; x+1", "--limit", "1"],
    ["-f", "x^2+1", "--limit", "1"],
    ["-s", "x; x+2", "--limit", "0"],
], ids=["fixed-divisor", "no-fixed-divisor", "limit-0"])
def test_density_refuses_a_limit_below_2(capsys, argv):
    # one answer whether or not the system has a fixed prime divisor
    assert run(capsys, "density", *argv) == (
        1, "", "error: InvalidArgument: m must be at least 2\n")


@pytest.mark.parametrize("argv, golden", [
    (["-f", "x^2+x+41"], "density_x2_x_41.json"),
    (["-s", "x; x+2"], "density_twins.json"),
], ids=["euler", "twins"])
def test_density_json_at_a_million_matches_golden_bytes(capsys, monkeypatch,
                                                        argv, golden):
    # constants over every prime up to 10^6, 20 times the largest cutoff
    # of the bit-for-bit table in test_density
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    code, out, _ = run(capsys, "density", *argv, "--horizon", "1000000",
                       "--limit", "1000", "--json")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data"
                            / golden).read_bytes()


_TOWER_TIMES_ZERO = "2^(2^x)*floor(x/25)+floor(x/20)+1"


@pytest.mark.parametrize("argv, code, expected", [
    # f is 1 below x = 20 and 2 up to x = 24, but 2^(2^24) runs over the
    # bit budget: the envelope has no threshold and the scan is cut there
    (["phi", "-f", _TOWER_TIMES_ZERO, "--modulus", "5"], 2,
     "count: 2  (box 10000, lower bound)\n"),
    (["pi", "-f", _TOWER_TIMES_ZERO, "--limit", "5"], 2,
     "count: 1  (method exact, incomplete)\nsubset: [2]\n"),
    (["phi", "-f", "2^(2^x)*floor(x/25)-1", "--modulus", "5"], 2,
     "count: 0  (box 10000, lower bound)\n"),
    (["crt-analogy", "-f", _TOWER_TIMES_ZERO, "--a", "2", "--b", "5"], 2,
     "status: Unknown\n"
     "witness mod 2: none\n"
     "witness mod 5: x=20 value=2\n"
     "witness mod 10: none\n"),
    # no envelope: the fallback box has about 10^4 points in all, so
    # 2^x is evaluated exactly at no more than 10^4 points
    (["phi", "-f", "2^x-x", "--modulus", "10"], 2,
     "count: 1  (box 10000, lower bound)\n"),
    (["crt-analogy", "-f", "3*x*y-3*x+3", "--a", "3", "--b", "4"], 2,
     "status: Unknown\n"
     "witness mod 3: none\n"
     "witness mod 4: x=(1, 1) value=3\n"
     "witness mod 12: none\n"),
    # 3 divides every value: the system form's fixed-divisor Fails
    (["sfm", "-f", "3*x*y+3", "--modulus", "3"], 0, "no witness\n"),
], ids=["phi-tower", "pi-tower", "phi-tower-negative", "crt-analogy-tower",
        "phi-no-envelope", "crt-analogy-two-variables", "sfm-two-variables"])
def test_over_budget_probe_and_fallback_boxes(capsys, argv, code, expected):
    assert run(capsys, *argv) == (code, expected, "")


@pytest.mark.parametrize("spelling", ["3*4^(x-3)-5", "3*4^(x-3)+(-5)"])
def test_a_negated_constant_keeps_the_envelope(capsys, spelling):
    # no value of 3*4^(x-3)-5 lies in Z_3^* or Z_7^*, proven from the
    # envelope alike for both spellings
    assert run(capsys, "crt-analogy", "-f", spelling,
               "--a", "3", "--b", "7") == (
        0, "status: Inapplicable\n"
           "witness mod 3: none\n"
           "witness mod 7: none\n"
           "witness mod 21: none\n", "")


@pytest.mark.parametrize("argv, message", [
    (["-f", "2*x*y", "--modulus", "6"],
     "conditions B, C and D take a univariate function"),
    (["-f", "2*x*y", "--modulus", "1"], "condition B needs a modulus >= 2"),
    (["-f", "x^2+1", "--modulus", "1"], "condition B needs a modulus >= 2"),
    # refused before m is factorized, not with factorize's message
    (["-f", "x", "--modulus", "0"], "condition B needs a modulus >= 2"),
    (["-f", "x", "--modulus", "-7"], "condition B needs a modulus >= 2"),
], ids=["two-variables", "two-variables-modulus-1", "modulus-1", "modulus-0",
        "modulus-negative"])
def test_conditions_refuses_before_the_coprime_scan(capsys, argv, message):
    # every value of 2*x*y is even: A's scan would run through 10^4
    # points per axis before B refused the function
    start = time.perf_counter()
    assert run(capsys, "conditions", *argv) == (
        1, "", f"error: InvalidArgument: {message}\n")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv, expected", [
    # horizon 0 scans no point, where it used to fall back to 10^4
    (["sfm", "-f", "x^2+1", "--modulus", "10", "--horizon", "0"],
     (2, "unknown (horizon 0)\n", "")),
    (["density", "-f", "x^2+1", "--limit", "100", "--horizon", "0"],
     (0, "constant: 1.000000  (cutoff 0)\npredicted: 15.0  actual: 19\n",
      "")),
    (["sfm", "-f", "x^2+1", "--modulus", "10", "--horizon", "-3"],
     (1, "", "error: InvalidArgument: --horizon must be nonnegative\n")),
    (["density", "-f", "x^2+1", "--limit", "100", "--horizon", "-5"],
     (1, "", "error: InvalidArgument: --horizon must be nonnegative\n")),
    (["conditions", "-f", "x^2+1", "--modulus", "10", "--horizon", "-1"],
     (1, "", "error: InvalidArgument: --horizon must be nonnegative\n")),
    (["factorial", "-f", "x^2+1", "--limit", "5", "--horizon", "-1"],
     (1, "", "error: InvalidArgument: --horizon must be nonnegative\n")),
    # --box follows the same rule
    (["phi", "-f", "x", "--modulus", "10", "--box", "0"],
     (2, "count: 0  (box 0, lower bound)\n", "")),
    (["phi", "-f", "x", "--modulus", "10", "--box", "-3"],
     (1, "", "error: InvalidArgument: box must be nonnegative\n")),
    (["crt-analogy", "-f", "x^3+1", "--a", "9", "--b", "10", "--box", "-1"],
     (1, "", "error: InvalidArgument: box must be nonnegative\n")),
    # B, C and D on a polynomial do not read the horizon
    (["conditions", "-f", "x^2+x+1", "--modulus", "7", "--horizon", "0"],
     (2, "A: unknown  horizon=0\n"
         "B: holds  x=1 value=3\n"
         "C: holds  x=1 value=3\n"
         "D: holds  x=1 value=3\n"
         "E: unknown  horizon=0\n"
         "F: unknown  horizon=0\n"
         "G: unknown  horizon=0\n"
         "coprime sequence: []\n", "")),
    # --limit follows the same rule
    (["fermat", "--limit", "-2"],
     (1, "", "error: InvalidArgument: --limit must be nonnegative\n")),
    (["pi", "-f", "x", "--limit", "-5"],
     (1, "", "error: InvalidArgument: --limit must be nonnegative\n")),
], ids=["sfm-zero", "density-zero", "sfm-negative", "density-negative",
        "conditions-negative", "factorial-negative", "phi-box-zero",
        "phi-box-negative", "crt-analogy-box-negative",
        "conditions-polynomial-zero", "fermat-limit-negative",
        "pi-limit-negative"])
def test_horizon_zero_is_honoured_and_negative_refused(capsys, argv,
                                                       expected):
    assert run(capsys, *argv) == expected


def test_library_refuses_a_negative_box_like_the_cli():
    f = primework.parse_function("x^3+1")
    with pytest.raises(InvalidArgument, match="box must be nonnegative"):
        primework.phi_general((f,), 10, box=-3)
    with pytest.raises(InvalidArgument, match="box must be nonnegative"):
        primework.find_zm_witness((f,), 9, box=-1)


def test_density_refuses_a_sieve_past_the_memory_cap(capsys):
    # 10^12 n would need ~2 * 10^12 bytes of sieve: refused before the
    # prediction's sum over n or any allocation
    start = time.perf_counter()
    code, out, err = run(capsys, "density", "-f", "x^2+1",
                         "--limit", "1000000000000")
    assert (code, out) == (1, "")
    assert err.startswith("error: MemoryBudgetExceeded: sieve over n <= "
                          "1000000000000 needs ~")
    assert time.perf_counter() - start < 5


def test_a_literal_past_the_int_digit_limit_is_a_syntax_error(capsys):
    # 5,000 digits pass the interpreter's 4,300-digit limit on int()
    code, out, err = run(capsys, "sfm", "-f", "x+" + "9" * 5000,
                         "--modulus", "2")
    assert (code, out) == (1, "")
    assert err == ("error: ExpressionSyntaxError: cannot read the "
                   "5000-digit integer literal (at position 2)\n")



def test_one_parser_per_process_matches_fresh_calls(capsys, monkeypatch):
    # a usage error, a --json call, a text call and --help, run in one
    # process on one parser, each against the same call in a fresh
    # interpreter
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the same width
    src = str(Path(primework.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    calls = [["sfm", "-f", "x", "--modulus", "ten"],
             ["sfm", "-f", "2^x-1", "--modulus", "82677", "--json"],
             ["conditions", "-f", "x^3+1", "--modulus", "90"],
             ["--help"]]
    _build_parser.cache_clear()
    results = []
    for argv in calls:
        results.append(run(capsys, *argv))
        fresh = subprocess.run([sys.executable, "-m", "primework.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert results[-1] == (fresh.returncode, fresh.stdout,
                               fresh.stderr), argv
    assert _build_parser.cache_info().misses == 1
    code, out, err = results[0]
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == ("error: argument --modulus: "
                                    "invalid int value: 'ten'")
    assert [r[0] for r in results[1:]] == [0, 0, 0]


def _cli_env():
    src = str(Path(primework.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("WORKBENCH_CONFIG", None)
    return env


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="needs a pipe whose size can be set")
def test_a_reader_that_closes_after_one_line_gets_no_traceback():
    # `primework verify-paper --json | head -n 1`, made deterministic:
    # the pipe holds one page, shorter than the envelope, so the CLI is
    # still writing when the reader takes its line and closes the pipe
    r, w = os.pipe()
    size = fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    golden = Path(__file__).parent / "data" / "verify_paper.json"
    if size >= len(golden.read_bytes()):
        pytest.skip(f"the pipe holds {size} bytes, the whole envelope")
    proc = subprocess.Popen(
        [sys.executable, "-m", "primework.cli", "verify-paper", "--json"],
        stdout=w, stderr=subprocess.PIPE, env=_cli_env())
    os.close(w)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(r, 1)
        if not byte:
            break
        line += byte
    os.close(r)
    _, err = proc.communicate(timeout=120)
    assert line == b"{\n"
    assert b"Traceback" not in err, err.decode()
    assert (proc.returncode, err) == (1, b"")


def test_a_long_sum_and_deep_parentheses_answer_through_sfm(capsys):
    # the nesting today's parser and analysis reach at the default
    # recursion limit: compiling the tree must not lower it
    for text, value in (("+".join(["x"] * 900), 900),
                        ("(" * 200 + "x+2" + ")" * 200, 3)):
        code, out, err = run(capsys, "sfm", "-f", text, "--modulus", "7")
        assert (code, err) == (0, ""), text[:20]
        assert out.startswith(f"least witness: x=1  values: {value} ")


# --- the JSON writer against json.dumps ------------------------------------

def _jsonable(obj):
    """The plain form json.dumps was given before the one-pass writer:
    dataclasses become dicts, enums their values, wide integers decimal
    strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= 2**63 else obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    return str(obj)


def _reference(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


@dataclasses.dataclass(frozen=True)
class _Record:
    zeta: object
    alpha: object
    mid: object


@dataclasses.dataclass
class _Bare:
    pass


_LEAVES = [2**63 - 1, 2**63, -(2**63 - 1), -2**63, 0, -1, 10**40, True,
           False, None, -0.0, 0.0, 1e300, 1.5e-300, float("nan"),
           float("inf"), float("-inf"), 0.1, *Status, *LiftStatus,
           *FermatStatus, "", "plain", "caf\u00e9 \u2203 \U0001d11e",
           "tab\tnl\ncr\r nul\x00 esc\x1b del\x7f quote\" back\\",
           _Bare(), [], (), {}, set(), frozenset()]


def _random_value(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return rng.choice([rng.randint(-2**70, 2**70),
                               rng.randint(-1000, 1000),
                               rng.uniform(-1e6, 1e6),
                               "".join(chr(rng.randint(0, 0x2fff))
                                       for _ in range(rng.randint(0, 6)))])
        return rng.choice(_LEAVES)
    size = rng.randint(0, 4)
    kind = rng.randrange(7)
    if kind == 0:
        return _Record(*(_random_value(rng, depth - 1) for _ in range(3)))
    if kind == 1:  # str and int keys; 1 and "1" name the same key
        return {rng.choice(["b", "a", "\u00e9", "", "1", 1, -5, 10**30]):
                _random_value(rng, depth - 1) for _ in range(size)}
    if kind == 2:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    if kind == 3:
        return tuple(_random_value(rng, depth - 1) for _ in range(size))
    if kind == 4:
        return {rng.randint(-2**64, 2**64) for _ in range(size)}
    if kind == 5:
        return frozenset(rng.choice(["x", "y", "\u00e9", ""])
                         for _ in range(size))
    return rng.choice(_LEAVES)


def test_json_writer_matches_json_dumps():
    rng = random.Random(20260)
    for leaf in _LEAVES:
        assert _dumps(leaf) == _reference(leaf), leaf
    for i in range(3000):
        value = _random_value(rng, rng.randint(1, 5))
        assert _dumps(value) == _reference(value), i


def test_json_envelope_matches_json_dumps():
    # the config block is kept for one config value; --seed takes any
    # int, so a wide seed and a change of config must show in the bytes
    rng = random.Random(26)
    configs = [WorkbenchConfig(), WorkbenchConfig(seed=2**70),
               WorkbenchConfig(seed=-3, strict_positive_n=True, x_min=0)]
    for i in range(300):
        config = rng.choice(configs)
        payload = _random_value(rng, 3)
        conclusive = rng.choice([True, False])
        envelope = {"schema_version": 1, "command": "sfm",
                    "config": _jsonable(config),
                    "results": _jsonable(payload),
                    "conclusive": conclusive, "elapsed_ms": 0}
        assert _envelope("sfm", config, payload, conclusive) == json.dumps(
            envelope, sort_keys=True, indent=2), i


# --- the argv fast path against argparse -----------------------------------

_TEXTS = ["x", "x^2+1", "x; x+2", "2^x-1", "floor(x/3)+1", "x y", "",
          "caf\u00e9", "3*4^(x-3)+(-5)"]
_INTS = ["0", "7", "-7", "007", "-0", "82677", "1" + "0" * 30, "-123456"]
_INT_FLAGS = ["--modulus", "--a", "--b", "--limit", "--box", "--horizon",
              "--seed", "--x-min"]

# argv the fast path must leave to argparse
_DECLINED = [
    [], ["frobnicate"], ["-h"], ["--help"], ["sfm", "-h"],
    ["sfm", "--json", "--json"], ["sfm", "-f", "x", "--function", "y"],
    ["sfm", "--modulus", "3", "--modulus", "4"],
    ["sfm", "-f", "x", "--mod", "5"], ["sfm", "-f", "-x"],
    ["sfm", "--function="], ["sfm", "-f=x"], ["sfm", "--json=1"],
    ["sfm", "--modulus=5"], ["sfm", "--modulus", "+7"],
    ["sfm", "--modulus", " 7"], ["sfm", "--modulus", "1_000"],
    ["sfm", "--modulus", "\u0663"], ["sfm", "--modulus", "9" * 5000],
    ["sfm", "--modulus", "ten"], ["sfm", "-f", "x", "--", "--json"],
    ["sfm", "-f"], ["sfm", "--modulus"], ["sfm", "--frobnicate", "1"],
    ["sfm", "-f", "x", "extra"], ["sfm", "--limit", "-f"],
]


def _valid_argv(rng):
    argv = [rng.choice(list(_COMMANDS))]
    text_flags = [rng.choice([["-f", "--function"], ["-s", "--system"]])]
    if rng.random() < 0.2:
        text_flags = [["-f", "--function"], ["-s", "--system"]]
    for spellings in text_flags:
        value = rng.choice(_TEXTS)
        if rng.random() < 0.3 and value:
            argv.append(spellings[1] + "=" + rng.choice(["-", ""]) + value)
        else:
            argv += [rng.choice(spellings), value]
    for flag in rng.sample(_INT_FLAGS, rng.randint(0, 4)):
        argv += [flag, rng.choice(_INTS)]
    for flag in ("--json", "--strict-positive-n"):
        if rng.random() < 0.4:
            argv.append(flag)
    pairs = []  # shuffle the options, each with its value
    k = 1
    while k < len(argv):
        takes_value = argv[k] in ("-f", "-s", "--function", "--system",
                                  *_INT_FLAGS)
        pairs.append(argv[k:k + 1 + takes_value])
        k += 1 + takes_value
    rng.shuffle(pairs)
    return argv[:1] + [word for pair in pairs for word in pair]


def _mutated(rng, argv):
    """argv with one change the fast path may have to decline."""
    argv = list(argv)
    k = rng.randrange(len(argv) + 1)
    change = rng.randrange(6)
    if change == 0:
        argv.insert(k, rng.choice(["--", "-h", "--mod", "--js", "extra",
                                   "--frobnicate", "-x", "--json=",
                                   "--function=", "-f=x"]))
    elif change == 1 and len(argv) > 1:
        argv.append(rng.choice(argv[1:]))  # a repeat, or a stray value
    elif change == 2:
        argv.insert(k, rng.choice(_INT_FLAGS))
        argv.insert(k + 1, rng.choice(["+7", " 7", "1_000", "\u0663",
                                       "9" * 5000, "7.0", "", "-f"]))
    elif change == 3:
        argv = argv[:-1]  # maybe a missing value
    elif change == 4:
        argv.insert(k, rng.choice(["-f", "-s"]))
        argv.insert(k + 1, rng.choice(["-x", "-2*3^x+5", "--json"]))
    else:
        argv[0] = rng.choice(["sfm", "fermat", "--json", "-h", "sf"])
    return argv


def check_fast_path_matches_argparse(seed, count):
    """The fast path's Namespace equals argparse's on count seeded argv,
    or the fast path declined; argv built valid is never declined.
    Returns (valid argv read by the fast path, argv declined)."""
    rng = random.Random(seed)
    parser = _build_parser()
    fast_valid = declined = 0
    for i in range(count):
        argv = _valid_argv(rng)
        valid = rng.random() < 0.6
        if not valid:
            argv = _mutated(rng, argv)
        fast = _fast_args(argv)
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                slow = parser.parse_args(argv)
            except SystemExit:
                slow = None
        assert fast is None or fast == slow, (i, argv, fast, slow)
        if valid:
            assert fast is not None, (i, argv)
            fast_valid += 1
        declined += fast is None
    return fast_valid, declined


def test_fast_path_matches_argparse():
    fast_valid, declined = check_fast_path_matches_argparse(26, 2000)
    assert fast_valid > 1000 and declined > 400


@pytest.mark.parametrize("argv", _DECLINED,
                         ids=[f"{i:02d}" for i in range(len(_DECLINED))])
def test_fast_path_declines(argv):
    assert _fast_args(argv) is None
