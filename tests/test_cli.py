"""CLI surface: exit codes, text output, JSON determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primework
from primework.cli import _build_parser, main
from primework.errors import InvalidArgument


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
