"""Density constants, predicted versus actual prime counts, progressions."""

import bisect
import itertools
import math
import random

import pytest

from primework.analysis import (_analysis, envelope_outside_bound,
                                univariate_coeffs)
from primework.arith import euler_phi, is_prime, prime_flags, sieve_primes
from primework.config import DEFAULT_CONFIG
from primework.density import (BhConstant, DensityEstimate, _root_counter,
                               _System, actual_count, ap_product_inequality,
                               bateman_horn_constant, density_estimate,
                               dlvp_ratio, least_prime_ap, omega_p,
                               predicted_count)
from primework.errors import (EvaluationBudgetExceeded, InvalidArgument,
                              MemoryBudgetExceeded, NotCoprime,
                              NotUnivariatePolynomial)
from primework.expr import parse_function, parse_system
from primework.poly import (_bareiss_det, _fixed_divisor, _horner,
                            _product_coeffs, _sylvester, roots_mod)


def test_omega_twin_system():
    fs = parse_system("x; x+2")
    assert omega_p(fs, 2) == 1
    for p in (3, 5, 7, 11, 13):
        assert omega_p(fs, p) == 2


def test_omega_quadratic():
    # x^2+1 has two roots mod p = 1 (mod 4), none mod p = 3 (mod 4)
    fs = (parse_function("x^2+1"),)
    assert omega_p(fs, 2) == 1
    for p in (5, 13, 17, 29):
        assert omega_p(fs, p) == 2
    for p in (3, 7, 11, 19, 23):
        assert omega_p(fs, p) == 0


def test_omega_matches_literal_count():
    from primework.expr import evaluate_mod
    fs = parse_system("x; x+2")
    g = parse_function("x^2+1")
    for p in sieve_primes(50):
        # x = 1..p runs over every residue class mod p
        lit = sum(1 for x in range(1, p + 1)
                  if any(evaluate_mod(f, (x,), p) == 0 for f in fs))
        assert omega_p(fs, p) == lit
        lit_g = sum(1 for x in range(1, p + 1)
                    if evaluate_mod(g, (x,), p) == 0)
        assert omega_p((g,), p) == lit_g


def test_omega_large_prime_gcd_route():
    # beyond the literal-scan cutoff the root count comes from
    # gcd(x^p - x, g) degree; cross-check one prime both ways
    from primework.expr import evaluate_mod
    g = (parse_function("x^2+1"),)
    p = 2003  # 2003 = 3 (mod 4): no roots
    assert omega_p(g, p) == 0
    p = 2017  # 1 (mod 4): two roots
    assert omega_p(g, p) == 2


def test_bateman_horn_twin_constant():
    bh = bateman_horn_constant(parse_system("x; x+2"), 10**5)
    assert bh.obstruction is None
    assert abs(bh.value - 1.3203246909334732) < 1e-9
    assert bh.relative_change < 1e-2


def test_bateman_horn_obstruction():
    bh = bateman_horn_constant(parse_system("x; x+1"), 10**4)
    assert bh.obstruction == 2
    assert bh.value == 0.0


def test_bateman_horn_rejects_nonpolynomial():
    with pytest.raises(NotUnivariatePolynomial):
        bateman_horn_constant((parse_function("2^x-1"),), 10**3)


def test_actual_twin_count():
    fs = parse_system("x; x+2")
    assert actual_count(fs, 10**4) == 205


def test_actual_count_brute_force():
    fs = parse_system("x; x+2")
    brute = sum(1 for n in range(1, 301)
                if is_prime(n) and is_prime(n + 2))
    assert actual_count(fs, 300) == brute


def test_predicted_close_to_actual_twins():
    fs = parse_system("x; x+2")
    pred = predicted_count(fs, 10**4, prime_cutoff=10**5)
    actual = actual_count(fs, 10**4)
    assert 0.85 < pred.sum_form / actual < 1.15


def test_dlvp_ratios():
    assert abs(dlvp_ratio(1, 4, 10**5) - 1.1013) < 5e-4
    assert abs(dlvp_ratio(3, 4, 10**5) - 1.1071) < 5e-4


def test_dlvp_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        dlvp_ratio(2, 4, 1000)


def test_least_prime_ap_mod_4():
    table = least_prime_ap(4)
    entries = dict(table.entries)
    assert entries == {1: 5, 3: 3}


def test_least_prime_ap_strict_start():
    cfg = DEFAULT_CONFIG.with_overrides(strict_positive_n=True)
    table = least_prime_ap(4, cfg)
    entries = dict(table.entries)
    # with n >= 1 the progression 3 mod 4 starts at 7
    assert entries == {1: 5, 3: 7}


def test_least_prime_ap_values_are_least():
    table = least_prime_ap(10)
    for l, p in table.entries:
        assert p % 10 == l and is_prime(p)
        q = l
        while q < p:
            assert not is_prime(q) or q % 10 != l or q == p
            q += 10


def _plain_least_primes(k, config):
    """(l, least prime) by one is_prime call per value, stopping at the
    first l with no prime up to config.horizon."""
    start = 1 if config.strict_positive_n else 0
    entries = []
    for l in range(1, k + 1):
        if math.gcd(l, k) != 1:
            continue
        least = next((v for v in range(l + k * start,
                                       l + k * config.horizon + 1, k)
                      if is_prime(v)), None)
        if least is None:
            break
        entries.append((l, least))
    return tuple(entries)


def test_least_prime_ap_matches_a_plain_walk():
    strict = DEFAULT_CONFIG.with_overrides(strict_positive_n=True)
    for k in range(2, 601):
        assert least_prime_ap(k).entries \
            == _plain_least_primes(k, DEFAULT_CONFIG), k
    for k in (2, 3, 30, 97, 210, 600):
        assert least_prime_ap(k, strict).entries \
            == _plain_least_primes(k, strict), k
    # some least primes lie past the table's reach of k ceil(ln k)^2
    table = least_prime_ap(4999)
    assert table.p_k == 411923 > 4999 * 9**2
    assert table.entries == _plain_least_primes(4999, DEFAULT_CONFIG)
    # a horizon inside the table, and one past it (n = 82 is needed),
    # end Unknown
    for horizon in (5, 40, 81):
        short = DEFAULT_CONFIG.with_overrides(horizon=horizon)
        table = least_prime_ap(4999, short)
        assert table.p_k is None
        assert table.entries == _plain_least_primes(4999, short), horizon
    # a table clipped by the memory cap tests the rest one by one, and a
    # cap of 0 leaves no table at all
    for cap in (1000, 0):
        small = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=cap)
        assert least_prime_ap(600, small) == least_prime_ap(600), cap


def test_ap_product_inequality():
    rep = ap_product_inequality(1, 2, 40)
    assert rep.c_star >= 0
    for n in range(rep.c_star + 1, 41):
        assert n not in rep.violations


def test_ap_horizon_exhaustion_is_reported():
    rep = ap_product_inequality(1, 2, 10**8)  # at once: 10^6 + 1 candidates
    assert (rep.violations, rep.c_star) == ((), None)
    short = DEFAULT_CONFIG.with_overrides(horizon=3)
    assert ap_product_inequality(1, 10, 2, short).c_star is None
    assert ap_product_inequality(1, 10, 1, short).c_star == 1  # 11 <= 31
    table = least_prime_ap(100, short)
    assert (table.p_k, table.empirical_exponent) == (None, None)
    assert table.entries[-1] == (19, 19)  # 21 + 100n is composite, n <= 3
    assert least_prime_ap(100).p_k == 487


def test_density_estimate_aggregate():
    est = density_estimate(parse_system("x; x+2"), 10**4, 10**4)
    assert est.obstruction is None
    assert est.actual == 205
    assert est.predicted_sum > 0
    assert len(est.omega_sample) == 25  # primes below 100
    assert est.degrees == (1, 1)


# --- the per-system root counter ------------------------------------------

# the systems of the benchmark's density workload
DENSITY_SYSTEMS = ("x; x+2", "x; x+2; x+6", "x; 2*x+1",
                   "x^2+1", "x^2+x+41", "x^3+2")


def _product_values(coeff_lists, limit):
    """The product of the members' values at x = 0..limit-1, each value
    by direct evaluation."""
    values = []
    for x in range(limit):
        prod = 1
        for cs in coeff_lists:
            acc = 0
            for c in reversed(cs):
                acc = acc * x + c
            prod *= acc
        values.append(prod)
    return values


def _brute_roots(values, p):
    """x in 0..p-1 where some member vanishes mod p: the prime p divides
    the product of the values there."""
    return sum(1 for v in values[:p] if v % p == 0)


def _kernel_systems():
    rng = random.Random(20261018)
    systems = [[univariate_coeffs(f) for f in parse_system(s)]
               for s in DENSITY_SYSTEMS]
    for deg in range(1, 8):
        cs = [rng.randint(-50, 50) for _ in range(deg)]
        cs.append(rng.choice([c for c in range(-9, 10) if c]))
        systems.append([cs])
    # zero at every residue mod a small prime although no coefficient is:
    # x^q - x mod q for q = 2, 3, 5, 7, x^7 - x next to a quadratic, and a
    # linear member 3x + 6 that is the zero polynomial mod 3
    for q in (2, 3, 5, 7):
        systems.append([[0, -1] + [0] * (q - 2) + [1]])
    systems.append([[0, -1, 0, 0, 0, 0, 0, 1], [2, 0, 3]])
    systems.append([[6, 3], [1, 1]])
    # members sharing a root only at primes dividing E (x^2+1 and 2x+1
    # at 5; x and x+6 at 2 and 3), E = 0 from a repeated factor, constant
    # members (6 kills 2 and 3) and negative discriminants
    for text in ("x^2+1; 2*x+1", "x; x+6", "x; x", "x^2+2*x+1",
                 "x^2+1; 6", "x; 7", "-3*x^2+x-5; x^2+3", "5*x^2+x+1; x",
                 "x^2-2; x^2+x+1; x^3-x-1"):
        systems.append([univariate_coeffs(f) for f in parse_system(text)])
    # binomials a*x^d + b*x^k, read in closed form at p not dividing E:
    # degrees 3 to 9 with k = 0 and 1, negative and non-unit leads, a
    # member zero mod 5, 7 | e with x^7 - 7 = x^7 mod 7, and one next to
    # a quadratic and a linear member
    for d in range(3, 10):
        for k in (0, 1):
            cs = [0] * (d + 1)
            cs[d] = rng.choice([-10, -6, -3, -2, -1, 1, 2, 4, 9])
            cs[k] = rng.choice([-1, 1]) * rng.randint(1, 500)
            systems.append([cs])
    for text in ("5*x^5+10", "x^7-7", "-x^4+x", "x^3+2; x^2+1; 2*x+1",
                 "x^6+1; x^3-x"):
        systems.append([univariate_coeffs(f) for f in parse_system(text)])
    # quadratics whose symbol is memoised mod |D|: p | D (x^2+5, D = -20;
    # 3x^2+5, p | lc too), and classes mod |D| that hold 2 next to odd
    # primes (D = -3, -7, 5, -163: 491 = 2 mod 163)
    for text in ("x^2+5", "3*x^2+5", "x^2+x+1", "x^2+x+2", "x^2+x-1",
                 "x^2+x+41; x", "x^2+x+1; x^2+x+2; 2*x+1"):
        systems.append([univariate_coeffs(f) for f in parse_system(text)])
    return systems


def test_root_counter_matches_brute_force_below_3000():
    primes = sieve_primes(3000)
    shuffled = primes[:]
    random.Random(3).shuffle(shuffled)
    for coeff_lists in _kernel_systems():
        values = _product_values(coeff_lists, primes[-1])
        brute = [_brute_roots(values, p) for p in primes]
        assert _root_counter(coeff_lists)(primes) == brute, coeff_lists
        # the memo does not depend on the order the primes come in
        by_prime = dict(zip(primes, brute))
        assert _root_counter(coeff_lists)(shuffled) \
            == [by_prime[p] for p in shuffled], coeff_lists
        # the obstruction is read off the fixed divisor, not the counts
        assert _System(coeff_lists).obstruction(primes) == next(
            (p for p, w in zip(primes, brute) if w == p), None), coeff_lists


def test_memoised_symbol_matches_euler_criterion():
    # x^2 + b x + c with D = b^2 - 4c: omega(p) = 1 + (D/p) at odd p not
    # dividing D, the symbol read from a memo keyed by p mod |D|
    rng = random.Random(41)
    primes = sieve_primes(10**5)
    ds = [-4, -3, 5, -163, 8, 12, 1]
    ds += [rng.choice([-1, 1]) * rng.randint(2, 10**k) for k in (2, 3, 4, 6)
           for _ in range(3)]
    for d in ds:
        d = 4 * d + (d % 2) if d % 4 in (2, 3) else d  # 0 or 1 mod 4
        b = d % 4
        omegas = _root_counter([[(b - d) // 4, b, 1]])(primes)
        for p, w in zip(primes, omegas):
            if p % 2 and d % p:
                euler = pow(d, (p - 1) // 2, p)
                assert w == (2 if euler == 1 else 0), (d, p)


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(n))
    return total


def _resultant(a, b):
    return _bareiss_det(_sylvester(a, b))


def test_resultant_matches_a_brute_force_determinant():
    rng = random.Random(7)
    for _ in range(60):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        a.append(rng.choice([c for c in range(-5, 6) if c]))
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        b.append(rng.choice([c for c in range(-5, 6) if c]))
        if rng.random() < 0.25:  # zero pivots: sparse coefficients
            a = [c if rng.random() < 0.5 else 0 for c in a[:-1]] + a[-1:]
        assert _resultant(a, b) == _leibniz_det(_sylvester(a, b)), (a, b)
    # Res(P, P') = -a * (b^2 - 4ac) for P = ax^2 + bx + c, and it
    # vanishes exactly on a repeated root
    for c, b, a in ((1, 0, 1), (41, 1, 1), (5, -1, 3), (1, 2, 1), (0, 0, 7)):
        assert _resultant([c, b, a], [b, 2 * a]) == -a * (b * b - 4 * a * c)


def test_omega_p_keeps_its_argument_checks():
    fs = parse_system("x; x+2")
    for composite in (1, 4, 2001, 3 * 7919):
        with pytest.raises(ValueError):
            omega_p(fs, composite)
    with pytest.raises(InvalidArgument):
        omega_p(fs, 4)
    with pytest.raises(NotUnivariatePolynomial):
        omega_p((parse_function("x"), parse_function("2^x+1")), 5)
    with pytest.raises(NotUnivariatePolynomial):
        omega_p((parse_function("x*y+1"),), 5)


# repr of (value, relative_change) and the obstruction, as computed by
# the per-prime implementation that re-derived the system for every p
BH_REFERENCE = {
    ("x; x+2", 3000): ("1.3203725858508923", "0.0004556520697054419", None),
    ("x; x+2", 50000): ("1.320325876422801", "1.939033204595077e-05", None),
    ("x; x+2; x+6", 3000): ("2.8585665737567414", "0.0013693128228591312", None),
    ("x; x+2; x+6", 50000): ("2.85826317407464", "5.817650666488663e-05", None),
    ("x; 2*x+1", 3000): ("1.3203725858508923", "0.0004556520697054419", None),
    ("x; 2*x+1", 50000): ("1.320325876422801", "1.939033204595077e-05", None),
    ("x^2+1", 3000): ("1.3696764995205717", "0.0056225493165151024", None),
    ("x^2+1", 50000): ("1.3725854219937257", "0.0013409419768068223", None),
    ("x^2+x+41", 3000): ("6.654174661091309", "0.0022219116109346397", None),
    ("x^2+x+41", 50000): ("6.644010952841978", "0.0032742476270312642", None),
    ("x^3+2", 3000): ("1.2932577272734456", "0.01244098069904263", None),
    ("x^3+2", 50000): ("1.2972889210255552", "0.00010295666436960734", None),
    ("x; x+1", 3000): ("0.0", "0.0", 2),
    ("x^3-x+3", 3000): ("0.0", "0.0", 3),
    ("x^2+3*x+5; 3*x^2+5", 50000): ("2.4344452025353385",
                                    "0.0017666583729032766", None),
    ("7*x^5+3*x+1", 50000): ("2.303399027639946",
                             "0.00026928265247491896", None),
}


def test_bateman_horn_constants_bit_for_bit():
    for (text, cutoff), (value, rel, obstruction) in BH_REFERENCE.items():
        bh = bateman_horn_constant(parse_system(text), cutoff)
        assert (repr(bh.value), repr(bh.relative_change), bh.obstruction) \
            == (value, rel, obstruction), (text, cutoff)


def test_density_estimate_reuses_one_constant():
    fs = parse_system("x^2+1")
    est = density_estimate(fs, 3000, 500)
    pred = predicted_count(fs, 500, prime_cutoff=3000)
    assert repr(est.constant) == BH_REFERENCE[("x^2+1", 3000)][0]
    assert (est.predicted_sum, est.predicted_closed) \
        == (pred.sum_form, pred.closed_form)
    assert est.omega_sample == tuple((p, omega_p(fs, p))
                                     for p in sieve_primes(100))


def test_density_estimate_refuses_m_below_2_before_any_work(monkeypatch):
    # with or without a fixed prime divisor, and before the sieve
    from primework import density

    def untouched(*args):
        raise AssertionError("sieved before m was checked")
    monkeypatch.setattr(density, "sieve_primes", untouched)
    for text in ("x; x+1", "x^2+1", "x; x+2"):
        for m in (1, 0, -4):
            with pytest.raises(InvalidArgument, match="m must be at least 2"):
                density_estimate(parse_system(text), 1000, m)
    # a constant member is still named first
    with pytest.raises(NotUnivariatePolynomial):
        density_estimate(parse_system("x; 7"), 1000, 1)


def test_actual_count_raises_on_over_budget_values():
    fs = parse_system("2^x+1")
    assert actual_count(fs, 40) == 5  # 3, 5, 17, 257, 65537
    # 2^16 needs 17 bits: n = 16 has no value to test, not a composite one
    tight = DEFAULT_CONFIG.with_overrides(bit_budget=16)
    with pytest.raises(EvaluationBudgetExceeded):
        actual_count(fs, 40, tight)


# --- the root sieve of actual_count ----------------------------------------

def _plain_counts(fs, limit):
    """counts[m] = #{1 <= n <= m : every f_i(n) is prime}, one value at a
    time."""
    coeff_lists = [univariate_coeffs(f) for f in fs]
    counts = [0]
    for n in range(1, limit + 1):
        hit = all(is_prime(sum(c * n**i for i, c in enumerate(cs)))
                  for cs in coeff_lists)
        counts.append(counts[-1] + hit)
    return counts


def _sieve_systems():
    rng = random.Random(20261019)
    texts = list(DENSITY_SYSTEMS) + [
        "-x^2+60*x+7", "x; -2*x+3001",              # negative leads
        "x; 7", "x^2+1; 2", "x; 0", "5", "-7",        # constant and zero
        "x^2+x", "x^3-x+3", "6*x+3; x",               # fixed prime divisors
        "x^2-3*x+5", "2*x^2-x-1",                     # no monotone envelope
        "x; x^2+1", "x+1; x^2+x+1; x^3+2",            # mixed degrees
        "x^2+999983", "1000000*x+1", "x^3+1000000*x+999999",
    ]
    systems = [parse_system(t) for t in texts]
    for _ in range(8):
        members = []
        for _ in range(rng.randint(1, 2)):
            deg = rng.randint(1, 4)
            cs = [rng.randint(-10**6, 10**6) for _ in range(deg)]
            cs.append(rng.choice([c for c in range(-20, 21) if c]))
            members.append(" + ".join(f"({c})*x^{i}"
                                      for i, c in enumerate(cs)))
        systems.append(parse_system("; ".join(members)))
    return systems


def test_actual_count_matches_plain_count_to_2000():
    rng = random.Random(5)
    ms = list(range(0, 31)) + sorted(rng.sample(range(31, 2000), 16)) + [2000]
    for fs in _sieve_systems():
        counts = _plain_counts(fs, 2000)
        for m in ms:
            assert actual_count(fs, m) == counts[m], ([str(f) for f in fs], m)


def test_actual_count_with_constant_members_matches_plain_count():
    # a prime constant drops out, any other constant leaves no n
    rng = random.Random(20261019)
    constants = [0, 1, -7, 6, 7, 2, -2, 97, 1000003]
    polys = ["x", "x+2", "x^2+1", "2*x+1", "x^2-3*x+5", "x^3+2", "6*x+3"]
    texts = [str(c) for c in constants] + ["x; 0", "x; 1", "x; -7", "x; 6",
                                           "x; 7", "7; x+2; 7", "2; 3; 5"]
    for _ in range(30):
        members = rng.sample(polys, rng.randint(0, 2))
        members += [str(rng.choice(constants))
                    for _ in range(rng.randint(1, 2))]
        rng.shuffle(members)
        texts.append("; ".join(members))
    for text in texts:
        fs = parse_system(text)
        counts = _plain_counts(fs, 600)
        for m in (0, 1, 2, 17, 600):
            assert actual_count(fs, m) == counts[m], (text, m)
    assert actual_count(parse_system("x; 7"), 10**5) == 9592  # pi(10^5)


def test_actual_count_evaluates_only_below_the_fujiwara_bound(monkeypatch):
    # no monotone envelope: the Cauchy bound would evaluate all 10^5
    # points exactly, the Fujiwara bound about 2 sqrt(10^5) of them
    from primework import density
    limits = []
    real = density.iter_points

    def recording(k, limit):
        limits.append(limit)
        return real(k, limit)
    monkeypatch.setattr(density, "iter_points", recording)
    for text, count in (("x^2-3*x+5", 4900), ("2*x^2-x-1", 1)):
        assert actual_count(parse_system(text), 10**5) == count
    assert limits and max(limits) < 2 * math.isqrt(10**5) + 3


def test_actual_counts_at_1e5_are_pinned():
    # the counts of the value-by-value scan this sieve replaced
    expected = dict(zip(DENSITY_SYSTEMS, (1224, 259, 1171, 6656, 31984, 4059)))
    for text, count in expected.items():
        assert actual_count(parse_system(text), 10**5) == count, text


def test_dlvp_ratio_equals_the_prime_list_formula():
    rng = random.Random(11)
    for _ in range(40):
        b = rng.randint(1, 60)
        a = rng.choice([r for r in range(-b, 3 * b + 1) if math.gcd(r, b) == 1])
        x = rng.randint(2, 2 * 10**5)
        count = sum(1 for p in sieve_primes(x) if p % b == a % b)
        assert dlvp_ratio(a, b, x) == count * euler_phi(b) * math.log(x) / x


def test_dlvp_ratio_keeps_the_sieve_memory_guard():
    tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=10**5)
    with pytest.raises(MemoryBudgetExceeded):
        dlvp_ratio(1, 4, 10**6, tight)
    with pytest.raises(MemoryBudgetExceeded):
        sieve_primes(10**6, tight)
    with pytest.raises(MemoryBudgetExceeded):
        actual_count(parse_system("x^2+1"), 10**6, tight)


# --- the tables kept per system and per member ------------------------------

def _per_query_constant(fs, prime_cutoff):
    """The constant as it was computed before the terms were kept: the
    system analysed again and every term built again, on every call."""
    coeff_lists = [univariate_coeffs(f) for f in fs]
    omegas = _root_counter(coeff_lists)
    primes = sieve_primes(prime_cutoff)
    product = _product_coeffs(coeff_lists)
    fd = _fixed_divisor({(i,): c for i, c in enumerate(product) if c})
    obstruction = (None if fd == 1
                   else next((p for p in primes if fd % p == 0), None))
    if obstruction is not None:
        return BhConstant(0.0, prime_cutoff, 0.0, obstruction)
    s = len(coeff_lists)
    terms = [math.log1p(-w / p) - s * math.log1p(-1.0 / p)
             for p, w in zip(primes, omegas(primes))]
    value = math.exp(math.fsum(terms))
    snapshot_terms = bisect.bisect_right(primes, prime_cutoff // 10)
    if snapshot_terms and snapshot_terms < len(terms) and value:
        earlier = math.exp(math.fsum(terms[:snapshot_terms]))
        rel = abs(value - earlier) / value
    else:
        rel = 0.0
    return BhConstant(value, prime_cutoff, rel, None)


def _per_query_count(fs, m, config=DEFAULT_CONFIG):
    """actual_count as it was before the roots were kept: roots_mod for
    every member and every prime p <= B, on every call."""
    from primework import density
    if m < 1:
        return 0
    members = []
    for f in fs:
        cs = _analysis(f).coeffs
        if (cs is not None and len(cs) == 1
                and cs[0].bit_length() <= config.bit_budget):
            if not is_prime(cs[0], config):
                return 0
        else:
            members.append((f, cs))
    if not members:
        return m
    fs = [f for f, _ in members]
    coeff_lists = [cs for _, cs in members]
    top = None
    if all(cs is not None for cs in coeff_lists):
        top = max(sum(abs(c) * m**i for i, c in enumerate(cs))
                  for cs in coeff_lists)
    if top is None or top.bit_length() > config.bit_budget:
        bound, table, start, above = 1, 1, m + 1, False
    else:
        degree = max(len(cs) for cs in coeff_lists) - 1
        cap = m if degree <= 2 else 10 * math.isqrt(m)
        bound = max(1, min(math.isqrt(top), cap))
        table = top if top <= density._FLAGS_CEILING else bound
        start, above = 1, True
        for f in fs:
            env = envelope_outside_bound(f, bound + 1, config)
            if env is None:
                start = m + 1
                continue
            start, above = max(start, env[0]), above and env[1]
    flags = prime_flags(table, config)

    def prime(n):
        return flags[n] if n < len(flags) else is_prime(n, config)
    count = sum(1 for n in range(1, min(start, m + 1))
                if all(_horner(cs, n) >= 2 and prime(_horner(cs, n))
                       for cs in coeff_lists))
    if not above or start > m:
        return count
    alive = bytearray([1]) * (m + 1)
    alive[:start] = bytes(start)
    for p in itertools.compress(range(bound + 1), flags):
        for cs in coeff_lists:
            for r in roots_mod(cs, p):
                first = start + (r - start) % p
                alive[first::p] = bytes(len(range(first, m + 1, p)))
    if (bound + 1) ** 2 > top:
        return count + alive.count(1)
    return count + sum(
        1 for n in itertools.compress(range(m + 1), alive)
        if all(is_prime(_horner(cs, n), config) for cs in coeff_lists))


def _per_query_estimate(fs, prime_cutoff, m):
    coeff_lists = [univariate_coeffs(f) for f in fs]
    bh = _per_query_constant(fs, prime_cutoff)
    small = sieve_primes(100)
    predicted = (0.0, 0.0)
    if bh.obstruction is None:
        pred = predicted_count(fs, m, prime_cutoff)
        predicted = (pred.sum_form, pred.closed_form)
    return DensityEstimate(
        tuple(str(f) for f in fs), tuple(len(cs) - 1 for cs in coeff_lists),
        prime_cutoff, bh.value, bh.relative_change, bh.obstruction,
        tuple(zip(small, _root_counter(coeff_lists)(small))), m, *predicted,
        _per_query_count(fs, m))


def _retained_systems():
    rng = random.Random(20261021)
    texts = []
    for _ in range(3):  # linear members
        texts.append("; ".join(f"{rng.randint(1, 12)}*x+({rng.randint(-20, 40)})"
                               for _ in range(rng.randint(1, 3))))
    for _ in range(3):  # quadratics, one next to a linear member
        texts.append(f"{rng.randint(1, 5)}*x^2+({rng.randint(-9, 9)})*x"
                     f"+{rng.randint(1, 60)}")
    texts[-1] += "; 2*x+1"
    for _ in range(3):  # binomials a*x^d + b*x^k
        d, k = rng.randint(3, 7), rng.randint(0, 1)
        texts.append(f"{rng.randint(1, 4)}*x^{d}+{rng.randint(1, 30)}*x^{k}")
    texts += ["7*x^5+3*x+1",   # no closed form: the gcd route
              "x^2+x; x+1",    # E = 0 (a repeated factor), obstructed at 2
              "x; x",          # E = 0 and no obstruction
              "x^3-x+3",       # obstructed at 3
              "6*x+3; x"]      # zero mod 3: every residue a root
    return texts


_CUTOFFS = (3000, 20000, 500, 20000, 7, 0, 3001, 12000, 50, 3000)
# x^3-x+3 at m = 2 sieves to B = 3, where every residue is a root
_LIMITS = (2000, 300, 6000, 1, 0, 6000, 17, 4000, 2, 2000)


def test_retained_tables_answer_as_the_per_query_path():
    # each system is parsed once and asked at cutoffs and limits that
    # rise, fall and repeat; a fresh parse with the per-query routines
    # above is the reference
    for text in _retained_systems():
        fs = parse_system(text)
        for cutoff, m in zip(_CUTOFFS, _LIMITS):
            fresh = parse_system(text)
            assert repr(bateman_horn_constant(fs, cutoff)) \
                == repr(_per_query_constant(fresh, cutoff)), (text, cutoff)
            assert actual_count(fs, m) == _per_query_count(fresh, m), \
                (text, m)
            coeff_lists = [univariate_coeffs(f) for f in fresh]
            for p in (2, 3, 5, 101, 7919):
                assert omega_p(fs, p) == _root_counter(coeff_lists)([p])[0]
            if m >= 2:
                assert repr(density_estimate(fs, cutoff, m)) \
                    == repr(_per_query_estimate(fresh, cutoff, m)), \
                    (text, cutoff, m)


def test_bh_reference_replayed_on_one_parse_per_system():
    by_system = {}
    for (text, cutoff), expected in BH_REFERENCE.items():
        by_system.setdefault(text, []).append((cutoff, expected))
    for text, cases in by_system.items():
        fs = parse_system(text)
        for cutoff, (value, rel, obstruction) in sorted(cases, reverse=True):
            bh = bateman_horn_constant(fs, cutoff)
            assert (repr(bh.value), repr(bh.relative_change),
                    bh.obstruction) == (value, rel, obstruction), \
                (text, cutoff)


def test_a_smaller_cutoff_computes_no_omega(monkeypatch):
    from primework import density
    built, asked = [], []

    def counting(coeff_lists):
        omegas = _root_counter(coeff_lists)
        built.append(coeff_lists)

        def wrapped(primes):
            asked.extend(primes)
            return omegas(primes)
        return wrapped
    monkeypatch.setattr(density, "_root_counter", counting)
    fs = parse_system("x; x+2")
    first = bateman_horn_constant(fs, 20000)
    assert asked == sieve_primes(20000)
    for cutoff in (20000, 3000, 2, 0):
        bateman_horn_constant(fs, cutoff)
    assert repr(bateman_horn_constant(fs, 20000)) == repr(first)
    assert len(asked) == len(sieve_primes(20000)) and len(built) == 1
    # past the kept prefix only the new primes are counted
    bateman_horn_constant(fs, 30000)
    assert asked == sieve_primes(30000)
    # density_estimate builds its counter once, and not again
    fs = parse_system("x^2+1")
    built.clear()
    density_estimate(fs, 3000, 500)
    density_estimate(fs, 2000, 400)
    omega_p(fs, 13)
    assert len(built) == 1


def test_kept_tables_never_get_round_the_memory_cap():
    # warmed under the default cap, every query still checks its own
    # tables against the caller's cap
    fs = parse_system("x^2+1")
    bateman_horn_constant(fs, 50000)
    actual_count(fs, 10**4)
    density_estimate(fs, 50000, 10**4)
    tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=10**4)
    for cutoff in (50000, 3000):
        with pytest.raises(MemoryBudgetExceeded):
            bateman_horn_constant(fs, cutoff, tight)
        with pytest.raises(MemoryBudgetExceeded):
            density_estimate(fs, cutoff, 100, tight)
    for m in (10**4, 2000):
        with pytest.raises(MemoryBudgetExceeded):
            actual_count(fs, m, tight)
    # and what fits the cap is still answered from the tables
    assert repr(bateman_horn_constant(fs, 100, tight)) \
        == repr(_per_query_constant(parse_system("x^2+1"), 100))
    assert actual_count(fs, 40, tight) == _plain_counts(fs, 40)[40]


def _kept_root_bytes(fs):
    return sum(8 * len(a.roots.roots) for a in map(_analysis, fs)
               if a.roots is not None)


def test_kept_roots_stay_within_the_cap_of_the_call_that_keeps_them():
    # x^2+1 to 10^4 sieves to B = 10^4 with flags to B: m + B + 2 bytes
    # are charged, and the kept roots may take only what the cap leaves
    m, need = 10**4, 2 * 10**4 + 2
    full = _plain_counts(parse_system("x^2+1"), m)
    # a member counted once keeps no root
    fs = parse_system("x^2+1")
    assert actual_count(fs, m) == full[m] and _kept_root_bytes(fs) == 0
    for spare in (0, 7, 8, 800, 4000):
        fs = parse_system("x^2+1")
        tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=need + spare)
        # a first count keeps nothing; the second keeps what fits
        for _ in range(2):
            assert actual_count(fs, m, tight) == full[m]
            assert _kept_root_bytes(fs) <= spare
        assert (_kept_root_bytes(fs) > 0) == (spare >= 8)
        # a later call under a larger cap grows the kept prefix
        assert actual_count(fs, m) == full[m]
        assert actual_count(fs, m, tight) == full[m]
    # the members of one system share what is left
    fs = parse_system("x; x+2; x+6")
    m = 2000
    need = m + (m + 6) + 2
    tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=need + 1000)
    for _ in range(2):
        assert actual_count(fs, m, tight) == _plain_counts(fs, m)[m]
    assert 0 < _kept_root_bytes(fs) <= 1000


def test_a_growth_cut_short_leaves_the_kept_roots_as_they_were(monkeypatch):
    from primework import density
    fs = parse_system("x^2+1")
    for _ in range(2):  # roots are kept from the second count on
        assert actual_count(fs, 500) == _plain_counts(fs, 500)[500]
    before = _analysis(fs[0]).roots
    assert len(before.roots) > 0
    kept = (before.limit, before.primes.tolist(), before.roots.tolist())

    def failing(cs, p):
        if p > 3000:
            raise KeyboardInterrupt
        return roots_mod(cs, p)
    monkeypatch.setattr(density, "roots_mod", failing)
    with pytest.raises(KeyboardInterrupt):
        actual_count(fs, 5000)
    after = _analysis(fs[0]).roots
    assert (after.limit, after.primes.tolist(), after.roots.tolist()) == kept
    monkeypatch.setattr(density, "roots_mod", roots_mod)
    assert actual_count(fs, 5000) == _plain_counts(fs, 5000)[5000]
    primes = _analysis(fs[0]).roots.primes
    assert list(primes) == sorted(primes)
