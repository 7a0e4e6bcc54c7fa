"""Integer helpers: primality, factoring, CRT, totients, orders."""

import math
import random

import pytest

from primework import arith
from primework.arith import (PrimalityResult, crt_solve, euler_phi,
                             euler_phi_range, factorize, factor_with_table,
                             is_prime, least_coprime_exceeding_one,
                             multiplicative_order, primality, sieve_primes,
                             smallest_factor_table)
from primework.config import DEFAULT_CONFIG
from primework.counting import _supports
from primework.errors import MemoryBudgetExceeded, NotCoprime


def _trial_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_table():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_is_prime_matches_trial_division():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(2, 10**6)
        assert is_prime(n) == _trial_prime(n), n


def test_is_prime_reference_values():
    assert not is_prime(2047)  # 23 * 89
    assert is_prime(6700417)
    assert is_prime(67280421310721)
    assert not is_prime(4294967297)


def test_factorize_reference():
    assert sorted(factorize(4294967297).factors) == [(641, 1), (6700417, 1)]
    assert sorted(factorize(2047).factors) == [(23, 1), (89, 1)]
    assert list(factorize(8).factors) == [(2, 3)]


def test_factorize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_sieve_matches_is_prime():
    primes = sieve_primes(2000)
    assert list(primes) == [n for n in range(2, 2001) if is_prime(n)]


def test_smallest_factor_table():
    spf = smallest_factor_table(1000)
    for n in range(2, 1001):
        assert n % spf[n] == 0
        assert is_prime(spf[n])
        parts = factor_with_table(n, spf)
        prod = 1
        for p, e in parts:
            prod *= p**e
        assert prod == n


def test_euler_phi_brute_force():
    for n in range(1, 400):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute


def test_euler_phi_range_consistent():
    table = euler_phi_range(500)
    for n in range(1, 501):
        assert table[n] == euler_phi(n)


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 11) == 10
    assert multiplicative_order(2, 2047) == 11
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randrange(3, 5000) | 1
        d = multiplicative_order(2, m)
        assert pow(2, d, m) == 1
        # minimality: no proper divisor of d works
        for q in range(1, d):
            if d % q == 0 and q < d:
                assert pow(2, q, m) != 1 or q == d


def test_multiplicative_order_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 6)


def test_crt_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(200):
        m1 = rng.randrange(2, 500)
        m2 = rng.randrange(2, 500)
        if math.gcd(m1, m2) != 1:
            continue
        a1, a2 = rng.randrange(m1), rng.randrange(m2)
        x, mod = crt_solve([(a1, m1), (a2, m2)])
        assert x % m1 == a1 and x % m2 == a2
        assert mod == m1 * m2 and 0 <= x < mod


def test_least_coprime_exceeding_one():
    # for m > 2 the least element of Z_m^* above 1 is the least prime
    # not dividing m
    for m in range(3, 500):
        a = least_coprime_exceeding_one(m)
        assert a > 1 and math.gcd(a, m) == 1
        for b in range(2, a):
            assert math.gcd(b, m) != 1
        assert is_prime(a)


def test_least_coprime_of_primorial():
    # 2*3*5*7 = 210 forces the answer up to 11
    assert least_coprime_exceeding_one(210) == 11
    assert least_coprime_exceeding_one(2 * 3 * 5 * 7 * 11 * 13) == 17


# --- Miller-Rabin with the least proven witness prefix --------------------

# psi_k: the least strong pseudoprime to the first k prime bases (A014233)
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
       5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
       8: 341550071728321, 9: 3825123056546413051,
       10: 3825123056546413051, 11: 3825123056546413051,
       12: 318665857834031151167461, 13: 3317044064679887385961981}
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _all_rounds(n):
    """Every one of the 13 rounds, no shortcut: exact below psi_13."""
    if n < 2:
        return False
    if n in BASES:
        return True
    if any(n % a == 0 for a in BASES):
        return False
    return all(_strong_probable_prime(n, a) for a in BASES)


def _plain_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = 0
    return flags


def test_primality_matches_a_plain_sieve_below_two_million():
    flags = _plain_sieve(2 * 10**6 - 1)
    wrong = [n for n in range(2 * 10**6) if primality(n).prime != flags[n]]
    assert wrong == []


def test_psi_table_entries_are_strong_pseudoprimes():
    for k, psi in PSI.items():
        assert all(_strong_probable_prime(psi, a) for a in BASES[:k]), k
        # a composite verdict is always proven: it names a witness
        assert primality(psi) == PrimalityResult(psi, False, True), k


def test_primality_around_each_psi():
    for psi in sorted(set(PSI.values())):
        for n in (psi - 2, psi, psi + 2):
            res = primality(n)
            if n < PSI[13]:
                assert res.deterministic and res.prime == _all_rounds(n), n
            else:  # seeded extra rounds may expose what 13 bases pass
                assert not res.prime or (_all_rounds(n)
                                         and not res.deterministic), n


def test_primality_on_seeded_wide_odd_numbers():
    rng = random.Random(20261018)
    for bits in (64, 96, 128):
        for _ in range(300):
            n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            assert primality(n).prime == _all_rounds(n), n
        for _ in range(30):
            n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            while not _all_rounds(n):
                n += 2
            res = primality(n)
            assert res.prime and res.deterministic == (n < PSI[13]), n


def test_psi12_is_composite():
    psi12 = 399_165_290_221 * 798_330_580_441
    assert psi12 == PSI[12]
    assert primality(psi12) == PrimalityResult(psi12, False, True)
    fac = factorize(psi12)
    assert fac.factors == ((399_165_290_221, 1), (798_330_580_441, 1))
    assert fac.complete


def _comprehension_sieve(limit):
    """The list-comprehension sieve the segmented one must match."""
    if limit < 2:
        return []
    flags = _plain_sieve(limit)
    return [i for i in range(limit + 1) if flags[i]]


def test_sieve_matches_the_comprehension():
    for limit in range(-1, 3000):
        assert sieve_primes(limit) == _comprehension_sieve(limit), limit
    flags = _plain_sieve(4 * 2**20 + 1)
    for limit in (4 * 2**20 - 1, 4 * 2**20, 4 * 2**20 + 1):
        assert sieve_primes(limit) == [i for i in range(limit + 1)
                                       if flags[i]], limit


# --- the retained prime table ----------------------------------------------

@pytest.fixture
def empty_table(monkeypatch):
    """Empties the retained prime table now, and again at each call."""
    def empty():
        monkeypatch.setattr(arith, "_prime_table", memoryview(b"").cast("i"))
        monkeypatch.setattr(arith, "_table_limit", 1)
    empty()
    return empty


def test_prime_table_answers_do_not_depend_on_call_order(empty_table):
    rng = random.Random(15)
    limits = sorted(rng.sample(range(-2, 60_000), 40)) + [0, 1, 2, 3, 60_000]
    expected = {n: _comprehension_sieve(n) for n in limits}
    interleaved = sorted(limits)
    interleaved[::2] = reversed(interleaved[::2])
    for order in (sorted(limits), sorted(limits, reverse=True), interleaved):
        empty_table()
        for n in order:
            assert sieve_primes(n) == expected[n], n
    # past the ceiling the segmented sieve runs and the table stays put
    top = arith._TABLE_CEILING
    size = len(arith._prime_table)
    assert sieve_primes(top + 5)[-3:] == _comprehension_sieve(top + 5)[-3:]
    assert len(arith._prime_table) == size


def test_prime_table_hands_out_fresh_lists(empty_table):
    first = sieve_primes(1000)
    first[0] = 4
    first.append(1001)
    del first[5:10]
    assert sieve_primes(1000) == _comprehension_sieve(1000)
    assert sieve_primes(500) == _comprehension_sieve(500)
    assert sieve_primes(1000) is not sieve_primes(1000)


def test_prime_table_keeps_the_memory_check(empty_table):
    assert len(sieve_primes(10**6)) == 78498  # the table now covers 10^6
    tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=10**5)
    for limit in (10**6, 5 * 10**5):
        with pytest.raises(MemoryBudgetExceeded):
            sieve_primes(limit, tight)
    assert len(sieve_primes(1000, tight)) == 168


# --- the factor and totient tables -----------------------------------------

def _list_spf(limit):
    """The list-of-ints smallest-factor table the array one replaced."""
    spf = list(range(limit + 1))
    if limit >= 1:
        spf[1] = 0
    if limit >= 0:
        spf[0] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:  # i is prime
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _double_loop_phi(limit):
    """The double-loop totient sieve the one-pass one replaced."""
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    if limit >= 1:
        phi[1] = 1
    return phi


def test_factor_tables_equal_the_list_builders():
    for limit in [*range(2000), 10**5]:
        spf = smallest_factor_table(limit)
        phi = euler_phi_range(limit)
        assert (spf.typecode, phi.typecode) == ("I", "I")
        assert spf.tolist() == _list_spf(limit), limit
        assert phi.tolist() == _double_loop_phi(limit), limit


def test_every_table_builder_keeps_the_memory_check():
    tight = DEFAULT_CONFIG.with_overrides(sieve_memory_cap=10**4)
    # each table's own byte count: 1, 4 and 8 bytes per n
    assert len(arith.prime_flags(9999, tight)) == 10**4
    assert len(smallest_factor_table(2499, tight)) == 2500
    assert len(euler_phi_range(1249, tight)) == 1250
    for build, limit in ((arith.prime_flags, 10**4),
                         (smallest_factor_table, 2500),
                         (euler_phi_range, 1250)):
        with pytest.raises(MemoryBudgetExceeded, match=f"to {limit} needs"):
            build(limit, tight)


def test_supports_equal_the_factor_table_supports():
    rng = random.Random(16)
    spf = _list_spf(10**5)
    values = [*range(2, 200), *rng.sample(range(200, 10**5 + 1), 800), 10**5]
    supports = _supports(values, DEFAULT_CONFIG)
    assert list(supports) == values
    for v in values:
        assert supports[v] == {p for p, _ in factor_with_table(v, spf)}, v
