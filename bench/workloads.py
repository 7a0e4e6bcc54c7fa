"""Seeded input generators for the three benchmark workloads.

Every workload is an endless stream of blocks.  Block i of seed s is
drawn from its own random.Random(f"{name}:{s}:{i}"), so the worker can
generate blocks lazily (outside the timed calls) and the parent can
regenerate any block to check its answers.  Each block has a fixed
composition of query kinds and only the parameters vary, which keeps
the mix of a run identical whatever the seed and however many blocks
fit in the run.

This module never imports primework: the program under test sees only
the generated inputs.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from reference import (attained_values, eval_shape, first_point, poly_text,
                       prime_factors, values_gcd)

WORKLOADS = ("corpus-sweep", "cli-mixed", "density-sieve")

# Number of blocks a traced run replays; fixed so that per-layer counts
# repeat exactly for a seed.
TRACE_BLOCKS = {"corpus-sweep": 150, "cli-mixed": 8, "density-sieve": 4}


def _rng(name, seed, *tags):
    return random.Random(":".join([name, str(seed), *map(str, tags)]))


# --- corpus-sweep --------------------------------------------------------

# The acceptance corpus of test_07 starts from these five fixed-divisor
# polynomials and fills up to 50 with seeded random ones.
_CORPUS_FIXED = (("x^2+x", [0, 1, 1]), ("x^2+x+2", [2, 1, 1]),
                 ("3*x+3", [3, 3]), ("x^3-x", [0, -1, 0, 1]),
                 ("2*x+4", [4, 2]))
CORPUS_SIZE = 50
CORPUS_MAX_M = 10**4


def _corpus_draw(rng):
    """One polynomial, drawn exactly as test_07's _corpus_polys draws it:
    degree 1 to 3, lower coefficients in [-6, 6], a nonzero lead."""
    deg = rng.randint(1, 3)
    coeffs = [rng.randint(-6, 6) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-6, 7) if c != 0]))
    return coeffs


def corpus_stratum(coeffs):
    """(degree, "negative" for a negative lead else the fixed divisor,
    number of nonzero terms).  The stratum sets a query's cost: a fixed
    prime divisor p makes the E scan run a whole residue period whenever
    p | m, a negative lead closes every scan within a few points, and
    each term costs its share of every evaluation."""
    terms = sum(1 for c in coeffs if c)
    if coeffs[-1] < 0:
        return len(coeffs) - 1, "negative", terms
    return len(coeffs) - 1, f"fd{values_gcd(['poly', coeffs])}", terms


def _test07_strata():
    rng = random.Random(20260822)  # test_07's own seed
    return Counter(corpus_stratum(_corpus_draw(rng))
                   for _ in range(CORPUS_SIZE - len(_CORPUS_FIXED)))


# How many of test_07's own 45 random polynomials fall in each stratum.
# A seed's corpus has exactly these counts, so that its cost mix is the
# acceptance corpus's whatever the seed.
CORPUS_STRATA = _test07_strata()


def corpus_functions(seed):
    """[(text, coeffs)] of the 50 polynomials: the five fixed ones, then
    45 seeded draws made like test_07's, each kept when it fills an open
    slot of CORPUS_STRATA."""
    rng = _rng("corpus-sweep", seed)
    out = [(text, list(c)) for text, c in _CORPUS_FIXED]
    open_slots = Counter(CORPUS_STRATA)
    while len(out) < CORPUS_SIZE:
        coeffs = _corpus_draw(rng)
        stratum = corpus_stratum(coeffs)
        if open_slots[stratum]:
            open_slots[stratum] -= 1
            out.append((poly_text(coeffs), coeffs))
    return out


def corpus_block(seed, i):
    """Every function once, in random order, each with m in [2, 10^4].

    A function's m is even in every other block and odd in the blocks
    between, each uniform over its parity, so m is uniform over [2, 10^4]
    across two blocks.  The E scan of a function with fixed divisor 2
    runs a whole residue period exactly when m is even, and those scans
    are the slowest tenth of the queries; alternating the parity keeps
    that share the same in every run instead of leaving it to chance."""
    rng = _rng("corpus-sweep", seed, i)
    order = list(range(CORPUS_SIZE))
    rng.shuffle(order)
    half = CORPUS_MAX_M // 2
    return [[fi, 2 * rng.randint(1, half) if (fi + i) % 2
             else 2 * rng.randint(1, half - 1) + 1] for fi in order]


# --- density-sieve -------------------------------------------------------

DENSITY_SYSTEMS = ("x; x+2", "x; x+2; x+6", "x; 2*x+1",
                   "x^2+1", "x^2+x+41", "x^3+2")
DENSITY_COEFFS = (([0, 1], [2, 1]), ([0, 1], [2, 1], [6, 1]), ([0, 1], [1, 2]),
                  ([1, 0, 1],), ([41, 1, 1],), ([2, 0, 0, 1],))
# Prime cutoffs of the Bateman-Horn queries, by system.  The twin-prime
# constant is asked twice at the largest cutoff.  At the parent commit
# the other five cost about the same (~0.12 s) and the twin queries the
# most (~0.35 s), so the 15 queries of a block fall into separated
# latency clusters.  With whole blocks, the median lands in the middle
# of the 8th-cheapest query (count for x^2+x+41) and the 90th percentile
# inside the twin-prime cluster, never on a boundary between clusters.
_BH_CUTOFF = ((0, 200_000), (0, 200_000), (1, 50_000), (2, 60_000),
              (3, 25_000), (4, 18_000), (5, 18_000))
COUNT_LIMIT = 10_000


def density_block(seed, i):
    rng = _rng("density-sieve", seed, i)

    def jitter(n):
        return int(n * rng.uniform(0.95, 1.0))

    block = [["bh", si, jitter(cutoff)] for si, cutoff in _BH_CUTOFF]
    for si in range(len(DENSITY_SYSTEMS)):
        block.append(["count", si, jitter(COUNT_LIMIT)])
    block.append(["ap", rng.randint(1000, 5000)])
    b = rng.randint(3, 40)
    a = rng.choice([r for r in range(1, b) if math.gcd(r, b) == 1])
    block.append(["dlvp", a, b, jitter(10**6)])
    rng.shuffle(block)
    return block


# --- cli-mixed -----------------------------------------------------------

CLI_MAX_M = 10**6
# The horizon-limited tail: 9^x - c with c odd is always even.  Under sfm
# the modulus is a multiple of 6, so no residue period closes the scan;
# under conditions no two values are coprime, so the chain of condition
# A never grows.  Either way all 10^4 exact values are computed.
HEAVY_BASE = 9


def _poly(rng, lo, hi, positive_lead=False):
    deg = rng.randint(lo, hi)
    coeffs = [rng.randint(-6, 6) for _ in range(deg)]
    if positive_lead:
        coeffs.append(rng.randint(1, 6))
    else:
        coeffs.append(rng.choice([c for c in range(-6, 7) if c != 0]))
    return coeffs


def _free_poly(rng, lo, hi, positive_lead=False):
    """A polynomial with fixed divisor 1."""
    while True:
        coeffs = _poly(rng, lo, hi, positive_lead)
        if values_gcd(["poly", coeffs]) == 1:
            return coeffs


def _shape_text(shape):
    kind = shape[0]
    if kind == "poly":
        return poly_text(shape[1])
    if kind == "poly2":
        terms = []
        for i, j, c in shape[1]:
            factors = [str(c)] if c != 1 or (i == 0 and j == 0) else []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            terms.append("*".join(factors))
        return "+".join(terms)
    if kind == "exp":
        return f"{shape[1]}^x{shape[2]:+d}"
    if kind == "cexp":
        return f"{shape[1]}*2^x{shape[2]:+d}"
    if kind == "fermat":
        return "2^(2^x)+1"
    if kind == "floor":
        return f"floor(({poly_text(shape[1])})/{shape[2]})"
    if kind == "piecewise":
        return (f"piecewise(x <= {shape[1]}: {poly_text(shape[2])}, "
                f"else: {poly_text(shape[3])})")
    raise ValueError(kind)


def _random_shape(rng, kind):
    """A shape of the kind whose values share no prime: a fixed prime
    divisor blocks the pairwise-coprime chain of condition A, whose scan
    then runs to the horizon (the heavy kinds measure that on purpose)."""
    while True:
        shape = _draw_shape(rng, kind)
        # Fermat numbers are pairwise coprime; a 2-variable shape is only
        # checked through its witness
        if kind in ("poly2", "fermat") or values_gcd(shape) == 1:
            return shape


def _draw_shape(rng, kind):
    if kind == "poly":
        return ["poly", _poly(rng, 1, 5)]
    if kind == "poly2":
        mons = {(0, 0): rng.randint(1, 5), (1, 1): rng.randint(1, 5)}
        for i, j in rng.sample([(1, 0), (0, 1), (2, 0), (0, 2), (2, 1),
                                (1, 2), (3, 0), (0, 3)], 2):
            mons[(i, j)] = rng.randint(1, 5)
        return ["poly2", [[i, j, c] for (i, j), c in sorted(mons.items())]]
    if kind == "exp":
        return ["exp", rng.randint(2, 16), rng.choice([-1, 1]) * rng.randint(1, 999)]
    if kind == "cexp":
        return ["cexp", rng.randint(1, 99), rng.randint(-999, 999)]
    if kind == "fermat":
        return ["fermat"]
    if kind == "floor":
        return ["floor", _poly(rng, 1, 3, positive_lead=True), rng.randint(2, 12)]
    if kind == "piecewise":
        return ["piecewise", rng.randint(1, 5), _poly(rng, 1, 2, True),
                _poly(rng, 1, 2, True)]
    raise ValueError(kind)


# The generated sfm and conditions queries have a witness (every member
# value > 1, the product coprime to m) among the first WITNESS_WITHIN
# points, except those over a polynomial with a negative lead.
WITNESS_WITHIN = 200


def witness_accept(m):
    return lambda vals: all(v > 1 and math.gcd(v, m) == 1 for v in vals)


def _modulus_with_witness(rng, shapes):
    """A modulus for which the least witness is found within a few hundred
    points, so the scan ends early; the horizon-limited tail is the
    separate heavy kind.  A polynomial with negative lead takes any
    modulus: its values drop below 1, so every scan closes early."""
    if any(s[0] == "poly" and s[1][-1] < 0 for s in shapes):
        return rng.randint(2, CLI_MAX_M)
    while True:
        m = rng.randint(2, CLI_MAX_M)
        if first_point(shapes, witness_accept(m), WITNESS_WITHIN) is not None:
            return m


def _chain_closes(shape, m, tries=60):
    """Does the greedy pairwise-coprime chain of condition A reach
    omega(m) + 1 values within the first `tries` points?  Values can also
    cover each other forever (14^x - 11 is divisible by 3 or by 5 at
    every x), and then the chain scan runs to the horizon."""
    need = len(prime_factors(m)) + 1
    product = 1
    for x in range(1, tries + 1):
        v = eval_shape(shape, (x,))
        if v > 1 and math.gcd(v, product) == 1:
            product *= v
            need -= 1
            if need == 0:
                return True
    return False


def _system(rng):
    members = rng.randint(2, 3)
    out = []
    for _ in range(members):
        if rng.random() < 0.25:
            out.append(["poly", [rng.randint(1, 4), 0, 1]])
        else:
            out.append(["poly", [rng.randint(0, 12), rng.randint(1, 3)]])
    return out


def _fs_args(shapes):
    if len(shapes) > 1:
        return ["-s", "; ".join(_shape_text(s) for s in shapes)]
    text = _shape_text(shapes[0])
    # argparse reads a separate value starting with "-" as an option
    return [f"--function={text}"] if text.startswith("-") else ["-f", text]


def function_text(argv):
    """The -f / -s expression of a generated argv, or None."""
    for k, word in enumerate(argv):
        if word in ("-f", "-s"):
            return argv[k + 1]
        if word.startswith(("--function=", "--system=")):
            return word.partition("=")[2]
    return None


def _coprime_pair(rng, lo, hi):
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if math.gcd(a, b) == 1:
            return a, b


def _pi_limit(rng, shape):
    """A limit for which the shape has between 5 and 25 distinct values
    in (1, limit]; None when no limit tried qualifies.  The exact solver
    is a branch and bound whose time explodes past about 40 values (one
    50-value case takes 40 s), so larger sets are left out like the
    non-terminating towers."""
    for _ in range(50):
        # up to 10^5: the solver tabulates smallest prime factors up to
        # the limit, and a 10^6 table alone would add ~35 MB to the run
        limit = int(10 ** rng.uniform(2, 5))
        if 5 <= len(attained_values(shape, limit)) <= 25:
            return limit
    return None


def _factorial_case(rng, shapes):
    """l in [5, 12] with a witness among the first 200 points: values
    above 1, below l! and free of primes <= l.  None when no l tried has
    one."""
    for _ in range(20):
        l = rng.randint(5, 12)
        bound = math.factorial(l)
        ps = [p for p in (2, 3, 5, 7, 11) if p <= l]

        def accept(vals):
            return all(1 < v < bound and all(v % p for p in ps) for v in vals)
        if first_point(shapes, accept, 200) is not None:
            return l
    return None


def _cli_query(rng, cmd, kind):
    """(argv, shapes) for one query; shapes is [] when no function."""
    if cmd == "heavy":
        shape = ["exp", HEAVY_BASE, -rng.randrange(1, 100, 2)]
        if kind == "sfm":
            # condition E: no residue period since 3 | m, scan to horizon
            m = 6 * rng.randint(1, CLI_MAX_M // 6)
        else:
            # condition A: no two even values are coprime, scan to horizon
            m = rng.choice([k for k in range(1, 7) if math.gcd(k, 6) == 1])
            m += 6 * rng.randint(1, CLI_MAX_M // 6 - 1)
        return [kind, "-f", _shape_text(shape), "--modulus", str(m)], [shape]
    if cmd == "fermat":
        if kind == "limit":
            return ["fermat", "--limit", str(rng.randint(0, 11))], []
        return ["fermat", "--modulus", str(rng.randint(2, CLI_MAX_M))], []
    if cmd == "ap":
        if kind == "table":
            return ["ap", "--modulus", str(rng.randint(2, 400))], []
        b = rng.randint(2, 30)
        a = rng.choice([r for r in range(1, b + 1) if math.gcd(r, b) == 1])
        return ["ap", "--a", str(a), "--b", str(b),
                "--limit", str(rng.randint(1, 40))], []
    if cmd in ("sfm", "conditions"):
        while True:
            shapes = _system(rng) if kind == "system" else [_random_shape(rng, kind)]
            m = _modulus_with_witness(rng, shapes)
            # condition A is part of the single-function report only
            if cmd == "sfm" or len(shapes) > 1 or _chain_closes(shapes[0], m):
                return [cmd, *_fs_args(shapes), "--modulus", str(m)], shapes
    shapes = _system(rng) if kind == "system" else [_random_shape(rng, kind)]
    if cmd == "phi":
        if kind == "poly":
            shapes = [["poly", _free_poly(rng, 2, 4, True)]]
            hi = 10**4
        elif kind == "system":
            shapes = [["poly", [rng.randint(0, 12), rng.randint(1, 3)]]
                      for _ in range(2)]
            hi = 3000
        else:
            hi = {"poly2": 100, "exp": CLI_MAX_M}[kind]
        return ["phi", *_fs_args(shapes), "--modulus",
                str(rng.randint(2, hi))], shapes
    if cmd == "pi":
        while True:
            if kind == "poly":
                shapes = [["poly", _free_poly(rng, 2, 3, True)]]
            limit = _pi_limit(rng, shapes[0])
            if limit is not None:
                return ["pi", *_fs_args(shapes), "--limit", str(limit)], shapes
            shapes = [_random_shape(rng, kind)]
    if cmd == "crt-analogy":
        if kind == "poly":
            shapes = [["poly", _free_poly(rng, 1, 3)]]
        a, b = _coprime_pair(rng, 2, 60)
        return ["crt-analogy", *_fs_args(shapes), "--a", str(a),
                "--b", str(b)], shapes
    if cmd == "factorial":
        while True:
            if kind == "poly":
                shapes = [["poly", _free_poly(rng, 1, 3, True)]]
            else:
                shapes = [["poly", [0, 1]],
                          ["poly", [2 * rng.randint(1, 1000), 1]]]
            l = _factorial_case(rng, shapes)
            if l is not None:
                return ["factorial", *_fs_args(shapes), "--limit",
                        str(l)], shapes
    raise ValueError(cmd)


# (subcommand, shape kind, count per block of 100).  The single-function
# conditions reports (27 per block, ~0.8-1.6 ms each at the parent
# commit) are the scan-loop cluster that holds the 90th percentile; fewer
# than ten queries per block cost more (the two heavy ones, and the
# larger pi, phi and crt-analogy boxes).
CLI_MIX = (
    ("sfm", "poly", 9), ("sfm", "poly2", 4), ("sfm", "exp", 6),
    ("sfm", "cexp", 4), ("sfm", "fermat", 2), ("sfm", "floor", 2),
    ("sfm", "piecewise", 2), ("sfm", "system", 4), ("heavy", "sfm", 1),
    ("conditions", "poly", 13), ("conditions", "exp", 5),
    ("conditions", "cexp", 3), ("conditions", "fermat", 2),
    ("conditions", "floor", 2), ("conditions", "piecewise", 2),
    ("conditions", "system", 4), ("heavy", "conditions", 1),
    ("phi", "poly", 2), ("phi", "poly2", 2), ("phi", "exp", 2),
    ("phi", "system", 2),
    ("pi", "poly", 2), ("pi", "exp", 2),
    ("crt-analogy", "poly", 2), ("crt-analogy", "exp", 2),
    ("crt-analogy", "fermat", 2),
    ("factorial", "poly", 4), ("factorial", "system", 2),
    ("fermat", "limit", 2), ("fermat", "modulus", 3),
    ("ap", "table", 3), ("ap", "product", 2),
)
CLI_BLOCK = sum(n for _, _, n in CLI_MIX)


def cli_block(seed, i):
    """[[argv, shapes, kind_label]] for one block of CLI_BLOCK queries;
    half of them carry --json."""
    rng = _rng("cli-mixed", seed, i)
    out = []
    for cmd, kind, count in CLI_MIX:
        for _ in range(count):
            argv, shapes = _cli_query(rng, cmd, kind)
            out.append([argv, shapes, f"{cmd}/{kind}"])
    rng.shuffle(out)
    for k in rng.sample(range(len(out)), len(out) // 2):
        out[k][0] = out[k][0] + ["--json"]
    return out


def block(name, seed, i):
    if name == "corpus-sweep":
        return corpus_block(seed, i)
    if name == "cli-mixed":
        return cli_block(seed, i)
    if name == "density-sieve":
        return density_block(seed, i)
    raise ValueError(name)
