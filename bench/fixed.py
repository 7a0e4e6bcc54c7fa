"""Fixed CLI queries run once per cli-mixed run, after the timed loop.

README holds every example of the README's command-line section with
the output it documents; "..." stands for lines the README leaves out.
PROBES holds inputs with known defects: the roadmap's items 4a and 4b
(a traceback instead of an exit code) and `fermat --x-min 0`, whose 0 is
dropped.  The benchmark reports which of them still show the defect;
none of them counts as a failed query.
"""

README = (
    (["sfm", "-f", "2^x-1", "--modulus", "82677"],
     ["least witness: x=11  values: 2047 (composite)"]),
    (["conditions", "-f", "x^3+1", "--modulus", "90"],
     ["A: holds",
      "B: holds  x=6 value=217",
      "C: holds  x=1 value=2",
      "D: holds  x=2 value=9",
      "E: holds  x=6 value=217",
      "F: holds  x=1 value=2",
      "G: holds  x=2 value=9",
      "coprime sequence: [2, 9, 65, 217]"]),
    (["crt-analogy", "-f", "x^3+1", "--a", "9", "--b", "10"],
     ["status: FailsToLift",
      "witness mod 9: x=1 value=2",
      "witness mod 10: x=2 value=9",
      "witness mod 90: none"]),
    (["phi", "-s", "x; x+2", "--modulus", "15"],
     ["count: 2  (box 12, exact)"]),
    (["pi", "-f", "x", "--limit", "50"],
     ["count: 15  (method exact)",
      "subset: [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]"]),
    (["fermat", "--limit", "6"],
     ["x=0  Prime      known factors: -",
      "...",
      "x=5  Composite  known factors: 641 * 6700417",
      "x=6  Composite  known factors: 274177 * 67280421310721"]),
    (["fermat", "--modulus", "51"],
     ["least term in Z_51*: 5"]),
    (["density", "-s", "x; x+2", "--limit", "10000"],
     ["constant: 1.320325  (cutoff 100000)",
      "predicted: 215.9  actual: 205"]),
    (["ap", "--modulus", "4"],
     ["modulus 4:",
      "  l=1  least prime: 5",
      "  l=3  least prime: 3",
      "growth exponent estimate: 1.161"]),
    (["factorial", "-s", "x; x+180", "--limit", "6"],
     ["least witness: x=7  values: [7, 187]",
      "all prime: False  least value prime: True"]),
    (["verify-paper"],
     ["ok   mersenne_2047_composite",
      "...",
      "ok   condition_b_cubic_shift_mod_90",
      "35/35 checks passed"]),
)


def _escapes(rc, out):
    return rc not in (0, 1, 2)


# (argv, defect, test that the defect is still present)
PROBES = (
    (["sfm", "-f", "x", "--modulus", "1"], "4a", _escapes),
    (["conditions", "-f", "x", "--modulus", "1"], "4a", _escapes),
    (["phi", "-f", "x", "--modulus", "1"], "4a", _escapes),
    (["factorial", "-f", "x", "--limit", "1"], "4a", _escapes),
    (["ap", "--a", "1", "--b", "2", "--limit", "100000000"], "4b", _escapes),
    # --x-min 0 admits F(0) = 3, the least Fermat number in Z_10^*; the
    # fermat handler passes `args.x_min or 1`, which turns 0 into 1.
    (["fermat", "--modulus", "10", "--x-min", "0"], "x-min",
     lambda rc, out: out != "least term in Z_10*: 3\n"),
)


def matches_documented(text, expected):
    """Does the output show the documented lines in order, with "..."
    standing for any run of lines (possibly none)?"""
    lines = text.rstrip("\n").split("\n")
    pos = 0
    skipping = False
    for want in expected:
        if want == "...":
            skipping = True
            continue
        if skipping:
            while pos < len(lines) and lines[pos] != want:
                pos += 1
        if pos >= len(lines) or lines[pos] != want:
            return False
        pos += 1
        skipping = False
    return skipping or pos == len(lines)
