"""Seeded input generators, in the benchmark's own number types.

Gaussian rationals are pairs ``(re, im)`` of ``fractions.Fraction`` and
matrices are lists of rows of ``Fraction``.  Nothing here imports
thetakit: the program receives only what these functions generate,
converted at the call site.  The same seed gives the same inputs.

Every workload is a sequence of rounds.  A round is a fixed list of
operation shapes (operator order n, tuple length p, subcommand) whose
values are drawn from the seeded stream, so every run covers the same
mix whatever the seed and however many rounds it completes.
"""

import random
from fractions import Fraction

NONZERO_IMAG = (-4, -3, -2, -1, 1, 2, 3, 4)


def workload_rng(seed: int, workload: str) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def gaussian(rng, complex_share=0.3):
    """A Gaussian rational; about complex_share of them are non-real."""
    re = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
    im = Fraction(0)
    if rng.random() < complex_share:
        im = Fraction(rng.choice(NONZERO_IMAG), rng.randrange(1, 4))
    return (re, im)


def real(value) -> tuple:
    return (Fraction(value), Fraction(0))


def is_integer(x) -> bool:
    return x[1] == 0 and x[0].denominator == 1


def sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1])


def has_integer_difference(alpha, beta) -> bool:
    return any(is_integer(sub(a, b)) for a in alpha for b in beta)


# -- contiguity ---------------------------------------------------------------

CONTIGUITY_ORDERS = (2, 3, 4, 5)


def gaussian_list(rng, size, complex_share=0.3):
    """size Gaussian rationals of which round(complex_share * size) are
    non-real, at seeded places.  A fixed count keeps the cost of each op
    shape the same from round to round; only the values change."""
    places = set(rng.sample(range(size), round(complex_share * size)))
    return [gaussian(rng, 1.0 if k in places else 0.0) for k in range(size)]


def contiguity_round(rng):
    """One parameter set per order n = 2..5, each with the five extras.

    Returns a list of (alpha, beta, extras) with extras keyed by the
    contiguity kind, in the order verify-identities draws them.  30 % of
    the 2n parameters are non-real; the left_append extra is real and
    the right_append extra is not; the power shift is nonzero, since
    z^0 would make that identity trivial.
    """
    out = []
    for n in CONTIGUITY_ORDERS:
        entries = gaussian_list(rng, 2 * n)
        extras = {
            "left_append": gaussian(rng, 0.0),
            "right_append": gaussian(rng, 1.0),
            "alpha_lower": rng.randrange(0, n),
            "beta_raise": rng.randrange(0, n),
            "power_shift": rng.choice((-3, -2, -1, 1, 2, 3)),
        }
        out.append((entries[:n], entries[n:], extras))
    return out


# -- Levelt tuples --------------------------------------------------------------


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def companion(spectrum):
    """Companion of prod (X - v): ones below the diagonal, last column -a_i."""
    coeffs = [Fraction(1)]  # ascending, monic
    for v in spectrum:
        shifted = [Fraction(0)] + coeffs
        scaled = [-Fraction(v) * c for c in coeffs] + [Fraction(0)]
        coeffs = [x + y for x, y in zip(shifted, scaled)]
    n = len(spectrum)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = -coeffs[i]
    return m


def spectra(rng, p, n, planted, span=40):
    """p integer spectra of n distinct nonzero values each.

    Unplanted: no value lies in every spectrum.  Planted: exactly one
    value lies in every spectrum, which the normal form must refuse.
    No two spectra are equal: two equal members have the identity as
    their ratio, which is no pseudo-reflection.
    """
    while True:
        out = [rng.sample(range(1, span), n) for _ in range(p)]
        if planted:
            shared = rng.randrange(1, span)
            out = [s if shared in s else s[:-1] + [shared] for s in out]
        common = set(out[0]).intersection(*out[1:])
        distinct = len({frozenset(s) for s in out}) == p
        if distinct and len(common) == (1 if planted else 0):
            return [sorted(s) for s in out]


def conjugator(rng, n):
    """(g, g^-1) for a product of 3n integer elementary row operations."""
    g, g_inv = identity(n), identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.choice((-2, -1, 1, 2))
        if i == j:
            continue
        # g <- E(i, j, c) g ;  g^-1 <- g^-1 E(i, j, -c)
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g_inv:
            row[j] -= c * row[i]
    return g, g_inv


def levelt_tuple(rng, n, p, planted):
    """(spectra, members): companions of the spectra conjugated by one g."""
    specs = spectra(rng, p, n, planted)
    g, g_inv = conjugator(rng, n)
    if matmul(g, g_inv) != identity(n):
        raise AssertionError("elementary conjugator inverse is wrong")
    members = [matmul(matmul(g, companion(s)), g_inv) for s in specs]
    return specs, members


# (n, p, planted) per operation: every n = 2..6 with every p = 2..4, one
# of them with a planted shared eigenvalue, and (6, 3) once more.  The
# round's 90th percentile (the 15th of 16 ops) falls on (6, 3), which so
# gets two samples a round.
NORMAL_FORM_SHAPES = tuple(
    (n, p, (n, p) == (6, 2)) for n in range(2, 7) for p in range(2, 5)
) + ((6, 3, False),)


def normal_form_round(rng):
    return [
        (n, p, planted) + levelt_tuple(rng, n, p, planted)
        for n, p, planted in NORMAL_FORM_SHAPES
    ]


# -- cli -------------------------------------------------------------------------


def real_params(rng, n, den=12, span=48):
    """Real-rational (alpha, beta) with no alpha_i - beta_j an integer."""
    while True:
        alpha = [real(Fraction(rng.randrange(0, span), rng.randrange(1, den + 1))) for _ in range(n)]
        beta = [real(Fraction(rng.randrange(0, span), rng.randrange(1, den + 1))) for _ in range(n)]
        if not has_integer_difference(alpha, beta):
            return alpha, beta


def reducible_params(rng, n):
    """Gaussian (alpha, beta) with alpha_i - beta_j a nonnegative integer.

    A nonnegative gap is what the factorization certificate peels off.
    """
    alpha = [gaussian(rng) for _ in range(n)]
    beta = [gaussian(rng) for _ in range(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    gap = rng.randrange(0, 4)
    alpha[i] = (beta[j][0] + gap, beta[j][1])
    return alpha, beta


def irreducible_params(rng, n):
    while True:
        alpha = [gaussian(rng) for _ in range(n)]
        beta = [gaussian(rng) for _ in range(n)]
        if not has_integer_difference(alpha, beta):
            return alpha, beta


def fmt(x) -> str:
    """Canonical thetakit scalar text: '3/2', '1/2-1/3*i', '0+2*i'."""
    re, im = x
    if not im:
        return str(re)
    return "%s%s%s*i" % (re, "+" if im > 0 else "-", abs(im))


def params_json(alpha, beta) -> dict:
    return {"alpha": [fmt(a) for a in alpha], "beta": [fmt(b) for b in beta]}


def tuple_json(members) -> dict:
    return {"matrices": [[[str(x) for x in row] for row in m] for m in members]}


def cli_round(rng):
    """One round of the cli workload: 17 (label, check, argv, payload, shape).

    check names the oracle; payload is the JSON sent on stdin (None when
    the subcommand reads none); shape is the benchmark's own copy of the
    input for the check.  Ops with one label do the same work.  The
    median falls among the import-bound invocations, which repeat, and
    the 90th percentile (the 16th of 17) on rigidity n = 4, which runs
    three times.  rigidity and normal-form together cover n = 2..5.  The three
    known faults close every round and do not depend on the seed.
    """
    ops = []

    def params_op(label, check, argv, alpha, beta, *extra):
        ops.append((label, check, argv, params_json(alpha, beta), (alpha, beta) + extra))

    def tuple_op(sub, n, p):
        specs, members = levelt_tuple(rng, n, p, False)
        ops.append(("%s n=%d p=%d" % (sub, n, p), sub, [sub, "--input", "-"],
                    tuple_json(members), (specs, members)))

    for _ in range(2):
        params_op("analyze reducible n=3", "analyze", ["analyze", "--input", "-"],
                  *reducible_params(rng, 3))
        params_op("analyze irreducible n=4", "analyze", ["analyze", "--input", "-"],
                  *irreducible_params(rng, 4))
        params_op("monodromy n=3", "monodromy", ["monodromy", "--input", "-"],
                  *real_params(rng, 3), 1e-10)
    grid = rng.randrange(3, 7)
    ops.append(("counts", "counts", ["counts", "--count", str(grid)], None, grid))
    tuple_op("rigidity", 2, 2)
    for _ in range(3):
        tuple_op("rigidity", 4, 2)
    tuple_op("normal-form", 3, 2)
    tuple_op("normal-form", 5, 2)
    seed = rng.randrange(0, 10 ** 6)
    ops.append(("verify-identities --count 2", "verify-identities",
                ["verify-identities", "--seed", str(seed), "--count", "2"], None, (seed, 2)))
    return ops + list(KNOWN_FAULTY)


# Inputs on which the program breaks its exit-code contract today.  Each
# fails on every run, so they add the same failed share to every round.
KNOWN_FAULTY = (
    # a zero denominator must be malformed input (2), not a traceback
    ("known fault: analyze 1/0", "expect-exit-2", ["analyze", "--input", "-"],
     {"alpha": ["1/0", "1/3"], "beta": ["1", "2"]}, None),
    # alpha_2 - beta_2 = 10^-12 is not an integer: the exact test says
    # irreducible, so the triple must be built
    ("known fault: monodromy near-integer gap", "monodromy", ["monodromy", "--input", "-"],
     {"alpha": ["1/3", "1000000000001/1000000000000"], "beta": ["1/2", "1"]},
     ([real(Fraction(1, 3)), real(Fraction(1000000000001, 1000000000000))],
      [real(Fraction(1, 2)), real(1)], 1e-10)),
    # alpha_1 = beta_1 is reducible; a NaN tolerance must not hide it
    ("known fault: monodromy --tol nan", "expect-exit-2",
     ["monodromy", "--input", "-", "--tol", "nan"],
     {"alpha": ["1/4", "3/4"], "beta": ["1/4", "1"]}, None),
)
