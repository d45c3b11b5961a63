"""Seeded generators, test-side reference oracles and subprocess helpers
shared across the test modules."""

import os
import random
from collections import namedtuple
from math import comb, gcd, prod

import numpy as np

import thetakit
from thetakit.hypergeometric import HGParams
from thetakit.linalg import ExactMatrix, Subspace, companion_of_operator, kernel
from thetakit.monodromy import _circle_point, _real_parameter_floats
from thetakit.polynomials import X, Poly
from thetakit.rigidity import MatrixTuple, Spectrum, levelt_tuple
from thetakit.scalars import Q

# thetakit's layers, in import order
LAYERS = (
    "scalars", "polynomials", "linalg", "theta", "hypergeometric", "extension",
    "rigidity", "monodromy",
)


def is_integer(x):
    """True when the scalar x lies in Z: zero imaginary part, denominator 1."""
    return not x.im and x.re.denominator == 1


def rank(m):
    """The number of pivots of the ExactMatrix m's RREF.

    >>> rank(ExactMatrix([[1, 2], [2, 4]]))
    1
    """
    return len(m.rref()[1])


def contains(space, vector):
    """Whether the Subspace space holds vector, one product with its basis.

    >>> contains(Subspace([(2, 4, 0), (1, 2, 1)]), (1, 2, 3))
    True
    """
    if len(vector) != space.ambient:
        raise ValueError("ambient dimension mismatch")
    return not any(map(Q, vector)) if space.is_zero() else space._spans(ExactMatrix([vector]))


def to_dict(t):
    """The matrix tuple t as the JSON object the CLI reads."""
    return {"n": t.n, "matrices": [[[str(x) for x in row] for row in m.rows] for m in t]}


def rational(rng, lo=-8, hi=8, den=4):
    return Q(rng.randrange(lo, hi + 1)) / Q(rng.randrange(1, den + 1))


def gaussian_rational(rng, complex_chance=0.3):
    x = rational(rng)
    if rng.random() < complex_chance:
        x = x + Q(0, rng.randrange(-4, 5)) / Q(rng.randrange(1, 4))
    return x


def params(rng, n, complex_chance=0.3):
    return HGParams(
        tuple(gaussian_rational(rng, complex_chance) for _ in range(n)),
        tuple(gaussian_rational(rng, complex_chance) for _ in range(n)),
    )


def irreducible_params(rng, n, den=12, span=48):
    """Real-rational parameters with no alpha_i - beta_j an integer."""
    while True:
        al = [Q(rng.randrange(0, span)) / Q(rng.randrange(1, den + 1)) for _ in range(n)]
        be = [Q(rng.randrange(0, span)) / Q(rng.randrange(1, den + 1)) for _ in range(n)]
        if all(not is_integer(a - b) for a in al for b in be):
            return HGParams(tuple(al), tuple(be))


def invertible_matrix(rng, n, steps=None):
    """Random invertible matrix built from elementary row operations.

    Products of elementary matrices keep entries small and the inverse
    exact, which is all the conjugation tests need.
    """
    m = ExactMatrix.identity(n)
    for _ in range(steps if steps is not None else 3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Q(rng.randrange(-2, 3))
        if not c:
            continue
        rows = [list(m.row(r)) for r in range(n)]
        for k in range(n):
            rows[i][k] = rows[i][k] + c * rows[j][k]
        m = ExactMatrix(rows)
    return m


def complete_basis(vectors, ambient):
    """Extend independent vectors to a full basis with standard basis
    vectors: e_0, e_1, .. in turn, each kept when it lies outside the span
    of those chosen so far.  The scalar reference for common_frame."""
    chosen = [tuple(map(Q, v)) for v in vectors]
    if any(len(v) != ambient for v in chosen):
        raise ValueError("ambient dimension mismatch")
    for k in range(ambient):
        e = tuple(Q(int(i == k)) for i in range(ambient))
        if not contains(Subspace(chosen, ambient), e):
            chosen.append(e)
    if len(chosen) != ambient:
        raise ValueError("could not complete to a basis")
    return chosen


def det(m):
    """Gaussian elimination on the scalar rows of a square ExactMatrix, the
    first nonzero pivot in each column, one sign change per row swap.  The
    scalar reference for ExactMatrix.det."""
    n = m.n
    rows = [list(r) for r in m.rows]
    result = Q(1)
    for pc in range(n):
        pivot_row = next((i for i in range(pc, n) if rows[i][pc]), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != pc:
            rows[pc], rows[pivot_row] = rows[pivot_row], rows[pc]
            result = -result
        result = result * rows[pc][pc]
        inv = rows[pc][pc].inverse()
        for i in range(pc + 1, n):
            if rows[i][pc]:
                f = rows[i][pc] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pc])]
    return result


def scalar_partition(p):
    """(zero, positive, negative): the pairs (i, j) with alpha_i - beta_j an
    integer, split by its sign, from the scalar differences.  The scalar
    reference for hypergeometric.partition."""
    zero, positive, negative = set(), set(), set()
    for i, a in enumerate(p.alpha):
        for j, b in enumerate(p.beta):
            d = a - b
            if is_integer(d):
                (zero if not d else positive if d.re > 0 else negative).add((i, j))
    return zero, positive, negative


def scalar_greedy_matching(p):
    """Disjoint (i, j, m), m = alpha_i - beta_j a nonnegative integer, taken
    by increasing (m, i, j) from the scalar differences.  The scalar
    reference for hypergeometric.greedy_matching."""
    zero, positive, _ = scalar_partition(p)
    used_i, used_j, chosen = set(), set(), []
    for m, i, j in sorted((int((p.alpha[i] - p.beta[j]).re), i, j) for i, j in zero | positive):
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            chosen.append((i, j, m))
    return chosen


def disjoint_spectra(rng, p, n, span=40):
    """p pairwise distinct spectra of n values in 1..span-1 with an empty
    total intersection; a draw is repeated only when it fails that.  Such
    spectra exist exactly when there are p sets of n values and every value
    can be missing from one of them; otherwise this is a ValueError, not an
    endless loop."""
    if comb(span - 1, n) < p or p * (span - 1 - n) < span - 1:
        raise ValueError("no %d distinct spectra of %d values in 1..%d" % (p, n, span - 1))
    while True:
        spectra = []
        for _ in range(p):
            vals = set()
            while len(vals) < n:
                v = Q(rng.randrange(1, span))
                vals.add(v)
            spectra.append(Spectrum(tuple(vals)))
        common = set(spectra[0])
        for s in spectra[1:]:
            common &= set(s)
        if not common and len(set(spectra)) == p:
            return spectra


def conjugated_levelt(rng, p, n):
    """(spectra, conjugator, conjugated tuple) for a random instance."""
    spectra = disjoint_spectra(rng, p, n)
    base = levelt_tuple(spectra)
    g = invertible_matrix(rng, n)
    conj = MatrixTuple(tuple(g * m * g.inverse() for m in base))
    return spectra, g, conj


def gaussian_conjugated_levelt(rng, p, n, spectrum_chance, conjugator_chance):
    """A Levelt tuple of pairwise distinct nonzero Gaussian-rational spectra
    with empty total intersection, conjugated by a product of 3n elementary
    matrices whose multipliers are Gaussian rationals; each chance is that
    of a non-real value (gaussian_rational)."""
    while True:
        spectra = [[x for x in (gaussian_rational(rng, spectrum_chance) for _ in range(4 * n)) if x][:n]
                   for _ in range(p)]
        if (all(len(s) == n for s in spectra) and not set.intersection(*map(set, spectra))
                and len(set(map(Spectrum, spectra))) == p):
            break
    rows = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j, c = rng.randrange(n), rng.randrange(n), gaussian_rational(rng, conjugator_chance)
        if i != j and c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    g = ExactMatrix(rows)
    return MatrixTuple(tuple(g * m * g.inverse() for m in levelt_tuple(map(Spectrum, spectra))))


def krylov_conjugator(t, frame):
    """U = X^{-1} for the Krylov basis X = [x, A_0·x, .., A_0^{n-1}·x]: x spans
    the kernel of the rows y·A_0^k, k < n - 1, y the row of the frame's U at
    its non-shared index, and is scaled so that the first nonzero entry of
    U_frame·A_0^{n-2}·x over the shared indices, in the frame's order, is 1.
    The scalar reference for the U of levelt_normal_form, on a column frame
    sharing n - 1 indices."""
    n, a0, u_frame = t.n, t[0], frame.basis_change
    (free,) = set(range(n)) - set(frame.shared_indices)
    rows = [u_frame.row(free)]
    for _ in range(n - 2):
        rows.append(a0.transpose().apply(rows[-1]))
    (x,) = kernel(ExactMatrix(rows)).basis
    columns = [x]
    for _ in range(n - 1):
        columns.append(a0.apply(columns[-1]))
    anchor = u_frame.apply(columns[n - 2])
    mu = next(anchor[k] for k in frame.shared_indices if anchor[k])
    return ExactMatrix([[c[i] / mu for c in columns] for i in range(n)]).inverse()


def is_pseudo_reflection(h):
    """True when h - I has rank exactly 1: the reference for the ratio
    table of pseudo_reflection_pairs.

    >>> is_pseudo_reflection(ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]]))
    True
    >>> is_pseudo_reflection(ExactMatrix.identity(3))
    False
    """
    return rank(h - ExactMatrix.identity(h.n)) == 1


class LocalSpectra(namedtuple("LocalSpectra", "at_zero at_one at_infinity")):
    """Eigenvalue multisets of the three local monodromies."""

    __slots__ = ()


def local_spectra(p):
    """Exponentials of the local exponents at 0, 1 and infinity, the
    spectra the numeric monodromy triple must have.

    >>> s = local_spectra(HGParams(("1/2", "1/2"), (1, 1)))
    >>> np.allclose(s.at_infinity, (-1, -1)) and np.allclose(s.at_zero, (1, 1))
    True
    """
    alphas, betas = _real_parameter_floats(p)
    shift = sum(betas) - sum(alphas)
    at_one = (1.0 + 0.0j,) * (p.n - 1) + (_circle_point(shift),)
    return LocalSpectra(
        at_zero=tuple(_circle_point(-b) for b in betas),
        at_one=at_one,
        at_infinity=tuple(_circle_point(a) for a in alphas),
    )


def companion_eigenvalues(m):
    """Eigenvalues of a companion matrix via its own polynomial.

    Reads the last column (the polynomial's coefficients) and calls the
    root finder on it; no general eigensolver is involved.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.ones(n + 1, dtype=complex)
    for i in range(n):
        coeffs[n - i] = -m[i, n - 1]
    return np.roots(coeffs)


def cyclotomic(d):
    """Phi_d, by exact division of X^d - 1 by Phi_e for every proper
    divisor e of d.

    >>> cyclotomic(1), cyclotomic(6)
    (X-1, X^2-X+1)
    """
    divisors = [cyclotomic(e) for e in range(1, d) if d % e == 0]
    q, r = divmod(X ** d - 1, prod(divisors, start=Poly([1])))
    assert not r
    return q


def galois_orbits(rng, n, max_order=30):
    """n parameters that form whole Galois orbits {k/d : gcd(k, d) = 1}
    mod 1, so prod (X - e^{2 pi i a}) is the integer polynomial prod Phi_d.
    Returns (parameters, orders): orders are drawn until their totients
    sum to n, and each parameter is moved by an integer in -2..2, which
    changes no exponential but gives nonzero integer differences."""
    while True:
        orders, size = [], 0
        while size < n:
            d = rng.randrange(1, max_order + 1)
            orders.append(d)
            size += sum(gcd(k, d) == 1 for k in range(1, d + 1))
        if size == n:
            values = [Q(k) / Q(d) + rng.randrange(-2, 3)
                      for d in orders for k in range(1, d + 1) if gcd(k, d) == 1]
            return tuple(values), orders


def integer_levelt_pair(rng, n, max_order=30):
    """(params, A, B): Galois-stable parameters and the integer companions
    A of prod Phi_d over the alpha orders and B over the beta orders,
    which are m_inf and m0^{-1} of the monodromy triple."""
    alpha, a_orders = galois_orbits(rng, n, max_order)
    beta, b_orders = galois_orbits(rng, n, max_order)
    a, b = (companion_of_operator(prod(map(cyclotomic, orders), start=Poly([1])))
            for orders in (a_orders, b_orders))
    return HGParams(alpha, beta), a, b


def one_above(sv, tol) -> bool:
    """Exactly one singular value above tol: a numeric pseudo-reflection,
    read off pseudo_reflection_margins."""
    return sum(s > tol for s in sv) == 1


def round_trip_holds(m, tol) -> bool:
    """The numeric companion round trip succeeds at tol, read off its
    RoundTripMargins m: the difference is rank one, the stacked normals
    have full rank, the cyclic basis is well conditioned, and both
    rebuilt members are the original companions."""
    d, normals = m.difference, m.normals
    return (
        d[0] > tol
        and (len(d) < 2 or d[1] <= tol * max(1.0, d[0]))
        and normals[-1] > tol * max(1.0, normals[0])
        and m.condition <= 1.0 / tol
        and m.companion <= tol
        and m.error <= tol
    )


def env_with_src() -> dict:
    """os.environ with the directory holding thetakit first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(thetakit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
