"""Numeric monodromy triples of hypergeometric operators.

The triple attached to parameter lists (alpha; beta) is built from two
companion matrices on the unit circle:

    A = companion of prod_j (X - e^{2 pi i alpha_j})
    B = companion of prod_j (X - e^{2 pi i beta_j})

    m_inf = A,   m0 = B^{-1},   m1 = A^{-1} B,

so that m_inf * m1 * m0 = I holds by telescoping and m1 - I has rank
one (the companions differ in their last column only).  The spectra
are e^{2 pi i alpha_j} at infinity, e^{2 pi i (1 - beta_j)} at 0, and
{1 (n-1 times), e^{2 pi i sum(beta - alpha)}} at 1, the exponentials
of the local exponents.  The generator ordering in the product
relation is a documented convention: (infinity, 1, 0).

Everything here is double precision and decides no yes/no claim: each
numeric check returns the margins it measured, and the caller compares
them with its own tolerance.  The exact counterpart of the normal-form
computation lives in the rigidity module.  Only real-rational parameters
are accepted, keeping every eigenvalue an exact root of unity.
"""

from collections import namedtuple

import numpy as np

from .hypergeometric import HGParams, is_reducible


def _real_parameter_floats(p: HGParams) -> tuple:
    """Parameters as Python floats, reduced mod 1; nonreal input errors."""
    alphas, betas = [], []
    for name, values, out in (("alpha", p.alpha, alphas), ("beta", p.beta, betas)):
        for k, v in enumerate(values):
            if v.im:
                raise ValueError(
                    "%s_%d is not real; numeric monodromy needs real-rational "
                    "parameters" % (name, k + 1)
                )
            out.append(float(v.re - v.floor_real()))
    return alphas, betas


def _circle_point(x: float) -> complex:
    return complex(np.exp(2j * np.pi * x))


def _companion(roots) -> np.ndarray:
    """Companion matrix of prod (X - r) over the given roots."""
    coeffs = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
    n = len(coeffs) - 1
    m = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        m[i, i - 1] = 1.0
    # coeffs[k] multiplies X^{n-k}; row i of the last column holds -a_i
    for i in range(n):
        m[i, n - 1] = -coeffs[n - i]
    return m


def multiset_distance(xs, ys) -> float:
    """Largest distance in a greedy matching of two complex multisets.

    Each x is matched to its nearest unused y; inf when the sizes differ,
    nan when a value is nan, so that no tolerance accepts it.

    >>> multiset_distance([1, 1j], [1j, 1.5])
    0.5
    """
    xs = np.asarray(xs, dtype=complex)
    ys = list(np.asarray(ys, dtype=complex))
    if len(xs) != len(ys):
        return float("inf")
    distances = []
    for x in xs:
        k = min(range(len(ys)), key=lambda j: abs(x - ys[j]))
        distances.append(abs(x - ys.pop(k)))
    return float(np.max(distances, initial=0.0))  # np.max keeps a nan


class MonodromyTriple:
    """The triple (m0, m1, minf) with m_inf*m1*m0 = I within tolerance.

    Immutable, and equal only to itself: its members are float arrays.
    """

    __slots__ = ("m0", "m1", "minf", "tolerance")

    def __init__(self, m0, m1, minf, tolerance=1e-10):
        for name, m in (("m0", m0), ("m1", m1), ("minf", minf)):
            m = np.asarray(m, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("%s must be a square matrix" % (name,))
            if not np.all(np.isfinite(m.view(float))):
                raise ValueError("%s has non-finite entries" % (name,))
            object.__setattr__(self, name, m)
        object.__setattr__(self, "tolerance", tolerance)
        if self.m0.shape != self.m1.shape or self.m1.shape != self.minf.shape:
            raise ValueError("members must share one dimension")
        if not tolerance >= 0:
            raise ValueError("tolerance must be nonnegative")
        res = self.product_residual()
        if res > tolerance:
            raise ValueError(
                "product relation violated: residual %.3e exceeds %.3e"
                % (res, tolerance)
            )

    def __setattr__(self, name, value):
        raise AttributeError("MonodromyTriple is immutable")

    def __reduce__(self):  # rebuilt through __init__, which checks the product
        return MonodromyTriple, (self.m0, self.m1, self.minf, self.tolerance)

    @property
    def n(self) -> int:
        return self.m0.shape[0]

    def product_residual(self) -> float:
        eye = np.eye(self.n, dtype=complex)
        return float(np.max(np.abs(self.minf @ self.m1 @ self.m0 - eye)))


def build_monodromy(p: HGParams, tol: float = 1e-10) -> MonodromyTriple:
    """Monodromy triple of D(alpha; beta) in the order (inf, 1, 0).

    The parameters must be irreducible (no alpha_i - beta_j an integer,
    decided exactly); otherwise the construction refuses.  tol bounds
    the product residual and must be a nonnegative number.

    >>> t = build_monodromy(HGParams(("1/4", "3/4"), ("1/2", 1)))
    >>> np.allclose(t.minf, [[0, -1], [1, 0]])
    True
    >>> np.allclose(t.m1, [[1, 0], [0, -1]])
    True
    """
    alphas, betas = _real_parameter_floats(p)
    reducible, pair = is_reducible(p)
    if reducible:
        raise ValueError(
            "reducible parameters: alpha_%d - beta_%d is an integer"
            % (pair[0] + 1, pair[1] + 1)
        )
    a = _companion([_circle_point(x) for x in alphas])
    b = _companion([_circle_point(x) for x in betas])
    n = a.shape[0]
    m0 = np.linalg.solve(b, np.eye(n, dtype=complex))
    m1 = np.linalg.solve(a, b)
    return MonodromyTriple(m0=m0, m1=m1, minf=a, tolerance=tol)


def pseudo_reflection_margins(m: np.ndarray) -> np.ndarray:
    """Singular values of m - I, largest first.

    m is a numeric pseudo-reflection when exactly one of them is clearly
    nonzero; how small the others must be is the caller's tolerance.

    >>> pseudo_reflection_margins(np.diag([1.0, 1.0, -1.0]))
    array([2., 0., 0.])
    """
    m = np.asarray(m, dtype=complex)
    return np.linalg.svd(m - np.eye(m.shape[0]), compute_uv=False)


def _seeded_unitary(n: int, seed: int) -> np.ndarray:
    """Deterministic Haar-like unitary: QR of a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class RoundTripMargins(
    namedtuple("RoundTripMargins", "difference normals condition companion error")
):
    """Margins of the numeric companion round trip; see rigidity_margins."""

    __slots__ = ()


def rigidity_margins(t: MonodromyTriple, seed: int = 0) -> RoundTripMargins:
    """Margins of the numeric round trip of the companion normal form.

    Conjugates (m_inf, m0^{-1}) by a seeded unitary, then rebuilds the
    cyclic companion basis from the hidden common-column structure: the
    difference of the conjugated pair has a one-dimensional image, its
    kernel hyperplane W is intersected with its images under the first
    member (tracked through stacked unit normals), and the resulting
    line seeds the basis {v, Av, .., A^{n-1}v}.

    Returns the singular values of the difference and of the stacked
    normals (largest first), the basis's condition number, the largest
    off-companion entry of the two members rebuilt in that basis, and
    their largest distance from the originals.  Nothing is decided: a
    singular basis reads as a large error.
    """
    n = t.n
    a = t.minf
    b = np.linalg.solve(t.m0, np.eye(n, dtype=complex))
    u = _seeded_unitary(n, seed)
    a_c = u @ a @ u.conj().T
    b_c = u @ b @ u.conj().T

    _, difference, vh = np.linalg.svd(a_c - b_c)
    # W = kernel of the difference; its unit normal is the top right
    # singular vector.  A^m W has normal (A^{-m})^H w, so the chain
    # intersection is the null space of the stacked normals.
    # Row functional phi with phi @ x = 0 exactly on W; x lies in A^m W
    # iff (phi A^{-m}) @ x = 0, so each successive functional solves
    # phi_m A = phi_{m-1}.
    functionals = [vh[0]]
    for _ in range(n - 2):
        functionals.append(np.linalg.solve(a_c.T, functionals[-1]))
    stack = np.array([f / np.linalg.norm(f) for f in functionals])
    # (n-1) unit functionals stacked over n columns: a one-dimensional
    # intersection line means full row rank, and the line is the null
    # direction.  A collapsing smallest singular value signals a fatter
    # intersection.
    _, normals, vh2 = np.linalg.svd(stack)
    v = vh2[-1].conj()
    for _ in range(n - 2):
        v = np.linalg.solve(a_c, v)
    basis = np.column_stack([np.linalg.matrix_power(a_c, k) @ v for k in range(n)])
    rebuilt = np.linalg.pinv(basis) @ np.stack((a_c, b_c)) @ basis
    off_companion = np.abs(rebuilt[:, :, :-1] - np.eye(n, n - 1, -1))
    return RoundTripMargins(
        difference=tuple(difference.tolist()),
        normals=tuple(normals.tolist()),
        condition=float(np.linalg.cond(basis)),
        companion=float(np.max(off_companion, initial=0.0)),
        error=float(np.max(np.abs(rebuilt - np.stack((a, b))))),
    )
