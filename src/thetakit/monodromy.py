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

Everything here is double precision; the exact counterpart of the
normal-form computation lives in the rigidity module.  Only
real-rational parameters are accepted, keeping every eigenvalue an
exact root of unity.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LocalSpectra:
    """Eigenvalue multisets of the three local monodromies."""

    at_zero: tuple
    at_one: tuple
    at_infinity: tuple


def local_spectra(p: HGParams) -> LocalSpectra:
    """Exponentials of the local exponents at 0, 1 and infinity.

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


def companion_eigenvalues(m: np.ndarray) -> np.ndarray:
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


def multiset_close(xs, ys, tol: float) -> bool:
    """Greedy matching of two complex multisets within tol.

    Each x is matched to its nearest unused y; True when every match is
    within tol and the sizes agree.
    """
    xs = list(np.asarray(xs, dtype=complex))
    ys = list(np.asarray(ys, dtype=complex))
    if len(xs) != len(ys):
        return False
    for x in xs:
        if not ys:
            return False
        k = min(range(len(ys)), key=lambda j: abs(x - ys[j]))
        if abs(x - ys[k]) > tol:
            return False
        ys.pop(k)
    return True


@dataclass(frozen=True, eq=False)
class MonodromyTriple:
    """The triple (m0, m1, minf) with m_inf*m1*m0 = I within tolerance."""

    m0: np.ndarray
    m1: np.ndarray
    minf: np.ndarray
    tolerance: float = 1e-10

    def __post_init__(self):
        for name in ("m0", "m1", "minf"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("%s must be a square matrix" % (name,))
            if not np.all(np.isfinite(m.view(float))):
                raise ValueError("%s has non-finite entries" % (name,))
            object.__setattr__(self, name, m)
        if self.m0.shape != self.m1.shape or self.m1.shape != self.minf.shape:
            raise ValueError("members must share one dimension")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be nonnegative")
        res = self.product_residual()
        if res > self.tolerance:
            raise ValueError(
                "product relation violated: residual %.3e exceeds %.3e"
                % (res, self.tolerance)
            )

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


def check_pseudo_reflection_numeric(m: np.ndarray, tol: float) -> bool:
    """True when m - I has exactly one singular value above tol.

    >>> check_pseudo_reflection_numeric(np.diag([1.0, 1.0, -1.0]), 1e-8)
    True
    >>> check_pseudo_reflection_numeric(np.eye(3), 1e-8)
    False
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    m = np.asarray(m, dtype=complex)
    s = np.linalg.svd(m - np.eye(m.shape[0]), compute_uv=False)
    return int(np.sum(s > tol)) == 1


def _seeded_unitary(n: int, seed: int) -> np.ndarray:
    """Deterministic Haar-like unitary: QR of a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _is_companion_numeric(m: np.ndarray, tol: float) -> bool:
    n = m.shape[0]
    for i in range(n):
        for j in range(n - 1):
            target = 1.0 if i == j + 1 else 0.0
            if abs(m[i, j] - target) > tol:
                return False
    return True


def rigidity_check_numeric(
    t: MonodromyTriple, tol: float, seed: int = 0
) -> bool:
    """Numeric round-trip of the companion normal form.

    Conjugates (m_inf, m0^{-1}) by a seeded unitary, then rebuilds the
    cyclic companion basis from the hidden common-column structure: the
    difference of the conjugated pair has a one-dimensional image, its
    kernel hyperplane W is intersected with its images under the first
    member (tracked through stacked unit normals), and the resulting
    line seeds the basis {v, Av, .., A^{n-1}v}.  Success means both
    members return to companion form and match the originals within
    tol.

    Raises when the intersection is not one-dimensional or the cyclic
    basis is ill-conditioned; the message carries the offending
    singular-value / condition-number diagnostic.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n = t.n
    a = t.minf
    b = np.linalg.solve(t.m0, np.eye(n, dtype=complex))
    u = _seeded_unitary(n, seed)
    a_c = u @ a @ u.conj().T
    b_c = u @ b @ u.conj().T

    diff = a_c - b_c
    _, s, vh = np.linalg.svd(diff)
    if s[0] <= tol or (n > 1 and s[1] > tol * max(1.0, s[0])):
        raise ValueError(
            "difference is not numerically rank one: singular values %s"
            % (np.array2string(s, precision=3),)
        )
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
    _, s2, vh2 = np.linalg.svd(stack)
    if s2[-1] <= tol * max(1.0, s2[0]):
        raise ValueError(
            "column intersection has dimension >= 2: stacked-normal "
            "singular values %s" % (np.array2string(s2, precision=3),)
        )
    w = vh2[-1].conj()
    v = w.copy()
    for _ in range(n - 2):
        v = np.linalg.solve(a_c, v)
    basis = np.column_stack(
        [np.linalg.matrix_power(a_c, k) @ v for k in range(n)]
    )
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise ValueError(
            "cyclic basis ill-conditioned: condition number %.3e" % (cond,)
        )
    rec_a = np.linalg.solve(basis, a_c @ basis)
    rec_b = np.linalg.solve(basis, b_c @ basis)
    if not (_is_companion_numeric(rec_a, tol) and _is_companion_numeric(rec_b, tol)):
        return False
    return bool(
        np.max(np.abs(rec_a - a)) <= tol and np.max(np.abs(rec_b - b)) <= tol
    )
