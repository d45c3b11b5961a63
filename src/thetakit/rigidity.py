"""Rigidity toolkit for tuples of invertible matrices.

The setting: matrices A_1, .., A_p in GL_n whose pairwise ratios
A_i·A_j^{-1} are pseudo-reflections (rank(h - I) = 1).  Such tuples
share n-1 rows or columns after one change of basis (common_frame);
when additionally they have a common eigenvalue they stabilize a line
or a hyperplane (find_stabilized_subspace), certified by a nonconstant
common factor of the characteristic polynomials
(common_spectrum_certificate).  When instead the spectra have empty
total intersection, the tuple is conjugate to the unique companion
tuple with the same characteristic data (levelt_normal_form), which
makes linear rigidity checkable: two tuples are conjugate iff their
spectra match index-wise (tuple_conjugator).

Everything is exact over the Gaussian rationals.  Spectrum membership
and intersection are always decided through characteristic-polynomial
gcds, never through root extraction: a nonconstant gcd certifies a
common complex root even when no root lies in the coefficient field.

Index pairs and member numbers in error messages are 1-based; all
programmatic indices are 0-based.
"""

from dataclasses import dataclass
from functools import reduce

from .extension import companion_of_operator
from .linalg import ExactMatrix, Subspace, complete_basis, kernel
from .polynomials import Poly, poly_gcd
from .scalars import Q


@dataclass(frozen=True)
class MatrixTuple:
    """An ordered tuple of p >= 2 square matrices of equal size n >= 2."""

    matrices: tuple

    def __post_init__(self):
        ms = tuple(self.matrices)
        object.__setattr__(self, "matrices", ms)
        if len(ms) < 2:
            raise ValueError("a matrix tuple needs at least two members")
        n = ms[0].n
        if n < 2:
            raise ValueError("members must have dimension at least 2")
        if any(m.n != n for m in ms):
            raise ValueError("members must share one dimension")

    @property
    def p(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def __getitem__(self, i):
        return self.matrices[i]

    def __iter__(self):
        return iter(self.matrices)

    def transposed(self) -> "MatrixTuple":
        return MatrixTuple(tuple(m.transpose() for m in self.matrices))

    def char_polys(self):
        return [m.char_poly() for m in self.matrices]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "matrices": [
                [[str(x) for x in row] for row in m.rows] for m in self.matrices
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixTuple":
        ms = tuple(
            ExactMatrix([[Q(x) for x in row] for row in m])
            for m in data["matrices"]
        )
        t = cls(ms)
        if "n" in data and int(data["n"]) != t.n:
            raise ValueError("declared dimension does not match the matrices")
        return t


def _sort_key(value):
    return (value.re, value.im)


@dataclass(frozen=True)
class Spectrum:
    """A multiset of eigenvalues, stored canonically sorted."""

    values: tuple

    def __post_init__(self):
        vals = tuple(sorted((Q(v) for v in self.values), key=_sort_key))
        if not vals:
            raise ValueError("a spectrum cannot be empty")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def polynomial(self) -> Poly:
        return Poly.from_roots(self.values)


@dataclass(frozen=True)
class CommonFrame:
    """A change of basis exhibiting n-1 shared rows or columns.

    In the new basis, member A becomes U·A·U^{-1} (see apply); all
    tuple members then agree exactly on the rows (side == "rows") or
    columns (side == "columns") listed in shared_indices.
    """

    basis_change: ExactMatrix
    side: str
    shared_indices: tuple

    def apply(self, t: MatrixTuple):
        u = self.basis_change
        u_inv = u.inverse()
        return [u * m * u_inv for m in t]

    def verify(self, t: MatrixTuple) -> bool:
        """Exact check of the shared rows/columns across all members."""
        changed = self.apply(t)
        first = changed[0]
        for other in changed[1:]:
            for k in self.shared_indices:
                if self.side == "rows":
                    if first.row(k) != other.row(k):
                        return False
                else:
                    if first.column(k) != other.column(k):
                        return False
        return True


def is_pseudo_reflection(h: ExactMatrix) -> bool:
    """True when h - I has rank exactly 1.

    >>> is_pseudo_reflection(ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]]))
    True
    >>> is_pseudo_reflection(ExactMatrix.identity(3))
    False
    """
    return (h - ExactMatrix.identity(h.n)).rank() == 1


def pseudo_reflection_pairs(t: MatrixTuple) -> dict:
    """{(i, j): whether A_i·A_j^{-1} is a pseudo-reflection} for i < j,
    in lexicographic order.  Every member must be invertible.

    >>> t = levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4))])
    >>> pseudo_reflection_pairs(t)
    {(0, 1): True}
    """
    inverses = [m.inverse() for m in t]
    return {
        (i, j): is_pseudo_reflection(t[i] * inverses[j])
        for i in range(t.p)
        for j in range(i + 1, t.p)
    }


def char_poly_gcd(char_polys) -> Poly:
    """Monic gcd of two or more characteristic polynomials; it is
    nonconstant exactly when the spectra share a value.

    >>> char_poly_gcd([Poly.from_roots([1, 2]), Poly.from_roots([2, 3])])
    X-2
    """
    return reduce(poly_gcd, char_polys)


def _check_ratios(t: MatrixTuple):
    """Invertibility + pairwise pseudo-reflection ratios, or a named error."""
    for idx, m in enumerate(t):
        if not m.is_invertible():
            raise ValueError("member %d is singular" % (idx + 1,))
    for (i, j), ok in pseudo_reflection_pairs(t).items():
        if not ok:
            raise ValueError(
                "ratio of members %d and %d is not a pseudo-reflection"
                % (i + 1, j + 1)
            )


def common_frame(t: MatrixTuple) -> CommonFrame:
    """A basis in which the tuple members share n-1 rows or columns.

    Requires every member invertible and every ratio A_i·A_j^{-1} a
    pseudo-reflection (each violation is reported with the offending
    member pair).  The construction follows the kernel/image dichotomy
    of the rank-1 differences A_i - A_j:

    * all difference kernels equal one hyperplane W: the members agree
      on W, so a basis of W completed to the full space exhibits n-1
      shared columns;
    * otherwise all difference images span one common line: sending a
      spanning vector to a standard basis vector leaves every
      difference supported in a single row, so the members share the
      remaining n-1 rows.

    The returned frame is re-verified structurally before returning.
    """
    _check_ratios(t)
    n = t.n
    diffs = []
    for i in range(t.p):
        for j in range(i + 1, t.p):
            diffs.append(t[i] - t[j])
    kernels = [kernel(d) for d in diffs]
    frame = None
    if all(k == kernels[0] for k in kernels[1:]) and kernels[0].dim == n - 1:
        basis = complete_basis(kernels[0].basis, n)
        u = ExactMatrix.from_columns(basis).inverse()
        frame = CommonFrame(
            basis_change=u, side="columns", shared_indices=tuple(range(n - 1))
        )
    else:
        images = [Subspace([d.column(j) for j in range(n)]) for d in diffs]
        if all(im == images[0] for im in images) and images[0].dim == 1:
            v = images[0].basis[0]
            basis = complete_basis([v], n)
            u = ExactMatrix.from_columns(basis).inverse()
            frame = CommonFrame(
                basis_change=u, side="rows", shared_indices=tuple(range(1, n))
            )
    if frame is None or not frame.verify(t):
        raise ValueError(
            "common frame construction failed verification; "
            "the tuple is outside the supported case analysis"
        )
    return frame


def _shared_row_subspace(members, shared_indices, lam, n):
    """Line or hyperplane for members agreeing on the given rows.

    Returns ("line", x) with x a common eigenvector, or
    ("hyperplane", phi) with phi a common left eigenvector supported on
    the shared rows.  Coordinates are those of the given members.
    """
    base = members[0]
    rows = []
    for k in shared_indices:
        row = list(base.row(k))
        row[k] = row[k] - lam
        rows.append(row)
    restriction = ExactMatrix(rows)
    null = kernel(restriction)
    if null.dim == 1:
        x = null.basis[0]
        line = Subspace([x])
        for idx, m in enumerate(members):
            if not line.is_invariant_under(m):
                raise ValueError(
                    "candidate eigenvector fails for member %d" % (idx + 1,)
                )
        return "line", x
    left_null = kernel(restriction.transpose())
    if left_null.is_zero():
        raise ValueError("shared rows admit neither eigenvector nor covector")
    c = left_null.basis[0]
    phi = [Q(0)] * n
    for coef, k in zip(c, shared_indices):
        phi[k] = coef
    phi = tuple(phi)
    for idx, m in enumerate(members):
        image = tuple(
            sum((phi[r] * m[r, s] for r in range(n)), Q(0)) for s in range(n)
        )
        if image != tuple(lam * x for x in phi):
            raise ValueError(
                "candidate covector fails for member %d" % (idx + 1,)
            )
    return "hyperplane", phi


def find_stabilized_subspace(t: MatrixTuple, frame: CommonFrame, lam) -> dict:
    """A common invariant line or hyperplane for a framed tuple with the
    common eigenvalue lam.

    Returns {"line": Subspace} (a common eigenvector direction) or
    {"hyperplane": Subspace} (the kernel of a common left eigenvector),
    in the original coordinates, verified invariant under every member
    before returning.  The two branches swap when the construction runs
    on the transposed tuple.
    """
    lam = Q(lam)
    for idx, m in enumerate(t):
        if m.char_poly().evaluate(lam):
            raise ValueError(
                "%s is not an eigenvalue of member %d" % (lam, idx + 1)
            )
    if not frame.verify(t):
        raise ValueError("members do not share the given frame")
    n = t.n
    u = frame.basis_change
    u_inv = u.inverse()
    changed = frame.apply(t)
    if frame.side == "rows":
        kind, data = _shared_row_subspace(changed, frame.shared_indices, lam, n)
        if kind == "line":
            result = {"line": Subspace([u_inv.apply(data)])}
        else:
            covector = ExactMatrix([data]) * u
            result = {"hyperplane": kernel(covector)}
    else:
        transposed = [m.transpose() for m in changed]
        kind, data = _shared_row_subspace(
            transposed, frame.shared_indices, lam, n
        )
        if kind == "line":
            # eigenvector of the transposes = left eigenvector: hyperplane
            covector = ExactMatrix([data]) * u
            result = {"hyperplane": kernel(covector)}
        else:
            # left eigenvector of the transposes = eigenvector: line
            result = {"line": Subspace([u_inv.apply(data)])}
    subspace = next(iter(result.values()))
    if subspace.is_zero() or subspace.dim == n:
        raise ValueError("stabilized subspace must be proper and nonzero")
    for idx, m in enumerate(t):
        if not subspace.is_invariant_under(m):
            raise ValueError(
                "stabilized subspace fails invariance for member %d" % (idx + 1,)
            )
    return result


def common_spectrum_certificate(
    t: MatrixTuple, frame: CommonFrame, w: Subspace
) -> Poly:
    """Monic nonconstant common factor of all characteristic polynomials.

    w must be a nonzero proper subspace invariant under every member
    (the stabilized subspace produced by find_stabilized_subspace); the
    returned gcd certifies that the spectra intersect without ever
    extracting a root.
    """
    if not frame.verify(t):
        raise ValueError("members do not share the given frame")
    if w.is_zero() or w.dim == t.n:
        raise ValueError("certificate needs a nonzero proper subspace")
    for idx, m in enumerate(t):
        if not w.is_invariant_under(m):
            raise ValueError(
                "subspace is not invariant under member %d" % (idx + 1,)
            )
    g = char_poly_gcd(t.char_polys())
    if g.degree < 1:
        raise ValueError(
            "characteristic polynomials are coprime; "
            "the invariant-subspace hypothesis cannot hold"
        )
    return g


def companion_from_spectrum(s: Spectrum) -> ExactMatrix:
    """Companion matrix with the given eigenvalue multiset.

    All values must be nonzero, making the result invertible.

    >>> companion_from_spectrum(Spectrum((1, 2))).rows
    ((0, -2), (1, 3))
    """
    if any(not v for v in s.values):
        raise ValueError("spectrum values must be nonzero")
    return companion_of_operator(s.polynomial())


def levelt_tuple(spectra) -> MatrixTuple:
    """Companion tuple realizing the given spectra.

    The spectra must have empty total intersection (no value present in
    every one of them) and contain no zero.  The members share their
    first n-1 columns by construction.

    >>> t = levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4))])
    >>> t[0].rows, t[1].rows
    (((0, -2), (1, 3)), ((0, -12), (1, 7)))
    """
    spectra = list(spectra)
    if len(spectra) < 2:
        raise ValueError("need at least two spectra")
    sizes = {s.n for s in spectra}
    if len(sizes) != 1:
        raise ValueError("spectra must have one common size")
    common = set(spectra[0].values)
    for s in spectra[1:]:
        common &= set(s.values)
    if common:
        value = sorted(common, key=_sort_key)[0]
        raise ValueError("value %s lies in every spectrum" % (value,))
    return MatrixTuple(tuple(companion_from_spectrum(s) for s in spectra))


def levelt_normal_form(t: MatrixTuple, frame: CommonFrame):
    """Conjugate a column-framed tuple to its unique companion form.

    Preconditions: members invertible, sharing the frame's n-1 columns,
    characteristic polynomials with constant gcd (no common spectrum
    value).  Returns (U, canon) with U·A_i·U^{-1} = canon[i], each
    canon[i] the companion matrix of char_poly(A_i).

    The basis is built from the one-dimensional intersection
    V = W ∩ B·W ∩ ... ∩ B^{n-2}·W, where W is the span of the shared
    columns' standard vectors and B is the first transformed member:
    v = B^{-(n-2)}·w turns {v, Bv, .., B^{n-1}v} into a basis in which
    every member is an exact companion.  dim V != 1 (or a degenerate
    basis) means some eigenvalue is shared by every member, so the
    hypothesis fails; this is reported as an error.
    """
    if frame.side != "columns":
        raise ValueError("normal form requires a column frame")
    for idx, m in enumerate(t):
        if not m.is_invertible():
            raise ValueError("member %d is singular" % (idx + 1,))
    if not frame.verify(t):
        raise ValueError("members do not share the given frame")
    char_polys = t.char_polys()
    g = char_poly_gcd(char_polys)
    if g.degree >= 1:
        raise ValueError(
            "spectrum-intersection hypothesis violated: "
            "common characteristic factor %s" % (g,)
        )
    n = t.n
    u_frame = frame.basis_change
    if frame.shared_indices != tuple(range(n - 1)):
        order = list(frame.shared_indices)
        order.append(next(k for k in range(n) if k not in frame.shared_indices))
        perm = ExactMatrix.from_columns(
            [tuple(Q(1) if r == order[c] else Q(0) for r in range(n)) for c in range(n)]
        )
        u_frame = perm.inverse() * u_frame
    u_inv = u_frame.inverse()
    changed = [u_frame * m * u_inv for m in t]
    b = changed[0]
    w = Subspace(
        [tuple(Q(1) if i == k else Q(0) for i in range(n)) for k in range(n - 1)]
    )
    v_space = w
    power_image = w
    for _ in range(n - 2):
        power_image = power_image.image(b)
        v_space = v_space.intersect(power_image)
    if v_space.dim != 1:
        raise ValueError(
            "spectrum-intersection hypothesis violated: "
            "column intersection has dimension %d" % (v_space.dim,)
        )
    v = (b ** (-(n - 2))).apply(v_space.basis[0])
    vectors = [v]
    for _ in range(n - 1):
        vectors.append(b.apply(vectors[-1]))
    basis = ExactMatrix.from_columns(vectors)
    if not basis.is_invertible():
        raise ValueError(
            "spectrum-intersection hypothesis violated: degenerate basis chain"
        )
    u_total = basis.inverse() * u_frame
    u_total_inv = u_total.inverse()
    canon = []
    for idx, (m, cp) in enumerate(zip(t, char_polys)):
        c = u_total * m * u_total_inv
        if c != companion_of_operator(cp):
            raise ValueError(
                "normal form verification failed for member %d" % (idx + 1,)
            )
        canon.append(c)
    return u_total, MatrixTuple(tuple(canon))


def tuple_conjugator(a: MatrixTuple, b: MatrixTuple):
    """An exact u with u·a_i·u^{-1} = b_i for all i, or None.

    Both tuples must satisfy the normal-form hypotheses (each with its
    own frame, computed here).  Existence is equivalent to index-wise
    equality of characteristic polynomials: both tuples are conjugated
    to companion form and the conjugators composed.
    """
    if a.p != b.p or a.n != b.n:
        raise ValueError("tuples must share length and dimension")
    if a.char_polys() != b.char_polys():
        return None
    u_a, _ = levelt_normal_form(a, common_frame(a))
    u_b, _ = levelt_normal_form(b, common_frame(b))
    u = u_b.inverse() * u_a
    u_inv = u.inverse()
    for m_a, m_b in zip(a, b):
        if u * m_a * u_inv != m_b:
            raise AssertionError("conjugator verification failed")
    return u


def is_irreducible_pair(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Irreducibility test for a pair with pseudo-reflection ratio.

    For invertible a, b with a·b^{-1} a pseudo-reflection, the pair
    generates an irreducible algebra exactly when the characteristic
    polynomials are coprime.

    >>> a = companion_from_spectrum(Spectrum((1, 2)))
    >>> b = companion_from_spectrum(Spectrum((3, 4)))
    >>> is_irreducible_pair(a, b)
    True
    """
    if not a.is_invertible() or not b.is_invertible():
        raise ValueError("both matrices must be invertible")
    if not is_pseudo_reflection(a * b.inverse()):
        raise ValueError("the ratio is not a pseudo-reflection")
    return poly_gcd(a.char_poly(), b.char_poly()).degree == 0


class _EchelonAccumulator:
    """Incremental exact rank tracker over flattened matrices."""

    def __init__(self):
        self.rows = []  # (pivot index, normalized reduced row)

    def add(self, vec):
        v = list(vec)
        for piv, row in self.rows:
            c = v[piv]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [x * inv for x in v]
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    @property
    def rank(self):
        return len(self.rows)


def algebra_span_dimension(t: MatrixTuple) -> int:
    """Dimension of the unital algebra generated by the tuple members.

    Breadth-first closure: starting from the identity, left-multiply
    every independent element by every generator, keeping an exact
    echelon basis of the span.  The tuple acts irreducibly exactly when
    the result is n².
    """
    n = t.n
    acc = _EchelonAccumulator()
    identity = ExactMatrix.identity(n)

    def flat(m):
        return [x for row in m.rows for x in row]

    frontier = [identity]
    acc.add(flat(identity))
    while frontier:
        next_frontier = []
        for x in frontier:
            for g in t:
                candidate = g * x
                if acc.add(flat(candidate)):
                    next_frontier.append(candidate)
        frontier = next_frontier
    return acc.rank
