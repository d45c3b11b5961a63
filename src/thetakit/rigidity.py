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
from functools import cached_property, reduce

from .extension import companion_of_operator
from .linalg import Echelon, ExactMatrix, Subspace, complete_basis, kernel
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
        return list(self._char_polys)

    # Facts derived from the (immutable) members are kept on the tuple,
    # so that one run asks each of them once, whatever asks first.

    @cached_property
    def _char_polys(self):
        return tuple(m.char_poly() for m in self.matrices)

    @cached_property
    def _difference_kernels(self):
        ms = self.matrices
        return {
            (i, j): _difference_kernel(ms[i], ms[j])
            for i in range(self.p)
            for j in range(i + 1, self.p)
        }

    @cached_property
    def _ratio_table(self):
        # for invertible A_j, A_i·A_j^{-1} - I = (A_i - A_j)·A_j^{-1} has the
        # rank of A_i - A_j: rank 1 is a kernel of dimension n - 1
        _check_invertible(self)
        return {
            pair: k.dim == self.n - 1 for pair, k in self._difference_kernels.items()
        }

    @cached_property
    def _frame_checks(self):
        return {}  # id(frame) -> (frame, frame.verify(self)), see _shares_frame

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "matrices": [
                [[str(x) for x in row] for row in m.rows] for m in self.matrices
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixTuple":
        ms = data["matrices"]
        if not isinstance(ms, list):
            raise TypeError("matrices must be a JSON array")
        for k, m in enumerate(ms):
            if not (isinstance(m, list) and all(isinstance(r, list) for r in m)):
                raise TypeError("member %d must be a JSON array of rows" % (k + 1,))
        t = cls(tuple(ExactMatrix([[Q(x) for x in row] for row in m]) for m in ms))
        if "n" in data and data["n"] != t.n:  # 2.9 or "2" is not a dimension
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
    columns (side == "columns") listed in shared_indices.  The frame
    carries U^{-1} as inverse, checked on construction.
    """

    basis_change: ExactMatrix
    side: str
    shared_indices: tuple
    inverse: ExactMatrix

    def __post_init__(self):
        if self.basis_change * self.inverse != ExactMatrix.identity(
            self.basis_change.n
        ):
            raise ValueError("frame inverse does not invert the basis change")

    def apply(self, t: MatrixTuple):
        u, u_inv = self.basis_change, self.inverse
        return [u * m * u_inv for m in t]

    def verify(self, t: MatrixTuple) -> bool:
        """Exact check of the shared rows/columns across all members.

        U·A_i·U^{-1} and U·A_0·U^{-1} agree on the columns S exactly when
        (A_i - A_0)·U^{-1}[:, S] = 0, and on the rows S exactly when
        U[S, :]·(A_i - A_0) = 0, so no member is conjugated.
        """
        if self.side == "rows":
            vectors = [self.basis_change.row(k) for k in self.shared_indices]
            members = [m.transpose() for m in t]
        else:
            vectors = [self.inverse.column(k) for k in self.shared_indices]
            members = list(t)
        first = members[0]
        for v in vectors:
            image = first.apply(v)
            if any(m.apply(v) != image for m in members[1:]):
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


def _difference_kernel(a: ExactMatrix, b: ExactMatrix) -> Subspace:
    """kernel(a - b), which both the ratio table and common_frame read."""
    return kernel(a - b)


def pseudo_reflection_pairs(t: MatrixTuple) -> dict:
    """{(i, j): whether A_i·A_j^{-1} is a pseudo-reflection} for i < j,
    in lexicographic order.  Every member must be invertible; a
    singular one is a ValueError naming it.

    >>> t = levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4))])
    >>> pseudo_reflection_pairs(t)
    {(0, 1): True}
    """
    return dict(t._ratio_table)


def char_poly_gcd(char_polys) -> Poly:
    """Monic gcd of two or more characteristic polynomials; it is
    nonconstant exactly when the spectra share a value.

    >>> char_poly_gcd([Poly.from_roots([1, 2]), Poly.from_roots([2, 3])])
    X-2
    """
    return reduce(poly_gcd, char_polys)


def _check_invertible(t: MatrixTuple):
    """A named error for the first singular member: det = ±cp(0)."""
    for idx, cp in enumerate(t._char_polys):
        if not cp.coeffs[0]:
            raise ValueError("member %d is singular" % (idx + 1,))


def _shares_frame(t: MatrixTuple, frame: CommonFrame) -> bool:
    """frame.verify(t), computed once per tuple and frame.

    Keyed by identity, since hashing a frame hashes 2n² rationals; the
    stored frame stays alive, so no other object can take its id.
    """
    checks = t._frame_checks
    entry = checks.get(id(frame))
    if entry is None:
        entry = checks[id(frame)] = (frame, frame.verify(t))
    return entry[1]


def _check_ratios(t: MatrixTuple):
    """Invertibility + pairwise pseudo-reflection ratios, or a named error."""
    for (i, j), ok in t._ratio_table.items():
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
    kernels = list(t._difference_kernels.values())
    frame = None
    if all(k == kernels[0] for k in kernels[1:]) and kernels[0].dim == n - 1:
        basis = ExactMatrix.from_columns(complete_basis(kernels[0].basis, n))
        frame = CommonFrame(
            basis_change=basis.inverse(),
            side="columns",
            shared_indices=tuple(range(n - 1)),
            inverse=basis,
        )
    else:
        diffs = [t[i] - t[j] for i, j in t._difference_kernels]
        images = [Subspace([d.column(j) for j in range(n)]) for d in diffs]
        if all(im == images[0] for im in images) and images[0].dim == 1:
            v = images[0].basis[0]
            basis = ExactMatrix.from_columns(complete_basis([v], n))
            frame = CommonFrame(
                basis_change=basis.inverse(),
                side="rows",
                shared_indices=tuple(range(1, n)),
                inverse=basis,
            )
    if frame is None or not _shares_frame(t, frame):
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
        if m.transpose().apply(phi) != tuple(lam * x for x in phi):
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
    for idx, cp in enumerate(t._char_polys):
        if cp.evaluate(lam):
            raise ValueError(
                "%s is not an eigenvalue of member %d" % (lam, idx + 1)
            )
    if not _shares_frame(t, frame):
        raise ValueError("members do not share the given frame")
    n = t.n
    u, u_inv = frame.basis_change, frame.inverse
    changed = frame.apply(t)
    if frame.side == "columns":
        changed = [m.transpose() for m in changed]
    kind, data = _shared_row_subspace(changed, frame.shared_indices, lam, n)
    # on the transposes (column frame) an eigenvector is a left one, and back
    if (kind == "line") == (frame.side == "rows"):
        result = {"line": Subspace([u_inv.apply(data)])}
    else:
        result = {"hyperplane": kernel(ExactMatrix([data]) * u)}
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
    if not _shares_frame(t, frame):
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

    U^{-1} = X = [x, A_0·x, .., A_0^{n-1}·x] is the Krylov basis of a
    cyclic vector x (Beukers-Heckman, Invent. Math. 95, 1989, §3).  The
    members agree on the hyperplane W = {w : y·w = 0}, y the row of the
    frame's U at its one non-shared index.  x spans the kernel of the
    n-1 rows y·A_0^k, k = 0..n-2, so A_0^k·x lies in W and
    A_i·A_0^k·x = A_0^{k+1}·x for k < n-1: in the basis X every member
    has the companion's first n-1 columns.  A kernel of dimension != 1
    (or a degenerate basis) means some eigenvalue is shared by every
    member, so the hypothesis fails; this is reported as an error.  U
    is unique up to a scalar: x is scaled so that, over the shared
    indices k in the frame's order, the first nonzero entry of
    (U_frame·A_0^{n-2}·x)_k is 1.  Each member is checked through
    A_i·X = X·canon[i], which holds exactly when U·A_i·U^{-1} = canon[i].
    """
    if frame.side != "columns":
        raise ValueError("normal form requires a column frame")
    _check_invertible(t)
    if not _shares_frame(t, frame):
        raise ValueError("members do not share the given frame")
    char_polys = t._char_polys
    g = char_poly_gcd(char_polys)
    if g.degree >= 1:
        raise ValueError(
            "spectrum-intersection hypothesis violated: "
            "common characteristic factor %s" % (g,)
        )
    n = t.n
    a0 = t[0]
    u_frame = frame.basis_change
    free = next(k for k in range(n) if k not in frame.shared_indices)
    a0_t = a0.transpose()
    rows = [u_frame.row(free)]
    for _ in range(n - 2):
        rows.append(a0_t.apply(rows[-1]))  # y·A_0^k
    null = ExactMatrix(rows).kernel_vectors()
    if len(null) != 1:
        raise ValueError(
            "spectrum-intersection hypothesis violated: "
            "column intersection has dimension %d" % (len(null),)
        )
    vectors = [null[0]]
    for _ in range(n - 1):
        vectors.append(a0.apply(vectors[-1]))
    anchor = u_frame.apply(vectors[n - 2])
    scale = next(anchor[k] for k in frame.shared_indices if anchor[k]).inverse()
    vectors = [tuple(scale * a for a in v) for v in vectors]
    basis = ExactMatrix.from_columns(vectors)
    try:
        u = basis.inverse()
    except ValueError:
        raise ValueError(
            "spectrum-intersection hypothesis violated: degenerate basis chain"
        ) from None
    canon = []
    for idx, (m, cp) in enumerate(zip(t, char_polys)):
        c = companion_of_operator(cp)
        # X·C: C's subdiagonal shifts X's columns, its last column mixes them
        x_c = vectors[1:] + [basis.apply(c.column(n - 1))]
        if [m.apply(v) for v in vectors] != x_c:
            raise ValueError(
                "normal form verification failed for member %d" % (idx + 1,)
            )
        canon.append(c)
    return u, MatrixTuple(tuple(canon))


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
    return _irreducible_pair(MatrixTuple((a, b)))


def _irreducible_pair(t: MatrixTuple) -> bool:
    """is_irreducible_pair(t[0], t[1]) for a pair of invertible members,
    from the ratio table and char polys that t already holds."""
    if not t._ratio_table[(0, 1)]:
        raise ValueError("the ratio is not a pseudo-reflection")
    return char_poly_gcd(t._char_polys).degree == 0


def algebra_span_dimension(t: MatrixTuple) -> int:
    """Dimension of the unital algebra generated by the tuple members.

    Breadth-first closure: starting from the identity, left-multiply
    every independent element by every generator, keeping an exact
    echelon basis of the span.  The tuple acts irreducibly exactly when
    the result is n².
    """
    n = t.n
    acc = Echelon()
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
