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

from collections import namedtuple
from functools import cached_property, reduce
from itertools import chain, combinations
from math import lcm

from .linalg import (ExactMatrix, Subspace, _columns, _insert, _matrix, _realified,
                     companion_of_operator, kernel)
from .polynomials import Poly, _from_ints, poly_gcd
from .scalars import Q, _lin, _matmul, _product, _scale


class MatrixTuple(tuple):
    """An ordered tuple of p >= 2 square matrices of equal size n >= 2;
    the tuple is its members."""

    def __new__(cls, matrices):
        ms = super().__new__(cls, matrices)
        if len(ms) < 2:
            raise ValueError("a matrix tuple needs at least two members")
        n = ms[0].n
        if n < 2:
            raise ValueError("members must have dimension at least 2")
        if any(m.n != n for m in ms):
            raise ValueError("members must share one dimension")
        return ms

    def __reduce__(self):  # copies and pickles carry the members, not the facts
        return MatrixTuple, (tuple(self),)

    @property
    def p(self) -> int:
        return len(self)

    @property
    def n(self) -> int:
        return self[0].n

    # Facts derived from the (immutable) members are kept in the instance
    # dict, so that one run asks each of them once, whatever asks first; the
    # difference readings come first, as the other facts read them.

    @cached_property
    def _char_polys(self):
        # chi_0 from _adjugate, Berkowitz on A_j when A_0 - A_j has rank >= 2.  Else, with
        # A_0 - A_j = c·w and C = den·c, chi_j = chi_0 + w·adj(X - A_0)·c (determinant
        # lemma) gives den(chi_0)·K·chi_j = K·P + Y·C for K = den(w)·den·e^(n-1) and w's Y
        a0, (cp, adjugate) = self[0], self._adjugate
        polys = [cp]
        for j, m in enumerate(self[1:], 1):
            reading = self._difference_rows[0, j]
            if reading is None:
                polys.append(cp if m == a0 else m.char_poly())
                continue
            w, _, (c, ci), den = reading
            k = w.den * den * a0.den ** (self.n - 1)
            re, im = (_lin(q and [q], s and [s[0] + [0]], k) for q, s in
                      zip((cp.re, cp.im), _product(_matmul, [c], ci and [ci], *adjugate[w])))
            polys.append(_from_ints(cp.den * k, re[0], im and im[0]))
        return tuple(polys)

    @cached_property
    def _adjugate(self):
        # (chi_0, {w: (re, im) of the rows Y}), one per distinct w of the (0, j) readings.
        # w·adj(X - A_0) = sum_k X^k sum_m a_{k+1+m}·w·A_0^m for chi_0 = sum_i a_i·X^i, and
        # den(chi_0)·den(w)·e^(n-1) times it is Y = H·R: H the Hankel rows P_{k+1+m}·e^(n-1-m)
        # of P = den(chi_0)·chi_0, R the chain W·M^m, W = den(w)·w, M = e·A_0, e = den(A_0)
        a0, n, rows = self[0], self.n, self._difference_rows
        cp, e, columns = a0.char_poly(), a0.den, (_columns(a0.re), _columns(a0.im))
        h = [q and [[x * e ** (n - 1 - m) for m, x in enumerate(q[k + 1:])] for k in range(n)]
             for q in (cp.re, cp.im)]
        ws = dict.fromkeys(r[0] for r in (rows[0, j] for j in range(1, self.p)) if r)
        return cp, {w: _product(_matmul, *h, *map(_columns, _chain((w.re, w.im), columns, n)))
                    for w in ws}

    @cached_property
    def _char_poly_gcd(self):
        # monic, and nonconstant exactly when the spectra share a value
        return reduce(poly_gcd, self._char_polys)

    @cached_property
    def _difference_rows(self):
        # _rank_one_row of A_i - A_j for i < j, one reading per pair on the
        # integer rows over lcm(den(A_i), den(A_j)), with no ExactMatrix
        readings = {}
        for i, j in combinations(range(self.p), 2):
            a, b = self[i], self[j]
            den = lcm(a.den, b.den)
            x, y = den // a.den, -(den // b.den)
            readings[i, j] = _rank_one_row(den, _lin(a.re, b.re, x, y), _lin(a.im, b.im, x, y))
        return readings

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixTuple":
        ms = data["matrices"]
        if not isinstance(ms, list):
            raise TypeError("matrices must be a JSON array")
        for k, m in enumerate(ms):
            if not (isinstance(m, list) and all(isinstance(r, list) for r in m)):
                raise TypeError("member %d must be a JSON array of rows" % (k + 1,))
        t = cls(tuple(ExactMatrix([[Q(x) for x in row] for row in m]) for m in ms))
        n = data.get("n", t.n)  # 2.9, 2.0 or "2" is not a dimension
        if type(n) is not int or n != t.n:
            raise ValueError("declared dimension does not match the matrices")
        return t


def _sort_key(value):
    return (value.re, value.im)


class Spectrum(tuple):
    """A multiset of eigenvalues: the tuple of its values, canonically sorted."""

    __slots__ = ()

    def __new__(cls, values):
        vals = sorted((Q(v) for v in values), key=_sort_key)
        if not vals:
            raise ValueError("a spectrum cannot be empty")
        return super().__new__(cls, vals)

    @property
    def n(self) -> int:
        return len(self)


class CommonFrame(
    namedtuple("CommonFrame", "basis_change side shared_indices inverse")
):
    """A change of basis exhibiting n-1 shared rows or columns.

    In the new basis, member A becomes U·A·U^{-1}; all tuple members
    then agree exactly on the rows (side == "rows") or columns
    (side == "columns") listed in shared_indices, distinct indices
    below n.  The frame carries U^{-1} as inverse; the side,
    the indices and the inverse are checked on construction.
    """

    __slots__ = ()

    def __new__(cls, basis_change, side, shared_indices, inverse):
        if side not in ("rows", "columns"):
            raise ValueError("frame side must be 'rows' or 'columns', not %r" % (side,))
        n = basis_change.n
        if basis_change * inverse != ExactMatrix.identity(n):
            raise ValueError("frame inverse does not invert the basis change")
        indices = set(shared_indices)
        if len(indices) != len(shared_indices) or not indices <= set(range(n)):
            raise ValueError("shared indices must be distinct indices of the basis")
        return super().__new__(cls, basis_change, side, shared_indices, inverse)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: both check
        return cls(*iterable)

    def verify(self, t: MatrixTuple) -> bool:
        """Exact check of the shared rows/columns across all members.

        With E_S the selection of the shared indices S and X_S = U^{-1}·E_S,
        U·A_j·U^{-1} and U·A_0·U^{-1} agree on the columns S exactly when
        (A_0 - A_j)·X_S = 0, and on the rows S when E_S^T·U·(A_0 - A_j) = 0.
        When |S| >= n-1, X_S and E_S^T·U have rank >= n-1, so the (0, j)
        reading A_0 - A_j = c_j·w_j decides: a zero difference is shared, one
        of rank >= 2 is not, and one of rank 1 is exactly when w_j·X_S = 0
        (columns) or E_S^T·U·c_j = 0 (rows).  For a smaller S, one product per
        member.  A frame of another dimension than the members is not shared.
        """
        if self.basis_change.n != t.n:
            return False
        if not self.shared_indices:  # nothing shared, nothing to check
            return True
        e, rows = _frame_selection(self), self.side == "rows"
        if len(self.shared_indices) < t.n - 1:
            images = [e * m for m in t] if rows else [m * e for m in t]
            return all(image == images[0] for image in images[1:])
        readings = [t._difference_rows[0, j] for j in range(1, t.p)]
        if any(r is None and m != t[0] for r, m in zip(readings, t[1:])):
            return False  # A_0 - A_j has rank >= 2
        columns = _columns(e.re), _columns(e.im)
        for w, _, (c, ci), _ in filter(None, readings):
            re, im = (_product(_matmul, e.re, e.im, [c], ci and [ci]) if rows  # E_S^T·U·c_j
                      else _product(_matmul, w.re, w.im, *columns))  # w_j·U^{-1}·E_S
            if any(chain(*re, *(im or ()))):
                return False
        return True


def _frame_selection(frame):
    """The frame's shared part: the rows S of U, E_S^T·U, on a row frame
    and the columns S of U^{-1}, U^{-1}·E_S, on a column frame."""
    s = frame.shared_indices
    if frame.side == "rows":
        m, cut = frame.basis_change, lambda p: [p[k] for k in s]
    else:
        m, cut = frame.inverse, lambda p: [[r[k] for k in s] for r in p]
    return _matrix(m.den, cut(m.re), m.im and cut(m.im))


def _chain(start, columns, length):
    """(re, im) of the integer rows r·M^k for k < length, start the one-row part
    (r, ri) and columns the (re, im) columns of M; im None when all are real."""
    r, ri = start
    parts = [(r, ri or columns[1] and [[0] * len(r[0])])]  # complex from the start when M is
    for _ in range(length - 1):
        parts.append(_product(_matmul, *parts[-1], *columns))
    return (p[0] and [q for (q,) in p] for p in zip(*parts))


def _vanishes(*terms):
    """Whether sum k·(re + i*im) over the terms (k, (re, im)) of integer rows is 0."""
    for part in (0, 1):
        total = reduce(lambda acc, term: _lin(acc, term[1][part], 1, term[0]), terms, None)
        if total and any(chain(*total)):
            return False
    return True


def pseudo_reflection_pairs(t: MatrixTuple) -> dict:
    """{(i, j): whether A_i·A_j^{-1} is a pseudo-reflection} for i < j,
    in lexicographic order.  Every member must be invertible; a
    singular one is a ValueError naming it.

    >>> t = levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4))])
    >>> pseudo_reflection_pairs(t)
    {(0, 1): True}
    """
    _check_invertible(t)  # A_i·A_j^{-1} - I = (A_i - A_j)·A_j^{-1}: the rank of A_i - A_j
    return {pair: row is not None for pair, row in t._difference_rows.items()}


def _check_invertible(t: MatrixTuple):
    """A named error for the first singular member: det = ±cp(0)."""
    for idx, cp in enumerate(t._char_polys):
        if not (cp.re[0] or cp.im and cp.im[0]):
            raise ValueError("member %d is singular" % (idx + 1,))


def _rank_one_row(den, re, im):
    """(w, pc, column, den) for d = (re + i*im)/den of rank 1, None for any
    other rank: w the one RREF row as a 1×n matrix, pc its pivot and column
    the integers (re, im) of d's column pc, so that d = (column/den)·w.  With
    r the first nonzero row and pc its first nonzero entry, d has rank 1
    exactly when every row h is h[pc]/r[pc] times r: den·d·r[pc] equals the
    outer product of column and r, two Gaussian products on the integers."""
    k = next((k for k in range(len(re)) if any(re[k]) or im and any(im[k])), None)
    if k is None:
        return None
    r, ri = re[k], im and im[k]
    pc = next(j for j, x in enumerate(r) if x or ri and ri[j])
    column = [h[pc] for h in re], im and [h[pc] for h in im]
    outer = _product(_outer, *column, r, ri)
    if _product(_scale, re, im, r[pc], ri and ri[pc]) != outer:
        return None
    s, u, ui = _over(r, ri, pc)
    return _matrix(s, [u], ui and [ui]), pc, column, den


def _outer(column, row):
    return [[x * y for y in row] for x in column]


def _over(re, im, k):
    """(s, re', im'): the integer row re + i*im over its entry k is
    (re' + i*im')/s, s that entry's squared modulus; im' None when im is."""
    a, b = re[k], im[k] if im else 0
    (u,), ui = _product(_scale, [re], im and [im], a, im and -b)
    return a * a + b * b, u, ui and ui[0]


def _sheared(s, y, t, last):
    """The integer rows s·e_j - y_j·t for j != last, in order."""
    n = len(t)
    return [[s * (k == j) - y[j] * t[k] for k in range(n)] for j in range(n) if j != last]


def common_frame(t: MatrixTuple) -> CommonFrame:
    """A basis in which the tuple members share n-1 rows or columns.

    Requires every member invertible and every ratio A_i·A_j^{-1} a
    pseudo-reflection (each violation is reported with the offending
    member pair), so that every difference A_i - A_j has rank 1.  The
    construction follows the kernel/image dichotomy of these
    differences.  Write A_0 - A_j = v_j·w_j^T.  A difference
    A_j - A_k = v_k·w_k^T - v_j·w_j^T of rank 1 needs v_j ∥ v_k or
    w_j ∥ w_k, so either all the w are parallel or all the v are: if
    w_1 ∦ w_2, then v_1 ∥ v_2, and each further v_j is parallel to v_1
    (if w_j ∦ w_1) or to v_2 (if w_j ∥ w_1, so w_j ∦ w_2).

    Each difference A_i - A_j is read once, on its integers, by
    _rank_one_row: its first nonzero row, scaled to 1 at its first
    nonzero entry pc, is its one RREF row w, and its kernel is the
    hyperplane {x : w·x = 0}, so two differences have the same kernel
    exactly when their w are equal.  No elimination follows: X = U^{-1}
    and U are written down, last the last index where w, or v, is nonzero.

    * all difference kernels equal one hyperplane W = ker w, as they do
      when the w are parallel: the members agree on W, so the columns of
      X, the rref basis e_j - (w_j/w_last)·e_last of W for j != last
      (w·x = 0 fixes x_last, and w_j = 0 past last), then e_pc, outside W
      as w_pc = 1, exhibit n-1 shared columns.  U's rows are
      e_j - [j = pc]·w for j != last, then w;
    * otherwise the w are not all parallel, so the v are, and every
      difference image is the one line span(v), v the column pc of
      A_0 - A_1 scaled to 1 at its first nonzero entry: with U·v = e_0,
      every U·(A_i - A_j) is supported in row 0, so the members share the
      remaining n-1 rows.  X = [v, e_k for k != last], and U's rows are
      e_last/v_last, then e_k - (v_k/v_last)·e_last for k != last.

    Either way the frame holds by construction, and frame.verify(t) is
    left to the functions that take a frame from their caller.
    """
    for (i, j), ok in pseudo_reflection_pairs(t).items():
        if not ok:
            raise ValueError(
                "ratio of members %d and %d is not a pseudo-reflection"
                % (i + 1, j + 1)
            )
    n, table = t.n, [t._difference_rows[0, j] for j in range(1, t.p)]
    w, pc, column, _ = table[0]
    columns = all(row[0] == w for row in table[1:])  # one kernel, ker w
    p, pi = (w.re[0], w.im and w.im[0]) if columns else column
    nonzero = [k for k in range(n) if p[k] or pi and pi[k]]
    first, last = nonzero[0], nonzero[-1]
    e, zero = [int(k == last) for k in range(n)], [0] * n
    s, z, zi = _over(p, pi, last)  # p/p_last = (z + i*zi)/s
    sheared = _sheared(s, z, e, last), zi and _sheared(0, zi, e, last)
    if columns:
        f = [int(k == pc) for k in range(n)]  # e_pc, as e is e_last
        x = s, sheared[0] + [[s * g for g in f]], zi and sheared[1] + [zero]
        u = w.den, _sheared(w.den, f, p, last) + [p], pi and _sheared(0, f, pi, last) + [pi]
        side, shared = "columns", tuple(range(n - 1))
    else:  # every difference has the image of A_0 - A_1
        y, v, vi = _over(p, pi, first)  # v/y is p scaled to 1 at first
        x = y, [v] + _sheared(y, zero, e, last), vi and [vi] + [zero] * (n - 1)
        u = (s, [[z[first] * g for g in e]] + sheared[0],
             zi and [[zi[first] * g for g in e]] + sheared[1])
        side, shared = "rows", tuple(range(1, n))
    basis = _matrix(x[0], *map(_columns, x[1:]))
    return CommonFrame(basis_change=_matrix(*u), side=side, shared_indices=shared, inverse=basis)


def find_stabilized_subspace(t: MatrixTuple, frame: CommonFrame, lam) -> dict:
    """A common invariant line or hyperplane for a framed tuple with the
    common eigenvalue lam, found in the tuple's own coordinates.

    With U the frame's basis change and S its shared indices, take
    B = U[S, :] and the members A_i on a row frame, B = (U^{-1}[:, S])^T
    and the transposes A_i^T on a column frame.  If R = B·(A_0 - lam)
    has a one-dimensional kernel, its vector v is a common eigenvector;
    otherwise v = c·B, c the first basis vector of the left kernel of R,
    is a common left eigenvector for lam.  Neither needs checking per
    member: the members share the frame, so B·(A_i - lam) = R for every
    i.  Each A_i has a lam-eigenvector, it lies in ker R = span(v), and
    c·R = 0 reads (c·B)·A_i = lam·(c·B).  The answer is {"line":
    span(v)} or {"hyperplane": ker(v)}: the two branches swap on the
    transposes.

    >>> d = [[2, 0, 0], [0, 2, 0], [0, 0, 5]]
    >>> t = MatrixTuple(tuple(ExactMatrix(d[:2] + [r]) for r in
    ...     ([0, 0, 5], [1, 0, 5], [0, 1, 5])))
    >>> find_stabilized_subspace(t, common_frame(t), 2)
    {'hyperplane': span{(0, 1, 0), (0, 0, 1)}}
    """
    lam = Q(lam)
    for idx, cp in enumerate(t._char_polys):
        if cp.evaluate(lam):
            raise ValueError(
                "%s is not an eigenvalue of member %d" % (lam, idx + 1)
            )
    if not frame.verify(t):
        raise ValueError("members do not share the given frame")
    rows = frame.side == "rows"
    b = _frame_selection(frame) if rows else _frame_selection(frame).transpose()
    a0 = t[0] if rows else t[0].transpose()
    r = b * (a0 - ExactMatrix.identity(t.n) * lam)
    null = kernel(r)
    eigenvector = null.dim == 1
    if eigenvector:
        v = null.basis[0]
    else:
        left_null = kernel(r.transpose())
        if left_null.is_zero():
            raise ValueError("shared rows admit neither eigenvector nor covector")
        v = (ExactMatrix([left_null.basis[0]]) * b).row(0)
    if eigenvector == rows:
        return {"line": Subspace([v])}
    return {"hyperplane": kernel(ExactMatrix([v]))}


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
    g = t._char_poly_gcd
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
    if any(not v for v in s):
        raise ValueError("spectrum values must be nonzero")
    return companion_of_operator(Poly.from_roots(s))


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
    common = set(spectra[0])
    for s in spectra[1:]:
        common &= set(s)
    if common:
        value = sorted(common, key=_sort_key)[0]
        raise ValueError("value %s lies in every spectrum" % (value,))
    return MatrixTuple(tuple(companion_from_spectrum(s) for s in spectra))


def levelt_normal_form(t: MatrixTuple, frame: CommonFrame):
    """Conjugate a column-framed tuple to its unique companion form.

    Preconditions, each checked on entry: a column frame with n-1
    shared indices, members invertible and sharing those columns,
    characteristic polynomials with constant gcd (no common spectrum
    value).  Returns (U, canon) with U·A_i·U^{-1} = canon[i], each
    canon[i] the companion matrix of char_poly(A_i).

    U^{-1} = X = [x, A_0·x, .., A_0^{n-1}·x] is the Krylov basis of a
    cyclic vector x (Beukers-Heckman, Invent. Math. 95, 1989, §3).  The
    members agree on the hyperplane W = {v : y·v = 0}, y the row of the
    frame's U at its one non-shared index, so every nonzero difference
    A_0 - A_j = c_j·w_j has w_j = w, the RREF row of y.  x spans the
    kernel of the n-1 rows w·A_0^k, k = 0..n-2, so A_0^k·x lies in W and
    A_i·A_0^k·x = A_0^{k+1}·x for k < n-1: in the basis X every member
    has the companion's first n-1 columns.

    The preconditions make that kernel a line and X a basis.  Every
    member agrees with A_0 on an A_0-invariant subspace V of W, so
    char_poly(A_0|V) divides every char_poly(A_i), and the constant gcd
    forces V = 0.  The spaces {x : y·A_0^k·x = 0 for k <= j}, W at
    j = 0, lose at most one dimension per step and stop shrinking only
    at such a V, so the kernel at j = n-2 is a line.  The span of x's
    Krylov vectors is A_0-invariant; of dimension d < n, it would be
    spanned by x, .., A_0^{d-1}·x and so lie in W.

    U is Y/σ, not an inverse, Y = w·adj(X - A_0) read as the rows y_k of
    its X^k coefficients: y_{n-1} = w, Y·A_0 = C_0·Y by Cayley-Hamilton,
    and y_1, .., y_{n-1} recombine the w·A_0^k, k <= n-2, triangularly, so
    x spans their kernel; σ = y_0·x.  On the integers Y is the rows of
    MatrixTuple._adjugate for w, and x is scaled so that, over the shared
    indices k in the frame's order, the first nonzero entry of
    (U_frame·A_0^{n-2}·x)_k is 1.

    The checks certify (U, canon) from the exact readings alone, trusting
    neither the characteristic polynomials nor the cached rows.  U·x = e_0
    (x the one kernel row of U's last n-1 rows, σ != 0) and U·A_0 = C_0·U
    (one product; C_0·U is U's rows shifted down plus l_0⊗u_{n-1}, l a
    companion's last column) give U·A_0^k·x = e_k: U·X = I.  Then
    u_{n-1} = α·w, α = u_{n-1}[pc] at w's pivot pc, gives
    w·U^{-1} = e_{n-1}^T/α, so U·A_j·U^{-1} = C_0 - (U·c_j/α)⊗e_{n-1},
    whose last column member j's check U·c_j = α·(l_0 - l_j), one
    matrix-vector product, makes l_j; a member equal to A_0 needs C_j = C_0.
    """
    if frame.side != "columns":
        raise ValueError("normal form requires a column frame")
    n = t.n
    if len(frame.shared_indices) != n - 1:
        raise ValueError("normal form requires a frame sharing n - 1 columns")
    _check_invertible(t)
    if not frame.verify(t):
        raise ValueError("members do not share the given frame")
    g = t._char_poly_gcd
    if g.degree >= 1:
        raise ValueError(
            "spectrum-intersection hypothesis violated: "
            "common characteristic factor of degree %d" % g.degree
        )
    a0, u_frame, e, cps = t[0], frame.basis_change, t[0].den, t._char_polys
    readings = [t._difference_rows[0, j] for j in range(1, t.p)]
    w, pc, *_ = next(filter(None, readings))  # all A_j = A_0 would leave the gcd chi_0
    y, yi = t._adjugate[1][w]
    x = _matrix(1, y[1:], yi and yi[1:]).kernel_matrix()  # the one elimination
    (s,), si = _product(_matmul, [y[0]], yi and [yi[0]], x.re, x.im)  # sigma, one per row
    s, si = s[0], si[0][0] if si else 0
    if x.nrows > 1 or not (s or si):
        raise ValueError("normal form verification failed: the Krylov rows are not a basis")
    v, vi = (p and p[-1] for p in _chain((x.re, x.im), (a0.re, a0.im), n - 1))  # M^(n-2)·x
    q, qi = _product(_matmul, u_frame.re, u_frame.im, [v], vi and [vi])
    a, b = next((q[k][0], qi[k][0] if qi else 0) for k in frame.shared_indices
                if q[k][0] or qi and qi[k][0])  # U = Y·(a + i*b)/(s + i*si) over positive dens
    u = _matrix(u_frame.den * e ** (n - 2) * (s * s + si * si),
                *_product(_scale, y, yi, a * s + b * si, b * s - a * si or None))
    canon, last = [], (u.re[-1], u.im and u.im[-1])  # u_{n-1}
    at = last[0][pc], last[1] and last[1][pc] or None  # den(U)·u_{n-1}[pc], where w is 1
    for j, (cp, reading) in enumerate(zip(cps, [None, *readings])):
        c = companion_of_operator(cp)
        d, l = c.den, [p and [[z[-1] for z in p]] for p in (c.re, c.im)]  # C_j's last column l/d
        if not j:  # d·U·A_0 = e·(d·(U's rows shifted down) + l⊗u_{n-1})
            d0, l0, ua = d, l, _product(_matmul, u.re, u.im, _columns(a0.re), _columns(a0.im))
            ok = _vanishes((d, ua), (-d * e, [p and [[0] * n, *p[:-1]] for p in (u.re, u.im)]),
                           (-e, _product(_outer, *(p and p[0] for p in l), *last)))
        elif reading is None:  # A_j = A_0: the frame check refuses a rank >= 2 difference
            ok = c == canon[0]
        else:  # A_0 - A_j = (C/dd)·w: U·C/dd = (l_0/d0 - l/d)·u_{n-1}[pc]
            _, _, (cj, ci), dd = reading
            (uc,), uci = _product(_matmul, [cj], ci and [ci], u.re, u.im)  # (U·C)^T
            right = _product(_scale, *(_lin(p, q, d, -d0) for p, q in zip(l0, l)), *at)
            ok = _vanishes((d0 * d, ([uc], uci)), (-dd, right))
        if not ok:
            raise ValueError("normal form verification failed for member %d" % (j + 1,))
        canon.append(c)
    if not _vanishes((w.den, ([last[0]], last[1] and [last[1]])),
                     (-1, _product(_scale, w.re, w.im, *at))):  # den(w)·u_{n-1} = at·den(w)·w
        raise ValueError("normal form verification failed: the last row of U is not parallel to w")
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
    if a._char_polys != b._char_polys:
        return None
    u_a, _ = levelt_normal_form(a, common_frame(a))
    u_b, _ = levelt_normal_form(b, common_frame(b))
    u = u_b.inverse() * u_a
    for m_a, m_b in zip(a, b):
        if u * m_a != m_b * u:  # u is invertible by construction
            raise AssertionError("conjugator verification failed")
    return u


def is_irreducible_pair(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Irreducibility test for a pair with pseudo-reflection ratio.

    For invertible a, b with a·b^{-1} a pseudo-reflection, the pair
    generates an irreducible algebra exactly when the characteristic
    polynomials are coprime.  A singular argument is a ValueError naming
    it as member 1 or 2.

    >>> a = companion_from_spectrum(Spectrum((1, 2)))
    >>> b = companion_from_spectrum(Spectrum((3, 4)))
    >>> is_irreducible_pair(a, b)
    True
    """
    t = MatrixTuple((a, b))
    if not pseudo_reflection_pairs(t)[0, 1]:
        raise ValueError("the ratio is not a pseudo-reflection")
    return t._char_poly_gcd.degree == 0


def algebra_span_dimension(t: MatrixTuple) -> int:
    """Dimension of the unital algebra generated by the tuple members.

    Breadth-first closure: starting from the identity, left-multiply
    every independent element by every generator.  Each word W is the
    integer row den*W flattened, inserted by linalg's Jordan-Bareiss step.
    A tuple with a non-real member has its rows realified: they span the
    complex span of the words seen over the reals, closed under i, so a
    word adds two rows or none and the dimension is half the row count.
    The tuple acts irreducibly exactly when the result is n².
    """
    n = t.n
    real = all(g.im is None for g in t)
    rows, pivots = [], []

    def add(m):
        """Insert m's rows; False when m lies in the span of the words."""
        flat = [list(chain(*m.re))]
        if not real:
            flat = _realified(flat, [list(chain(*(m.im or [[0] * n] * n)))])
        return all(_insert(rows, pivots, v) for v in flat)  # i*W is in the span when W is

    words = [ExactMatrix.identity(n)]
    add(words[0])
    for x in words:  # breadth first: the loop reads the words appended to it
        for g in t:
            if add(candidate := g * x):
                words.append(candidate)
    return len(rows) if real else len(rows) // 2


RigidityReport = namedtuple("RigidityReport", "pairs frame frame_reason certificate"
                            " normal_form normal_form_reason irreducible algebra_dimension")


def rigidity_report(t: MatrixTuple) -> RigidityReport:
    """Levelt's chain of facts for t, each computed once from what t caches:
    the ratio table pairs (pseudo_reflection_pairs); the common_frame, or
    frame_reason; the shared characteristic factor certificate, which makes t
    reducible, or None; the (U, canon) of levelt_normal_form, or
    normal_form_reason; irreducible, for a pseudo-reflection pair only
    (disjoint spectra, Beukers-Heckman 1989, §3), else None; and
    algebra_dimension, algebra_span_dimension(t).
    """
    pairs = pseudo_reflection_pairs(t)
    frame = frame_reason = normal_form = normal_form_reason = None
    try:
        frame = common_frame(t)
    except ValueError as exc:
        frame_reason = str(exc)
    g = t._char_poly_gcd
    certificate = g if g.degree >= 1 else None
    if certificate is not None:
        try:
            normal_form_reason = "members share the characteristic factor %s" % (g,)
        except ValueError:  # past the int-string digit limit
            normal_form_reason = "members share a characteristic factor of degree %d" % g.degree
    elif frame is None:
        normal_form_reason = frame_reason
    elif frame.side != "columns":
        normal_form_reason = ("frame lies on the rows side; the companion form applies to"
                              " the transposed tuple")
    else:
        normal_form = levelt_normal_form(t, frame)
    irreducible = certificate is None if t.p == 2 and pairs[0, 1] else None
    return RigidityReport(pairs, frame, frame_reason, certificate, normal_form,
                          normal_form_reason, irreducible, algebra_span_dimension(t))
