"""Dense exact linear algebra over the Gaussian rationals.

Everything here is deterministic: elimination always takes the first nonzero
pivot, and subspaces are kept in a canonical reduced-row-echelon basis so
that equal subspaces compare equal structurally.

An ExactMatrix is stored on integers: one positive denominator den and the
integer rows re and im of den times the real and the imaginary parts, im
None when every entry is real, reduced by the gcd of den and all entries
(none is taken when den is 1, which is already coprime to them), so
equality and hashing are structural.  Its rows of canonical scalars are
built anew on each read.  Products with matrices, vectors and scalars, sums,
negation and transposes run on the integers through the kernels of
scalars, and so does char_poly (Berkowitz's division-free algorithm) on
den times a real or a complex matrix.  One fraction-free step, _insert,
reduces an integer row against the rows kept so far: _eliminate runs it
row by row for rref, kernel_matrix and inverse (on the realified rows
of a complex matrix), and rigidity.algebra_span_dimension on its words;
det is the constant term of char_poly.  A Subspace is one _reduce of the
integer rows of its vectors or of a kernel_matrix, its nonzero rows kept
as one matrix: invariance is one product with them, and dim, equality and
hashing read that matrix and its pivots.
companion_of_operator is the one companion-matrix builder, for extension
and rigidity alike; it writes its integer rows over the coefficients' lcm.
"""

from itertools import chain
from math import gcd, lcm

from .polynomials import Poly, _from_ints
from .scalars import (Q, GaussianRational, _dot, _lin, _matmul, _product, _scale,
                      integer_row, rational_row)


def _cut(ints, nrows):
    width = len(ints) // max(nrows, 1)
    return [ints[k * width : (k + 1) * width] for k in range(nrows)]


def _columns(rows):
    return rows and list(zip(*rows))


def _insert(rows, pivots, v):
    """One Jordan-Bareiss step: reduce the integer row v against the kept
    rows, rows[i] d times its RREF row at pivot pivots[i] (so d is the entry
    there); keep it when it is not in their span, and say whether it was.

    top = d*v - sum(v[pc]*row) is zero at the kept pivots.  At its first
    nonzero entry p, at pc, every kept row becomes (p*row - row[pc]*top) // d
    (exact: the entries stay minors), top is kept and d becomes p.  Rows
    are zero left of their pivot, so row operations start there.
    """
    if len(rows) == len(v):  # every column has a pivot: v reduces to zero
        return False
    d = rows[-1][pivots[-1]] if rows else 1
    top = None
    for pc, row in zip(pivots, rows):
        if (c := v[pc]) and top is None:  # d*v and the first subtraction in one pass
            top = [d * a - c * b for a, b in zip(v, row)]
        elif c:
            top[pc:] = [a - c * b for a, b in zip(top[pc:], row[pc:])]
    top = top or (v if d == 1 else [d * a for a in v])
    p = next(filter(None, top), 0)  # top's first nonzero entry
    if not p:
        return False
    pc = top.index(p)
    for start, row in zip(pivots, rows):
        f = row[pc]
        if f or p != d:
            row[start:] = [(p * a - f * b) // d for a, b in zip(row[start:], top[start:])]
    rows.append(top)
    pivots.append(pc)
    return True


def _eliminate(work):
    """Reduce integer rows in place, one _insert step a row, to D times
    their RREF: the pivot rows sorted by pivot, then zero rows; return the
    pivots and D.  Complex matrices come realified (ExactMatrix._reduce)."""
    rows, pivots = [], []
    for v in work:
        _insert(rows, pivots, v)
    order = sorted(zip(pivots, rows))  # the pivots differ: no row is compared
    work[:] = [r for _, r in order] + [[0] * len(work[0])] * (len(work) - len(rows))
    return [pc for pc, _ in order], rows[-1][pivots[-1]] if rows else 1


def _realified(re, im):
    """interleave(a, b) and, for i times it, interleave(-b, a), for each
    integer row a + i*b: their real span is the complex span of those rows
    seen over the reals, closed under i and of twice its dimension."""
    return [r for a, b in zip(re, im)
            for r in (list(chain(*zip(a, b))), list(chain(*zip([-y for y in b], a))))]


class ExactMatrix:
    """Immutable dense matrix with GaussianRational entries, stored as
    (re + i*im)/den on integer rows.

    >>> m = ExactMatrix([[1, 2], [3, 4]])
    >>> m.det()
    -2
    >>> m.inverse() * m == ExactMatrix.identity(2)
    True
    """

    __slots__ = ("den", "re", "im", "nrows", "ncols")

    def __new__(cls, rows):
        rows = [list(map(Q, row)) for row in rows]
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged rows")
        s, re, im = integer_row([x for row in rows for x in row])
        return _matrix(s, _cut(re, len(rows)), im and _cut(im, len(rows)))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return _matrix, (self.den, self.re, self.im)

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return _matrix(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    # -- access ---------------------------------------------------------------

    @property
    def rows(self):
        """The entries, rows of canonical scalars built on each read."""
        return tuple(map(self.row, range(self.nrows)))

    def __getitem__(self, key):
        i, j = key
        return self.row(i)[j]

    def row(self, i):
        return tuple(rational_row(self.re[i], self.den, self.im and self.im[i]))

    def transpose(self):
        return _matrix(self.den, _columns(self.re), _columns(self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other, sign=1):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return _matrix(den, _lin(self.re, other.re, a, b), _lin(self.im, other.im, a, b))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            s, (c,), ci = integer_row([Q(other)])
            re, im = _product(_scale, self.re, self.im, c, ci and ci[0])
            return _matrix(self.den * s, re, im)
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            columns = _columns(other.re), _columns(other.im)
            re, im = _product(_matmul, self.re, self.im, *columns)
            return _matrix(self.den * other.den, re, im)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self * other
        return NotImplemented

    def apply(self, vector):
        """Matrix--vector product; vectors are plain tuples of scalars,
        cleared to integers once and divided once."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        s, v, vi = integer_row(list(map(Q, vector)))
        re, im = _product(_matmul, self.re, self.im, [v], vi and [vi])
        (re,), im = _columns(re), im and _columns(im)[0]
        return tuple(rational_row(re, self.den * s, im))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.den, self.re, self.im) == (other.den, other.re, other.im)

    def __hash__(self):
        return hash((self.den, self.re, self.im))

    def __str__(self):
        return "[%s]" % "; ".join(" ".join(map(str, row)) for row in self.rows)

    __repr__ = __str__

    # -- elimination ------------------------------------------------------------

    def _reduce(self, augment=False):
        """(pivots, d, re, im): the pivot columns and the integer parts of d
        times the RREF of the stored rows, [den*A | den*I] when augment;
        im is None for a real matrix.

        A complex matrix reduces through its realification (_realified).
        Its real span is closed under multiplication by i, so its pivots
        come in pairs 2j, 2j+1, and the row at pivot 2j, de-interleaved, is
        d times the complex RREF row at pivot j.
        """
        unit = range(self.nrows) if augment else ()
        re = [list(r) + [self.den * (i == j) for j in unit] for i, r in enumerate(self.re)]
        if self.im is None:
            return (*_eliminate(re), re, None)
        work = _realified(re, [list(b) + [0] * len(unit) for b in self.im])
        pivots, d = _eliminate(work)
        rows = work[::2]
        return [pc // 2 for pc in pivots[::2]], d, [r[::2] for r in rows], [r[1::2] for r in rows]

    def rref(self):
        """Reduced row echelon form.

        Returns (rref_matrix, pivot_columns).  First-nonzero pivot choice,
        so the result is deterministic.
        """
        pivots, d, re, im = self._reduce()
        return _matrix(d, re, im), tuple(pivots)

    def kernel_matrix(self):
        """A basis of the right kernel as the rows of one matrix, None when
        the kernel is zero: for each free column f, d at f and minus the
        entries in column f of the RREF rows at their pivots."""
        pivots, d, re, im = self._reduce()
        free = [j for j in range(self.ncols) if j not in pivots]

        def basis(rows, top):
            at = dict(zip(pivots, rows))
            return [[-at[j][f] if j in at else top * (j == f) for j in range(self.ncols)]
                    for f in free]

        if free:
            return _matrix(d, basis(re, d), im and basis(im, 0))

    def det(self):
        """det A = (-1)^n * chi_A(0): the constant term of char_poly, read
        on its integers, so det eliminates nothing itself.

        >>> ExactMatrix([[Q(0, 1), 1], [0, 2]]).det()
        2*i
        """
        cp, sign = self.char_poly(), (-1) ** self.n
        return rational_row([sign * cp.re[0]], cp.den, cp.im and [sign * cp.im[0]])[0]

    def inverse(self):
        n = self.n
        pivots, d, re, im = self._reduce(augment=True)
        if pivots[-1] != n - 1:  # [A | I] has rank n, with a pivot in I when A is singular
            raise ValueError("matrix is singular")
        return _matrix(d, [r[n:] for r in re], im and [r[n:] for r in im])

    def char_poly(self):
        """Characteristic polynomial det(X*I - self), monic of degree n.

        Berkowitz's algorithm (Inform. Process. Lett. 18, 1984), which
        divides nowhere.  With A_r the leading r x r block, its next
        row R, column S and diagonal entry a, the coefficients of
        det(X*I - A_{r+1}), highest first, are those of det(X*I - A_r)
        convolved with [1, -a, -R*S, -R*A_r*S, .., -R*A_r^(r-1)*S] and
        cut at length r + 2.  The loop runs on the integers M = den*A,
        whose X^k coefficient q_k is den^(n-k) times A's: a real matrix on
        its integer rows, a complex one on its Gaussian-integer (re, im)
        pairs with a pair dot product.  It keeps (-1)^(r+1) times
        det(X*I - M_r), so the column is [-1, a, R*S, ..] and no entry is
        negated.  O(n^4) products.

        >>> ExactMatrix([[0, -2], [1, 3]]).char_poly()
        X^2-3*X+2
        >>> ExactMatrix([[Q(0, 1), 1], [0, 2]]).char_poly()
        X^2+(-2-1*i)*X+(2*i)
        """
        n, d = self.n, self.den
        if self.im:
            rows, product, one = [list(zip(*p)) for p in zip(self.re, self.im)], _pair_dot, (-1, 0)
        else:
            rows, product, one = self.re, _dot, -1
        p = [one]  # (-1)^(r+1) det(X*I - M_r), highest coefficient first
        for r in range(n):
            block = [row[:r] for row in rows[:r]]
            head, v = rows[r][:r], [row[r] for row in rows[:r]]
            column = [one, rows[r][r]]
            for k in range(r):
                column.append(product(head, v))  # R*M_r^k*S
                if k < r - 1:
                    v = [product(row, v) for row in block]
            p = [product(column[k::-1], p) for k in range(r + 2)]
        # A's X^(n-j) coefficient is p[j]*den^(n-j) over (-1)^(n+1)*den^n
        re, im = zip(*p) if self.im else (p, None)
        re, im = ([q * d ** (n - j) for j, q in enumerate(x)] if x else None for x in (re, im))
        return _from_ints((-1) ** (n + 1) * d**n, re[::-1], im and im[::-1])


def _pair_dot(u, v):
    """(re, im) of the sum of x*y over two sequences of (re, im) pairs."""
    re = im = 0
    for (a, b), (c, e) in zip(u, v):
        re += a * c - b * e
        im += a * e + b * c
    return re, im


_SETTERS = [getattr(ExactMatrix, name).__set__ for name in ExactMatrix.__slots__]


def _matrix(den, re, im=None):
    """The ExactMatrix (re + i*im)/den of integer rows, den nonzero, stored
    reduced: im None when zero, den > 0 and coprime to the entries."""
    if not re or not re[0]:
        raise ValueError("matrix must have at least one row and column")
    im = im if im and any(map(any, im)) else None
    g = 1 if den == 1 else gcd(den, *chain(*re), *chain(*(im or ())))
    g = -g if den < 0 else g
    if g == 1:  # already reduced, as most products are
        parts = (p and tuple(map(tuple, p)) for p in (re, im))
    else:
        parts = (p and tuple(tuple(x // g for x in r) for r in p) for p in (re, im))
    m = object.__new__(ExactMatrix)
    for set_slot, value in zip(_SETTERS, (den // g, *parts, len(re), len(re[0]))):
        set_slot(m, value)
    return m


def companion_of_operator(operator) -> ExactMatrix:
    """Companion matrix of a monic operator given by ascending
    coefficients (a_0, .., a_{r}, 1) or a monic Poly: subdiagonal of
    ones, last column (-a_0, .., -a_r).

    >>> companion_of_operator([2, 3, 1]).rows
    ((0, -2), (1, -3))
    """
    if isinstance(operator, Poly):
        s, re, im = operator.den, operator.re, operator.im
    else:
        s, re, im = integer_row(list(map(Q, operator)))
    if not re:
        raise ValueError("operator has no coefficients")
    if re[-1] != s or im and im[-1]:
        raise ValueError("operator must be monic (leading coefficient 1)")
    order = len(re) - 1
    if order < 1:
        raise ValueError("operator must have positive order")
    rows = [[s * (j == i - 1) for j in range(order - 1)] + [-x] for i, x in enumerate(re[:order])]
    return _matrix(s, rows, im and [[0] * (order - 1) + [-x] for x in im[:order]])


class Subspace:
    """Subspace of Q(i)^n stored as its canonical RREF basis on integers;
    basis reads those rows as scalars.

    >>> a = Subspace([(2, 4, 0), (1, 2, 1)])
    >>> a
    span{(1, 2, 0), (0, 0, 1)}
    >>> a == Subspace([(1, 2, 5), (0, 0, 3)])
    True
    """

    __slots__ = ("ambient", "_pivots", "_rref")

    def __new__(cls, vectors, ambient=None):
        rows = [tuple(v) for v in vectors]  # ExactMatrix reads the entries
        ambient_dim = len(rows[0]) if rows else ambient
        if ambient_dim is None:
            raise ValueError("empty basis needs an explicit ambient dimension")
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vectors of unequal length")
        if ambient not in (None, ambient_dim):
            raise ValueError("ambient dimension mismatch")
        return _subspace(ExactMatrix(rows) if rows and ambient_dim else None, ambient_dim)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace, (self.basis, self.ambient)

    @property
    def basis(self):
        """The RREF rows as scalars, built on each read."""
        return () if self._rref is None else self._rref.rows

    @property
    def dim(self):
        return len(self._pivots)

    def is_zero(self):
        return not self._pivots

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._rref == other._rref

    def __hash__(self):
        return hash((self.ambient, self._rref))

    def is_invariant_under(self, m):
        if (m.nrows, m.ncols) != (self.ambient, self.ambient):
            raise ValueError("ambient dimension mismatch")
        return self._rref is None or self._spans(self._rref * m.transpose())

    def _spans(self, x):
        """Whether the rows of the ExactMatrix x (for invariance, the images
        _rref * m^T of the basis) lie in the span: the basis rows are 1 at
        their own pivot and 0 at the others, so x == x[:, pivots] * _rref."""
        head = (p and [[r[pc] for pc in self._pivots] for r in p] for p in (x.re, x.im))
        return x == _matrix(x.den, *head) * self._rref

    def __str__(self):
        return "span{%s}" % ", ".join(
            "(%s)" % ", ".join(str(x) for x in v) for v in self.basis
        )

    __repr__ = __str__


def _subspace(m, ambient):
    """The Subspace of Q(i)^ambient spanned by the rows of the ExactMatrix m
    (none when None): the nonzero rows of one _reduce, kept as _rref."""
    pivots, d, re, im = ((), 1, (), None) if m is None else m._reduce()
    r = _matrix(d, re[:len(pivots)], im and im[:len(pivots)]) if pivots else None
    space = object.__new__(Subspace)
    for name, value in zip(space.__slots__, (ambient, tuple(pivots), r)):
        object.__setattr__(space, name, value)
    return space


def kernel(m):
    """Kernel of a matrix as a Subspace; basis length = ncols - rank."""
    return _subspace(m.kernel_matrix(), m.ncols)
