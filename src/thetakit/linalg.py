"""Dense exact linear algebra over the Gaussian rationals.

Everything here is deterministic: elimination always takes the first nonzero
pivot, and subspaces are kept in a canonical reduced-row-echelon basis so
that equal subspaces compare equal structurally.

Two integer kernels do the arithmetic.  scalars.dot, behind every matrix
and matrix-vector product and every step of char_poly (Berkowitz's
division-free algorithm), sums on the integer numerators and denominators
of the parts, with one gcd per part.  _gauss_jordan, behind rref, rank,
kernel_vectors, inverse (which reduces [A | I] as lists) and the Subspace
basis, runs fraction-free on integers when every entry is real and keeps
a rational loop for complex entries; det keeps its own loop, as a
reference.  One incremental echelon (Echelon) answers membership for
Subspace.contains, complete_basis and the algebra-span search in rigidity.
companion_of_operator is the one companion-matrix builder, for extension
and rigidity alike.
"""

from bisect import insort

from .polynomials import Poly
from .scalars import ONE, ZERO, Q, GaussianRational, dot, integer_row, rational_row


def _entry(x):
    return x if isinstance(x, GaussianRational) else Q(x)


def _gauss_jordan(rows, ncols):
    """Reduce rows (lists of scalars) in place to RREF, pivoting on the first
    nonzero entry of each of the first ncols columns; return the pivots.
    Rows are zero left of their pivot, so row operations start there.

    Real rows go fraction-free (Jordan-Bareiss): row i is scaled to
    integers by the lcm s_i of its denominators, and each pivot step sets
    every other row to (p*row - f*top) // prev, p the new pivot and prev the
    one before.  The entries stay minors, so the division is exact; at the
    end, with D the last pivot, a pivot row is D times its RREF row and a
    row without pivot D*s_i times what the rational loop leaves.
    """
    scaled = [integer_row(row) for row in rows]
    real = all(im is None for _, _, im in scaled)
    scales = [s for s, _, _ in scaled] if real else None
    work = [ints for _, ints, _ in scaled] if real else rows
    pivots = []
    nrows = len(rows)
    prev = 1
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        pivot_row = next((i for i in range(pr, nrows) if work[i][pc]), None)
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        top = work[pr]
        if real:
            scales[pr], scales[pivot_row] = scales[pivot_row], scales[pr]
            p = top[pc]
            for i, row in enumerate(work):
                f = row[pc]
                if i != pr and (f or p != prev):
                    start = pivots[i] if i < pr else pc  # whole row rescaled
                    row[start:] = [
                        (p * a - f * b) // prev
                        for a, b in zip(row[start:], top[start:])
                    ]
            prev = p
        else:
            inv = top[pc].inverse()
            top[pc:] = [x * inv for x in top[pc:]]
            for i, row in enumerate(work):
                f = row[pc]
                if f and i != pr:
                    row[pc:] = [a - f * b for a, b in zip(row[pc:], top[pc:])]
        pivots.append(pc)
    if real:
        for i, (s, row) in enumerate(zip(scales, work)):
            rows[i] = rational_row(row, prev if i < len(pivots) else prev * s)
    return pivots


class ExactMatrix:
    """Immutable dense matrix with GaussianRational entries.

    >>> m = ExactMatrix([[1, 2], [3, 4]])
    >>> m.rank()
    2
    >>> m.det()
    -2
    >>> m.inverse() * m == ExactMatrix.identity(2)
    True
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        data = tuple(tuple(_entry(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, columns):
        return cls([[col[i] for col in columns] for i in range(len(columns[0]))])

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return ExactMatrix(list(zip(*self.rows)))

    @staticmethod
    def vstack(a, b):
        if a.ncols != b.ncols:
            raise ValueError("column count mismatch")
        return ExactMatrix(list(a.rows) + list(b.rows))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            c = _entry(other)
            return ExactMatrix([[x * c for x in r] for r in self.rows])
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other.rows))
            return ExactMatrix([[dot(ra, col) for col in cols] for ra in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self * other
        return NotImplemented

    def apply(self, vector):
        """Matrix--vector product; vectors are plain tuples."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = [_entry(x) for x in vector]
        return tuple(dot(r, vec) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return "[%s]" % body

    __repr__ = __str__

    # -- elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (rref_matrix, pivot_columns).  First-nonzero pivot choice,
        so the result is deterministic.
        """
        rows = [list(r) for r in self.rows]
        pivots = _gauss_jordan(rows, self.ncols)
        return ExactMatrix(rows), tuple(pivots)

    def rank(self):
        return len(_gauss_jordan([list(r) for r in self.rows], self.ncols))

    def kernel_vectors(self):
        """Basis vectors of the right kernel, from the RREF free columns."""
        rows = [list(r) for r in self.rows]
        pivots = _gauss_jordan(rows, self.ncols)
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            v = [ZERO] * self.ncols
            v[f] = ONE
            for row, pc in zip(rows, pivots):
                v[pc] = -row[f]
            basis.append(tuple(v))
        return basis

    def det(self):
        n = self.n
        rows = [list(r) for r in self.rows]
        det = Q(1)
        for pc in range(n):
            pivot_row = next((i for i in range(pc, n) if rows[i][pc]), None)
            if pivot_row is None:
                return Q(0)
            if pivot_row != pc:
                rows[pc], rows[pivot_row] = rows[pivot_row], rows[pc]
                det = -det
            det = det * rows[pc][pc]
            inv = rows[pc][pc].inverse()
            for i in range(pc + 1, n):
                if rows[i][pc]:
                    f = rows[i][pc] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[pc])]
        return det

    def inverse(self):
        n = self.n
        rows = [
            list(r) + [ONE if j == i else ZERO for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        if len(_gauss_jordan(rows, n)) != n:
            raise ValueError("matrix is singular")
        return ExactMatrix([row[n:] for row in rows])

    def char_poly(self):
        """Characteristic polynomial det(X*I - self), monic of degree n.

        Berkowitz's algorithm (Inform. Process. Lett. 18, 1984), which
        divides nowhere.  With A_r the leading r x r block, its next
        row R, column S and diagonal entry a, the coefficients of
        det(X*I - A_{r+1}), highest first, are those of det(X*I - A_r)
        convolved with [1, -a, -R*S, -R*A_r*S, .., -R*A_r^(r-1)*S] and
        cut at length r + 2.  Every sum of products is one scalars.dot,
        whatever the entries, so real, complex and singular matrices
        run the same loop.  O(n^4) products.

        >>> ExactMatrix([[0, -2], [1, 3]]).char_poly()
        X^2-3*X+2
        >>> ExactMatrix([[Q(0, 1), 1], [0, 2]]).char_poly()
        X^2+(-2-1*i)*X+(2*i)
        """
        n = self.n
        rows = self.rows
        p = [ONE]  # det(X*I - A_r), highest coefficient first
        for r in range(n):
            block = [row[:r] for row in rows[:r]]
            head, v = rows[r][:r], [row[r] for row in rows[:r]]
            column = [ONE, -rows[r][r]]
            for k in range(r):
                column.append(-dot(head, v))  # -R*A_r^k*S
                if k < r - 1:
                    v = [dot(row, v) for row in block]
            p = [dot(column[k::-1], p) for k in range(r + 2)]
        return Poly(p[::-1])


def companion_of_operator(operator) -> ExactMatrix:
    """Companion matrix of a monic operator given by ascending
    coefficients (a_0, .., a_{r}, 1) or a monic Poly: subdiagonal of
    ones, last column (-a_0, .., -a_r).

    >>> companion_of_operator([2, 3, 1]).rows
    ((0, -2), (1, -3))
    """
    if isinstance(operator, Poly):
        coeffs = operator.coeffs
    else:
        coeffs = [_entry(c) for c in operator]
    if not coeffs:
        raise ValueError("operator has no coefficients")
    if coeffs[-1] != ONE:
        raise ValueError("operator must be monic (leading coefficient 1)")
    order = len(coeffs) - 1
    if order < 1:
        raise ValueError("operator must have positive order")
    rows = []
    for i in range(order):
        row = [ZERO] * order
        if i >= 1:
            row[i - 1] = ONE
        row[order - 1] = -coeffs[i]
        rows.append(row)
    return ExactMatrix(rows)


class Echelon:
    """Rows in echelon form, grown one vector at a time.

    Each row is 1 at its pivot, its first nonzero entry, and the rows are
    kept in pivot order, so reducing a vector against them in turn clears
    every pivot column; the vector lies in their span exactly when that
    leaves zero.  Rows are not back-reduced against later rows.

    >>> e = Echelon()
    >>> e.add((1, 2, 0)), e.add((2, 4, 0)), e.add((0, 1, 1)), e.rank
    (True, False, True, 2)
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = list(rows)  # (pivot column, row) in pivot order

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vector):
        v = [_entry(x) for x in vector]
        for pc, row in self.rows:
            c = v[pc]
            if c:
                v[pc:] = [a - c * b for a, b in zip(v[pc:], row[pc:])]
        return v

    def add(self, vector):
        """Add vector to the span; False, changing nothing, if it is in it."""
        v = self.reduce(vector)
        pc = next((k for k, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = v[pc].inverse()
        v[pc:] = [x * inv for x in v[pc:]]
        insort(self.rows, (pc, v), key=lambda row: row[0])
        return True


class Subspace:
    """Subspace of Q(i)^n stored with a canonical RREF basis.

    >>> a = Subspace([(2, 4, 0), (1, 2, 1)])
    >>> a
    span{(1, 2, 0), (0, 0, 1)}
    >>> a == Subspace([(1, 2, 5), (0, 0, 3)]), a.contains((1, 2, 3))
    (True, True)
    """

    __slots__ = ("ambient", "basis", "_echelon")

    def __init__(self, vectors, ambient=None):
        rows = [[_entry(x) for x in v] for v in vectors]
        if rows:
            ambient_dim = len(rows[0])
            if any(len(v) != ambient_dim for v in rows):
                raise ValueError("vectors of unequal length")
            if ambient is not None and ambient != ambient_dim:
                raise ValueError("ambient dimension mismatch")
            pivots = _gauss_jordan(rows, ambient_dim)
        else:
            if ambient is None:
                raise ValueError("empty basis needs an explicit ambient dimension")
            ambient_dim, pivots = ambient, []
        basis = tuple(tuple(r) for r in rows[: len(pivots)])
        object.__setattr__(self, "ambient", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_echelon", Echelon(zip(pivots, basis)))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, vector):
        if len(vector) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return not any(self._echelon.reduce(vector))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def is_invariant_under(self, m):
        return all(self.contains(m.apply(v)) for v in self.basis)

    def __str__(self):
        return "span{%s}" % ", ".join(
            "(%s)" % ", ".join(str(x) for x in v) for v in self.basis
        )

    __repr__ = __str__


def kernel(m):
    """Kernel of a matrix as a Subspace; basis length = ncols - rank."""
    return Subspace(m.kernel_vectors(), ambient=m.ncols)


def complete_basis(vectors, ambient):
    """Extend independent vectors to a full basis with standard basis vectors.

    Deterministic: candidates e_0, e_1, ... are tried in order against one
    echelon and kept when they increase the rank.
    """
    chosen = [tuple(_entry(x) for x in v) for v in vectors]
    if any(len(v) != ambient for v in chosen):
        raise ValueError("ambient dimension mismatch")
    echelon = Echelon()
    for v in chosen:
        echelon.add(v)
    for k in range(ambient):
        if echelon.rank == ambient:
            break
        e = tuple(ONE if i == k else ZERO for i in range(ambient))
        if echelon.add(e):
            chosen.append(e)
    if len(chosen) != ambient:
        raise ValueError("could not complete to a basis")
    return chosen
