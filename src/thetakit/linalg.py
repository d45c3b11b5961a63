"""Dense exact linear algebra over the Gaussian rationals.

Everything here is deterministic: elimination always takes the first nonzero
pivot, and subspaces are kept in a canonical reduced-row-echelon basis so
that equal subspaces compare equal structurally.

One Gauss-Jordan loop on row lists (_gauss_jordan) is behind rref, rank,
kernel_vectors, inverse (which reduces [A | I] as lists) and the Subspace
basis.  One incremental echelon (Echelon) answers membership: it reduces a
vector against rows kept in pivot order, and serves Subspace.contains,
complete_basis and the algebra-span search in rigidity.
"""

from .polynomials import Poly
from .scalars import ONE, ZERO, Q, GaussianRational


def _entry(x):
    return x if isinstance(x, GaussianRational) else Q(x)


def _gauss_jordan(rows, ncols):
    """Reduce rows (lists of scalars) in place to RREF, pivoting on the first
    nonzero entry of each of the first ncols columns; return the pivots.
    Rows are zero left of their pivot, so row operations start there."""
    pivots = []
    nrows = len(rows)
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        pivot_row = next((i for i in range(pr, nrows) if rows[i][pc]), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        top = rows[pr]
        inv = top[pc].inverse()
        top[pc:] = [x * inv for x in top[pc:]]
        for i, row in enumerate(rows):
            f = row[pc]
            if f and i != pr:
                row[pc:] = [a - f * b for a, b in zip(row[pc:], top[pc:])]
        pivots.append(pc)
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
        return ExactMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

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
            bt = other.transpose().rows
            out = []
            for ra in self.rows:
                out.append(
                    [sum((a * b for a, b in zip(ra, col)), ZERO) for col in bt]
                )
            return ExactMatrix(out)
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
        return tuple(sum((a * b for a, b in zip(r, vec)), ZERO) for r in self.rows)

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
            pivot_row = None
            for i in range(pc, n):
                if rows[i][pc]:
                    pivot_row = i
                    break
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

    def is_invertible(self):
        return self.nrows == self.ncols and bool(self.det())

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

        Hessenberg reduction (Cohen, A Course in Computational Algebraic
        Number Theory, Alg. 2.2.9): elementary similarities with the
        first nonzero pivot bring the matrix to upper Hessenberg form H,
        then p_0 = 1 and

            p_m = (X - h_mm)*p_{m-1}
                  - sum_{i<m} h_im * h_{i+1,i} * .. * h_{m,m-1} * p_{i-1}

        gives p_n.  Exact, O(n^3), no matrix products.

        >>> ExactMatrix([[0, -2], [1, 3]]).char_poly()
        X^2-3*X+2
        """
        n = self.n
        h = [list(r) for r in self.rows]
        for m in range(1, n - 1):
            c = m - 1
            pivot = next((i for i in range(m, n) if h[i][c]), None)
            if pivot is None:
                continue
            if pivot != m:
                h[m], h[pivot] = h[pivot], h[m]
                for r in h:
                    r[m], r[pivot] = r[pivot], r[m]
            inv = h[m][c].inverse()
            row_m = h[m]
            for i in range(m + 1, n):
                if not h[i][c]:
                    continue
                u = h[i][c] * inv
                # row_i -= u*row_m, then column_m += u*column_i: a similarity
                h[i] = h[i][:c] + [a - u * b for a, b in zip(h[i][c:], row_m[c:])]
                for r in h:
                    if r[i]:
                        r[m] = r[m] + u * r[i]
        polys = [[ONE]]  # polys[k]: coefficients of p_k, constant first
        for m in range(n):
            prev = polys[m]
            diag = h[m][m]
            coeffs = [ZERO] + prev
            if diag:
                for k, x in enumerate(prev):
                    coeffs[k] = coeffs[k] - diag * x
            t = ONE
            for i in range(m - 1, -1, -1):
                t = t * h[i + 1][i]
                if not t:
                    break
                f = h[i][m] * t
                if f:
                    for k, x in enumerate(polys[i]):
                        coeffs[k] = coeffs[k] - f * x
            polys.append(coeffs)
        return Poly(polys[n])


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
        self.rows.append((pc, v))
        self.rows.sort(key=lambda row: row[0])
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
