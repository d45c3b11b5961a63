"""Dense exact linear algebra over the Gaussian rationals.

Everything here is deterministic: elimination always takes the first nonzero
pivot, and subspaces are kept in a canonical reduced-row-echelon basis so
that equal subspaces compare equal structurally.
"""

from .polynomials import Poly
from .scalars import Q, GaussianRational


def _entry(x):
    return x if isinstance(x, GaussianRational) else Q(x)


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

    def is_square(self):
        return self.nrows == self.ncols

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return ExactMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def with_column(self, j, column):
        rows = [list(r) for r in self.rows]
        for i in range(self.nrows):
            rows[i][j] = _entry(column[i])
        return ExactMatrix(rows)

    @staticmethod
    def hstack(a, b):
        if a.nrows != b.nrows:
            raise ValueError("row count mismatch")
        return ExactMatrix([list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)])

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
                    [sum((a * b for a, b in zip(ra, col)), Q(0)) for col in bt]
                )
            return ExactMatrix(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self * other
        return NotImplemented

    def __pow__(self, e):
        n = self.n
        if not isinstance(e, int):
            raise TypeError("matrix power must be an int")
        if e < 0:
            return self.inverse() ** (-e)
        result = ExactMatrix.identity(n)
        for _ in range(e):
            result = result * self
        return result

    def apply(self, vector):
        """Matrix--vector product; vectors are plain tuples."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = [_entry(x) for x in vector]
        return tuple(sum((a * b for a, b in zip(r, vec)), Q(0)) for r in self.rows)

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.n)), Q(0))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for i in range(pr, self.nrows):
                if rows[i][pc]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = rows[pr][pc].inverse()
            rows[pr] = [x * inv for x in rows[pr]]
            for i in range(self.nrows):
                if i != pr and rows[i][pc]:
                    f = rows[i][pc]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        return ExactMatrix(rows), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_vectors(self):
        """Basis vectors of the right kernel, from the RREF free columns."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Q(0)] * self.ncols
            v[f] = Q(1)
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.rows[r][f]
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
        return self.is_square() and bool(self.det())

    def inverse(self):
        n = self.n
        aug = ExactMatrix.hstack(self, ExactMatrix.identity(n))
        reduced, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([row[n:] for row in reduced.rows])

    def solve(self, rhs):
        """One exact solution x of self*x = rhs, or None when inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        vec = [_entry(x) for x in rhs]
        if len(vec) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = ExactMatrix.hstack(self, ExactMatrix([[v] for v in vec]))
        reduced, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [Q(0)] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = reduced.rows[r][self.ncols]
        return tuple(x)

    def char_poly(self):
        """Characteristic polynomial det(X*I - self), monic of degree n.

        Faddeev-LeVerrier recurrence: exact, no eigenvalue extraction.

        >>> ExactMatrix([[0, -2], [1, 3]]).char_poly()
        X^2-3*X+2
        """
        n = self.n
        coeffs = [Q(0)] * (n + 1)
        coeffs[n] = Q(1)
        m = ExactMatrix.identity(n)
        for k in range(1, n + 1):
            if k > 1:
                m = self * (m + ExactMatrix.identity(n) * coeffs[n - k + 1])
            else:
                m = self
            coeffs[n - k] = -(m.trace() / Q(k))
        return Poly(coeffs)


class Subspace:
    """Subspace of Q(i)^n stored with a canonical RREF basis.

    >>> a = Subspace([(1, 0, 0), (0, 1, 0)])
    >>> b = Subspace([(0, 1, 0), (0, 0, 1)])
    >>> a.intersect(b) == Subspace([(0, 1, 0)])
    True
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, vectors, ambient=None):
        vectors = [tuple(_entry(x) for x in v) for v in vectors]
        if vectors:
            ambient_dim = len(vectors[0])
            if any(len(v) != ambient_dim for v in vectors):
                raise ValueError("vectors of unequal length")
            if ambient is not None and ambient != ambient_dim:
                raise ValueError("ambient dimension mismatch")
            reduced, pivots = ExactMatrix(vectors).rref()
            basis = tuple(reduced.rows[i] for i in range(len(pivots)))
        else:
            if ambient is None:
                raise ValueError("empty basis needs an explicit ambient dimension")
            ambient_dim = ambient
            basis = ()
        object.__setattr__(self, "ambient", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient):
        return cls([], ambient=ambient)

    @classmethod
    def full(cls, ambient):
        return cls(
            [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
        )

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def matrix(self):
        """Basis vectors as the columns of a matrix."""
        if not self.basis:
            raise ValueError("zero subspace has no basis matrix")
        return ExactMatrix(self.basis).transpose()

    def contains(self, vector):
        vec = tuple(_entry(x) for x in vector)
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if not any(vec):
            return True
        if not self.basis:
            return False
        stacked = ExactMatrix(list(self.basis) + [vec])
        return stacked.rank() == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __le__(self, other):
        return all(other.contains(v) for v in self.basis)

    def intersect(self, other):
        """Canonical basis of the intersection.

        Solves A*x = B*y by a kernel computation on [A | -B].
        """
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        a = self.matrix()
        b = other.matrix()
        stacked = ExactMatrix.hstack(a, -b)
        vectors = []
        for k in stacked.kernel_vectors():
            x = k[: a.ncols]
            vectors.append(a.apply(x))
        vectors = [v for v in vectors if any(v)]
        if not vectors:
            return Subspace.zero(self.ambient)
        return Subspace(vectors)

    def image(self, m):
        """The subspace m * self."""
        if m.ncols != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero():
            return Subspace.zero(m.nrows)
        return Subspace([m.apply(v) for v in self.basis], ambient=m.nrows)

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

    Deterministic: candidates e_0, e_1, ... are tried in order and kept when
    they increase the rank.
    """
    chosen = [tuple(_entry(x) for x in v) for v in vectors]
    current = Subspace(chosen, ambient=ambient) if chosen else Subspace.zero(ambient)
    for k in range(ambient):
        if current.dim == ambient:
            break
        e = tuple(Q(1) if i == k else Q(0) for i in range(ambient))
        if not current.contains(e):
            chosen.append(e)
            current = Subspace(chosen, ambient=ambient)
    if len(chosen) != ambient:
        raise ValueError("could not complete to a basis")
    return chosen
