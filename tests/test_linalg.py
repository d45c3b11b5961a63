import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import thetakit.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.linalg import (
    ExactMatrix,
    Subspace,
    _eliminate,
    _matrix,
    companion_of_operator,
    kernel,
)
from thetakit.polynomials import Poly, X
from thetakit.scalars import Q, GaussianRational, rational_row

from util import complete_basis, contains, det, gaussian_rational, invertible_matrix, rank


def m_(rows):
    return ExactMatrix([[Q(x) for x in row] for row in rows])


def test_identity_and_zero():
    e = ExactMatrix.identity(3)
    z = m_([[0, 0, 0]] * 3)
    assert e * e == e
    assert e + z == e
    assert rank(z) == 0


def test_indexing_and_rows():
    m = m_([[1, 2], [3, 4]])
    assert m[0, 1] == Q(2)
    assert m.row(1) == (Q(3), Q(4))
    assert m.transpose().row(0) == (Q(1), Q(3))


def test_arithmetic():
    a = m_([[1, 2], [3, 4]])
    b = m_([[0, 1], [1, 0]])
    assert a * b == m_([[2, 1], [4, 3]])
    assert a - a == m_([[0, 0], [0, 0]])
    assert a + b == m_([[1, 3], [4, 4]])
    assert 2 * a == a * 2 == a + a and Q(0, 1) * a == a * Q(0, 1)  # __rmul__
    with pytest.raises(TypeError):
        "2" * a


def test_determinant_and_inverse():
    a = m_([[1, 2], [3, 4]])
    assert a.det() == Q(-2)
    assert a * a.inverse() == ExactMatrix.identity(2)
    s = m_([[1, 2], [2, 4]])
    assert s.det() == Q(0)
    with pytest.raises(ValueError):
        s.inverse()


def test_rref_and_rank():
    m = m_([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = m.rref()
    assert rank(m) == 2
    assert pivots == (0, 1)
    assert r.row(2) == (Q(0), Q(0), Q(0))


def test_kernel():
    m = m_([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    vecs = m.kernel_matrix().rows
    assert len(vecs) == 1
    v = vecs[0]
    assert m.apply(v) == (Q(0), Q(0), Q(0))


def test_char_poly_two_by_two():
    a = m_([[0, -2], [1, 3]])
    assert a.char_poly() == Poly.from_roots([Q(1), Q(2)])


def test_char_poly_matches_det_and_trace():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 5)
        m = ExactMatrix(
            [[Q(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        )
        p = m.char_poly()
        assert p.degree == n
        # constant term is (-1)^n det, next-to-top coefficient is -trace
        assert p.evaluate(Q(0)) == det(m) * Q((-1) ** n)
        assert p.coeffs[n - 1] == -sum((m[i, i] for i in range(n)), Q(0))


def test_char_poly_annihilates():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(2, 4)
        m = ExactMatrix(
            [[Q(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        )
        p = m.char_poly()
        zero = m_([[0] * n] * n)
        acc, power = zero, ExactMatrix.identity(n)
        for c in p.coeffs:
            acc, power = acc + power * c, power * m
        assert acc == zero


def test_companion_on_the_integers_matches_the_scalar_rows():
    rng = random.Random(23)
    for _ in range(60):
        kind = rng.choice(KINDS)
        coeffs = random_rows(rng, 1, rng.randrange(1, 6), kind)[0] + [Q(1)]
        order = len(coeffs) - 1
        rows = [[Q(int(j == i - 1)) for j in range(order - 1)] + [-coeffs[i]]
                for i in range(order)]
        for operator in (coeffs, Poly(coeffs)):
            got = companion_of_operator(operator)
            assert got == ExactMatrix(rows) and got.rows == tuple(map(tuple, rows))


def test_kernel_matches_the_span_of_the_kernel_vectors():
    rng = random.Random(29)
    for _ in range(120):
        kind = rng.choice(KINDS)
        rows = random_rows(rng, rng.randrange(1, 5), rng.randrange(1, 6), kind)
        if rng.random() < 0.5:  # rank-deficient: a repeated row
            rows.append(rows[0])
        m = ExactMatrix(rows)
        null = m.kernel_matrix()
        vectors = () if null is None else null.rows
        k = kernel(m)
        assert k == Subspace(vectors, ambient=m.ncols) and k.dim == len(vectors)
        assert str(k) == str(Subspace(vectors, ambient=m.ncols))
        assert all(not any(m.apply(v)) for v in k.basis)


def test_from_columns():
    m = ExactMatrix([(Q(1), Q(2)), (Q(3), Q(4))]).transpose()
    assert m == m_([[1, 3], [2, 4]])


@pytest.mark.parametrize("columns", [[], [(1, 2), (3,)]], ids=["empty", "ragged"])
def test_from_columns_refuses_a_malformed_shape(columns):
    with pytest.raises(ValueError):
        ExactMatrix(columns).transpose()


class TestSubspace:
    def test_zero(self):
        z = Subspace([], ambient=3)
        assert z.dim == 0 and z.is_zero()
        assert contains(z, (Q(0), Q(0), Q(0)))
        assert not contains(z, (Q(0), Q(1), Q(0)))

    def test_canonical_equality(self):
        a = Subspace([(Q(1), Q(1), Q(0))], 3)
        b = Subspace([(Q(2), Q(2), Q(0))], 3)
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("seed", range(40))
    def test_equal_spans_compare_and_hash_equal(self, seed):
        # a second spanning set: an invertible mix of the first, a zero row
        # and a repeated row, shuffled
        rng = random.Random(seed)
        k, n = rng.randrange(1, 4), rng.randrange(3, 6)
        vectors = m_([[gaussian_rational(rng) for _ in range(n)] for _ in range(k)])
        mixed = list((invertible_matrix(rng, k) * vectors).rows)
        mixed += [(0,) * n, mixed[rng.randrange(k)]]
        rng.shuffle(mixed)
        a, b = Subspace(vectors.rows), Subspace(mixed)
        assert a == b and hash(a) == hash(b) and a.basis == b.basis

    def test_builds_without_reading_scalars(self, monkeypatch):
        # Subspace and kernel keep the integer RREF; dim, is_zero, == and
        # hash read it, and basis is built only when asked for
        def refuse(*args, **kwargs):
            raise AssertionError("rational_row while building a Subspace")

        rows = m_([[1, 2, 3, 4], [2, 4, 6, 8], ["1/2", "1/3+i", 0, 1]]).rows
        m = ExactMatrix(rows)
        with monkeypatch.context() as patched:
            patched.setattr(thetakit.linalg, "rational_row", refuse)
            spaces = [Subspace(rows), Subspace(rows[::-1]), kernel(m), Subspace([], ambient=4)]
            facts = [(s.dim, s.is_zero(), hash(s) == hash(spaces[0])) for s in spaces]
            same = spaces[0] == spaces[1]
        assert facts == [(2, False, True), (2, False, True), (2, False, False), (0, True, False)]
        assert same and kernel(m).basis and all(not any(m.apply(v)) for v in kernel(m).basis)

    def test_contains(self):
        s = Subspace([(Q(1), Q(0), Q(1))], 3)
        assert contains(s, (Q(3), Q(0), Q(3)))
        assert not contains(s, (Q(1), Q(0), Q(0)))

    def test_image_and_invariance(self):
        m = m_([[2, 0], [0, 3]])
        line = Subspace([(Q(1), Q(0))], 2)
        assert Subspace([m.apply(v) for v in line.basis], 2) == line
        assert line.is_invariant_under(m)
        tilted = Subspace([(Q(1), Q(1))], 2)
        assert not tilted.is_invariant_under(m)

    def test_no_coordinates(self):
        # vectors of length 0 span the zero subspace of Q(i)^0
        for s in (Subspace([()]), Subspace([(), ()]), Subspace((), ambient=0)):
            assert (s.ambient, s.basis, str(s)) == (0, (), "span{}")
            assert contains(s, ()) and s == Subspace([], ambient=0)

    def test_zero_vectors(self):
        s = Subspace([(0, 0, 0), (Q(0), "0", 0)])
        assert s == Subspace([], ambient=3) and (s.dim, str(s)) == (0, "span{}")
        assert contains(s, ("0", 0, Q(0))) and not contains(s, (0, "1/2", 0))
        assert Subspace([(0, 0), (2, 4), (0, 0)]) == Subspace([(1, 2)])

    def test_string_entries(self):
        assert str(Subspace([("1/2", "1/3+i"), ("1", "2")])) == "span{(1, 0), (0, 1)}"
        line = Subspace([("1/2", "1/3+i")])
        assert str(line) == "span{(1, 2/3+2*i)}"
        assert contains(line, ("3/2", "1+3*i")) and not contains(line, ("3", "2"))
        real = Subspace([("1/2", "1/3")])
        assert contains(real, ("3", "2")) and not contains(real, ("3", "2+i"))

    @pytest.mark.parametrize("vectors, ambient, message", [
        ([(1, 2), (1,)], None, "vectors of unequal length"),
        ([(1, 2)], 3, "ambient dimension mismatch"),
        ([], None, "empty basis needs an explicit ambient dimension"),
    ])
    def test_construction_errors(self, vectors, ambient, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            Subspace(vectors, ambient)

    @pytest.mark.parametrize("space", [Subspace([(1, 2)]), Subspace([], ambient=2)],
                             ids=["line", "zero"])
    def test_contains_checks_the_length(self, space):
        for vector in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
                contains(space, vector)

    @pytest.mark.parametrize("space", [Subspace([(1, 2)]), Subspace([], ambient=2)],
                             ids=["line", "zero"])
    def test_invariance_checks_the_shape(self, space):
        for m in (m_([[1, 2, 3], [4, 5, 6]]), m_([[1, 2], [3, 4], [5, 6]]),
                  ExactMatrix.identity(3), ExactMatrix.identity(1)):
            with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
                space.is_invariant_under(m)
        assert space.is_invariant_under(ExactMatrix.identity(2))


def test_kernel_function():
    m = m_([[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert contains(k, (Q(1), Q(-1)))


def test_complete_basis():
    basis = complete_basis([(Q(1), Q(1), Q(0))], 3)
    m = ExactMatrix(basis).transpose()
    assert m.det()
    assert basis[0] == (Q(1), Q(1), Q(0))


def test_random_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randrange(2, 6)
        g = invertible_matrix(rng, n)
        assert g * g.inverse() == ExactMatrix.identity(n)
        assert g.inverse() * g == ExactMatrix.identity(n)


small_entries = st.one_of(
    st.just(Q(0)),
    st.builds(lambda a, d: Q(a) / Q(d), st.integers(-4, 4), st.integers(1, 3)),
    st.builds(lambda a, b: Q(a, b), st.integers(-3, 3), st.integers(-2, 2)),
)


@st.composite
def char_poly_cases(draw):
    """Square matrices, n = 1..6, some singular, some block triangular."""
    n = draw(st.integers(1, 6))
    rows = [[draw(small_entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "singular", "block"]))
    if shape == "singular":
        # last row a multiple of the first (zero when n = 1)
        c = draw(small_entries)
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [Q(0)]
    elif shape == "block":
        # zero block below the diagonal: a zero subdiagonal entry at k
        k = draw(st.integers(0, n - 1))
        for i in range(k + 1, n):
            for j in range(k + 1):
                rows[i][j] = Q(0)
    return ExactMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(char_poly_cases())
def test_char_poly_interpolates_det(a):
    # a monic degree-n polynomial is fixed by its values at n + 1 points
    n = a.n
    p = a.char_poly()
    assert p.degree == n and p.leading() == Q(1)
    for x in range(n + 1):
        shifted = ExactMatrix.identity(n) * Q(x) - a
        assert p.evaluate(Q(x)) == det(shifted)


@st.composite
def membership_cases(draw):
    """(subspace, vector): the vector zero, in the span, or drawn freely."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[small_entries] * n)
    vectors = draw(st.lists(vector, max_size=3))
    kind = draw(st.sampled_from(["zero", "combination", "free"]))
    if kind == "free":
        v = draw(vector)
    else:
        cs = [draw(small_entries) for _ in vectors] if kind == "combination" else []
        v = tuple(
            sum((c * x[i] for c, x in zip(cs, vectors)), Q(0)) for i in range(n)
        )
    return Subspace(vectors, ambient=n), v


@settings(max_examples=150, deadline=None)
@given(membership_cases())
def test_contains_matches_stacked_rank(case):
    s, v = case
    stacked = ExactMatrix(list(s.basis) + [v])
    assert contains(s, v) == (rank(stacked) == s.dim)


real_entries = st.builds(
    lambda a, d: Q(a) / Q(d), st.integers(-60, 60), st.integers(1, 12)
)
complex_entries = st.builds(
    lambda z, b, d: z + Q(0, b) / Q(d),
    real_entries,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)


@st.composite
def span_cases(draw):
    """(subspace, vector, inside): real or Gaussian spans of up to four
    vectors in ambient 1..5, and a vector in the span (a combination of
    the vectors) or drawn freely, so most often outside it."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([real_entries, st.one_of(real_entries, complex_entries)]))
    entries = st.one_of(st.just(Q(0)), kind)
    vector = st.tuples(*[entries] * n)
    vectors = draw(st.lists(vector, max_size=4))
    inside = draw(st.booleans())
    if inside:
        cs = [draw(entries) for _ in vectors]
        v = tuple(sum((c * x[i] for c, x in zip(cs, vectors)), Q(0)) for i in range(n))
    else:
        v = draw(vector)
    return Subspace(vectors, ambient=n), v, inside


@settings(max_examples=300, deadline=None)
@given(span_cases())
def test_contains_matches_the_rank_of_the_basis_and_the_vector(case):
    s, v, inside = case
    assert contains(s, v) == (rank(ExactMatrix(list(s.basis) + [v])) == s.dim)
    assert contains(s, v) or not inside


@st.composite
def dot_cases(draw):
    """Two vectors of one length: real, mixed or complex entries."""
    k = draw(st.integers(0, 7))
    entries = {
        "real": real_entries,
        "mixed": st.one_of(real_entries, complex_entries, st.just(Q(0))),
        "complex": complex_entries,
    }[draw(st.sampled_from(["real", "mixed", "complex"]))]
    vector = st.lists(entries, min_size=k, max_size=k)
    return draw(vector), draw(vector)


@settings(max_examples=300, deadline=None)
@given(dot_cases())
def test_product_coefficient_matches_the_naive_sum(case):
    # the X^(k-1) coefficient of u(X) * X^(k-1)v(1/X) is the sum of u_j*v_j
    u, v = case
    naive = sum((a * b for a, b in zip(u, v)), Q(0))
    got = (Poly(u) * Poly(v[::-1])).coefficient(len(u) - 1)
    assert got == naive and str(got) == str(naive)


def rational_gauss_jordan(rows, ncols):
    """The reference: Gauss-Jordan on GaussianRational rows, one row
    operation at a time, with the same first-nonzero pivot choice."""
    pivots = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr == len(rows):
            break
        found = [i for i in range(pr, len(rows)) if rows[i][pc]]
        if not found:
            continue
        rows[pr], rows[found[0]] = rows[found[0]], rows[pr]
        inv = rows[pr][pc].inverse()
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(len(rows)):
            f = rows[i][pc]
            if i != pr and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
    return pivots


@st.composite
def elimination_cases(draw, values=real_entries):
    """Matrices of the values, real by default, 1..6 by 1..8, dense,
    singular, rank-deficient or zero."""
    nrows, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.one_of(st.just(Q(0)), values)
    rows = [[draw(entries) for _ in range(width)] for _ in range(nrows)]
    shape = draw(st.sampled_from(["dense", "singular", "low-rank", "zero"]))
    if shape == "singular" and nrows > 1:
        c = draw(values)
        rows[-1] = [c * x for x in rows[0]]
    elif shape == "low-rank":
        # every row a combination of the first r
        r = draw(st.integers(1, nrows))
        for i in range(r, nrows):
            cs = [draw(entries) for _ in range(r)]
            rows[i] = [sum((c * rows[k][j] for k, c in enumerate(cs)), Q(0))
                       for j in range(width)]
    elif shape == "zero":
        rows = [[Q(0)] * width for _ in range(nrows)]
    return rows


@settings(max_examples=400, deadline=None)
@given(elimination_cases())
def test_integer_gauss_jordan_matches_the_rational_loop(rows):
    expected = [list(r) for r in rows]
    expected_pivots = rational_gauss_jordan(expected, len(rows[0]))
    m = ExactMatrix(rows)
    got = [list(r) for r in m.re]  # den times the rows
    pivots, d = _eliminate(got)
    assert pivots == expected_pivots
    # pivot rows end D times their RREF rows, and the rows after them are zero
    k = len(pivots)
    assert [rational_row(r, d) for r in got[:k]] == expected[:k]
    assert not any(map(any, got[k:]))


@settings(max_examples=300, deadline=None)
@given(elimination_cases(st.one_of(real_entries, complex_entries)))
def test_complex_elimination_matches_the_rational_loop(rows):
    expected = [list(r) for r in rows]
    expected_pivots = rational_gauss_jordan(expected, len(rows[0]))
    m = ExactMatrix(rows)
    r, pivots = m.rref()
    assert list(pivots) == expected_pivots and rank(m) == len(pivots)
    assert [list(row) for row in r.rows] == expected
    k, n = m.kernel_matrix(), m.ncols
    if len(pivots) == n:
        assert k is None
    else:
        assert (k.nrows, rank(k)) == (n - len(pivots), n - len(pivots))
        assert m * k.transpose() == m_([[0] * k.nrows] * m.nrows)
    if m.nrows == n and len(pivots) == n:
        assert m.inverse() * m == ExactMatrix.identity(n) == m * m.inverse()


@st.composite
def det_cases(draw):
    """Square matrices, n = 1..6, real or Gaussian, of full rank or with
    rows r..n-1 in the span of the first r < n."""
    n = draw(st.integers(1, 6))
    values = draw(st.sampled_from([real_entries, st.one_of(real_entries, complex_entries)]))
    entries = st.one_of(st.just(Q(0)), values)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(draw(st.one_of(st.just(n), st.integers(0, n - 1))), n):
        cs = [draw(entries) for _ in range(i)]
        rows[i] = [sum((c * r[j] for c, r in zip(cs, rows)), Q(0)) for j in range(n)]
    return ExactMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(det_cases())
def test_det_matches_the_scalar_elimination(m):
    got, expected = m.det(), det(m)
    assert got == expected and str(got) == str(expected)
    assert (not got) == (rank(m) < m.n)
    wide = ExactMatrix([list(r) + [Q(1)] for r in m.rows])
    for shape in (wide, wide.transpose()):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            shape.det()


def test_real_matrices_take_the_integer_kernels(monkeypatch):
    def refuse(*args):
        raise AssertionError("a GaussianRational operation on the integer path")

    m = m_([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    v = (Q(1), Q(-2), Q(3))
    g = m_([["1+i", 2, 0], ["-i", 1, "3*i"], [1, "2/3*i", -1]])
    wide = m_([["1+i", 2, 0], ["-i", 1, "3*i"]])
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__pow__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        m_rank, inverse, image = rank(m), m.inverse(), m.apply(v)
        g_rank, g_inverse, g_rref = rank(g), g.inverse(), g.rref()
        w_rref, w_kernel = wide.rref(), wide.kernel_matrix()
    assert m_rank == 3
    assert inverse * m == ExactMatrix.identity(3)
    assert image == (Q(0), Q(-2), Q(10))
    assert g_rank == 3 and g_inverse * g == ExactMatrix.identity(3)
    assert g_rref == (ExactMatrix.identity(3), (0, 1, 2))
    expected = [list(r) for r in wide.rows]
    assert w_rref[1] == tuple(rational_gauss_jordan(expected, 3)) == (0, 1)
    assert w_rref[0] == ExactMatrix(expected)
    assert w_kernel.nrows == 1 and wide * w_kernel.transpose() == m_([[0], [0]])


def test_char_poly_takes_no_scalar_arithmetic(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a GaussianRational operation in char_poly")

    rng = random.Random(10)
    dense = ExactMatrix(
        [
            [Q(rng.randrange(-999, 1000)) / Q(rng.randrange(1, 1000)) for _ in range(8)]
            for _ in range(8)
        ]
    )
    cases = [
        m_([[2, -1, 0], [1, 3, "1/2"], [0, 1, 4]]),
        m_([["1/2+i", 2, 0], ["-i", 1, 3], [1, "2/3*i", -1]]),
        m_([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),  # singular: cp(0) = 0
        dense,
    ]
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__pow__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        polys = [m.char_poly() for m in cases]
    for m, p in zip(cases, polys):
        n = m.n
        assert p.degree == n and p.leading() == Q(1)
        for x in range(n + 1):
            assert p.evaluate(Q(x)) == det(ExactMatrix.identity(n) * Q(x) - m)
    assert not polys[2].coeffs[0]


# -- integer storage ------------------------------------------------------------


def random_entry(rng, kind):
    """A scalar of the kind real, gaussian or mixed, zero one time in five,
    its parts built from Fractions whose denominators may be negative."""
    def part():
        return Fraction(rng.randrange(-9, 10), rng.choice([-1, 1]) * rng.randrange(1, 8))

    if rng.random() < 0.2:
        return Q(0)
    if kind == "real" or (kind == "mixed" and rng.random() < 0.5):
        return GaussianRational(part())
    return GaussianRational(part(), part() or 1)


def random_rows(rng, nrows, ncols, kind):
    if kind == "zero":
        return [[Q(0)] * ncols for _ in range(nrows)]
    return [[random_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]


KINDS = ("real", "gaussian", "mixed", "zero")


def test_storage_round_trips_the_scalars():
    rng = random.Random(17)
    for _ in range(200):
        kind = rng.choice(KINDS)
        rows = random_rows(rng, rng.randrange(1, 5), rng.randrange(1, 5), kind)
        m = ExactMatrix(rows)
        entries = [x for row in rows for x in row]
        assert m.den > 0
        assert gcd(m.den, *(x for part in (m.re, m.im or ()) for r in part for x in r)) == 1
        assert (m.im is None) == all(x.is_real() for x in entries)
        # a copy built from the integers alone reads its rows back from them
        copy = _matrix(m.den, m.re, m.im)
        assert copy.rows == tuple(map(tuple, rows))
        assert str(copy) == str(ExactMatrix(rows)) and copy == m


def test_equal_matrices_over_different_denominators_are_equal():
    a = ExactMatrix([[Q(1) / Q(2), 1]])
    b = ExactMatrix([[Q(2) / Q(4), Q(3) / Q(3)]])
    assert a == b and hash(a) == hash(b)
    for den, re in ((2, [[1, 2]]), (4, [[2, 4]]), (-6, [[-3, -6]])):
        c = _matrix(den, re)
        assert c == a and hash(c) == hash(a) and (c.den, c.re) == (2, ((1, 2),))
    z = _matrix(5, [[0, 0]], [[0, 0]])
    assert z == m_([[0, 0]]) and z.den == 1 and z.im is None
    g = ExactMatrix([["1/2+1/3*i", "1/4"], [0, "-i"]])
    h = ExactMatrix([["1/7", 0], ["2/7", "1/7"]])
    for x in ((g + h) - h, g * 6 * (Q(1) / Q(6)), -(-g), (g * h) * h.inverse()):
        assert x == g and hash(x) == hash(g)


def matrix_cases():
    entries = st.integers(-60, 60)
    dens = st.one_of(st.integers(-60, -1), st.just(1), st.sampled_from([4, 6, 12, 30, 36, 60]))

    @st.composite
    def case(draw):
        nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        part = st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows)
        return draw(dens), draw(part), draw(st.one_of(st.none(), part))

    return case()


@settings(max_examples=300, deadline=None)
@given(matrix_cases())
def test_matrix_reduces_like_its_entries_as_fractions(case):
    # each entry reduced on its own as a Fraction: den is the lcm of their
    # denominators, positive, and im is None when every imaginary part is 0
    den, re, im = case
    parts = [[[Fraction(x, den) for x in r] for r in p] for p in (re, im or ())]
    lcd = lcm(*(x.denominator for p in parts for r in p for x in r))
    expected = [tuple(tuple(int(x * lcd) for x in r) for r in p) for p in parts]
    m = _matrix(den, re, im)
    assert m.den == lcd
    assert m.re == expected[0]
    assert m.im == (expected[1] if im and any(map(any, im)) else None)
    assert (m.nrows, m.ncols) == (len(re), len(re[0]))


def test_shape_and_length_mismatches_are_refused():
    row, column = m_([[1, 2]]), m_([[1], [2]])
    with pytest.raises(ValueError, match="^shape mismatch$"):
        row + column
    with pytest.raises(ValueError, match="^shape mismatch in product$"):
        row * row
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        row.apply((Q(1),))
    with pytest.raises(ValueError, match="^operator has no coefficients$"):
        companion_of_operator([])


def test_reduced_and_unreduced_integers_give_one_storage():
    # g = 1 keeps the rows as they are, g > 1 divides them and a
    # negative denominator flips every sign: one canonical storage
    rng = random.Random(31)
    for _ in range(200):
        kind = rng.choice(KINDS)
        m = ExactMatrix(random_rows(rng, rng.randrange(1, 4), rng.randrange(1, 4), kind))
        zeros = [[0] * m.ncols for _ in range(m.nrows)]
        for k in (1, rng.randrange(2, 30), -1, -rng.randrange(2, 30)):
            re = [[k * x for x in r] for r in m.re]
            im = [[k * x for x in r] for r in m.im or zeros]
            got = _matrix(k * m.den, re, im)
            assert (got.den, got.re, got.im) == (m.den, m.re, m.im)
            assert hash(got) == hash(m) and got.rows == m.rows
            for part in (got.re, got.im or ()):
                assert type(part) is tuple and all(type(r) is tuple for r in part)


def test_the_integers_are_the_only_state_and_a_read_builds_what_it_returns(monkeypatch):
    assert ExactMatrix.__slots__ == ("den", "re", "im", "nrows", "ncols")
    built = []
    row = thetakit.linalg.rational_row

    def counting(re, den, im=None):
        built.append(len(re))
        return row(re, den, im)

    monkeypatch.setattr(thetakit.linalg, "rational_row", counting)
    for m in (ExactMatrix([[1, "1/2+i", 0], ["-3/7", 2, "i"]]), ExactMatrix([[Q(1, 2)] * 3] * 2)):
        stored, rows = (m.den, m.re, m.im), m.rows
        for i in range(2):
            for j in range(3):
                built.clear()
                assert m[i, j] == rows[i][j] and built == [3]  # one row
            built.clear()
            assert m.row(i) == rows[i] and built == [3]
        built.clear()
        assert m.transpose().row(1) == (rows[0][1], rows[1][1]) and built == [2]
        built.clear()
        assert m.rows == rows and built == [3, 3]  # built again on each read
        assert (m.den, m.re, m.im) == stored


# the reference: scalars as (re, im) pairs of Fractions, one operation at a time
def p_(x):
    return (x.re, x.im)


def p_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def p_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def p_sum(terms):
    total = (Fraction(0), Fraction(0))
    for t in terms:
        total = p_add(total, t)
    return total


def p_matmul(a, b):
    return [[p_sum(p_mul(x, y) for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def p_identity(n):
    return [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]


def p_inverse(a):
    """Gauss-Jordan on [a | I]; None when a is singular."""
    n = len(a)
    rows = [list(r) + e for r, e in zip(a, p_identity(n))]
    for c in range(n):
        k = next((i for i in range(c, n) if any(rows[i][c])), None)
        if k is None:
            return None
        rows[c], rows[k] = rows[k], rows[c]
        x, y = rows[c][c]
        norm = x * x + y * y
        inv = (x / norm, -y / norm)
        rows[c] = [p_mul(inv, v) for v in rows[c]]
        for i in range(n):
            if i != c:
                f = p_mul((-1, 0), rows[i][c])
                rows[i] = [p_add(u, p_mul(f, v)) for u, v in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def p_char_poly(a):
    """Ascending coefficients of det(X*I - a), by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [None] * n + [(Fraction(1), Fraction(0))]
    m = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = p_matmul(a, m)
        m = [[p_add(v, coeffs[n - k + 1]) if i == j else v for j, v in enumerate(r)]
             for i, r in enumerate(m)]
        trace = p_sum(r[i] for i, r in enumerate(p_matmul(a, m)))
        coeffs[n - k] = (-trace[0] / k, -trace[1] / k)
    return coeffs


def pairs_of(m):
    return [[p_(x) for x in row] for row in m.rows]


def test_integer_storage_matches_a_fraction_pair_reference():
    rng = random.Random(29)
    singular = 0
    for _ in range(150):
        kind = rng.choice(KINDS)
        r, k, c = (rng.randrange(1, 5) for _ in range(3))
        rows_a, rows_b = random_rows(rng, r, k, kind), random_rows(rng, k, c, kind)
        rows_s = random_rows(rng, r, k, rng.choice(KINDS))
        a, b, s = ExactMatrix(rows_a), ExactMatrix(rows_b), ExactMatrix(rows_s)
        pa, pb, ps = pairs_of(a), pairs_of(b), pairs_of(s)
        assert pairs_of(a * b) == p_matmul(pa, pb)
        assert pairs_of(a + s) == [[p_add(x, y) for x, y in zip(u, v)] for u, v in zip(pa, ps)]
        minus = [[p_add(x, p_mul((-1, 0), y)) for x, y in zip(u, v)] for u, v in zip(pa, ps)]
        assert pairs_of(a - s) == minus
        assert pairs_of(a.transpose()) == [list(col) for col in zip(*pa)]
        scalar = random_entry(rng, rng.choice(KINDS[:3]))
        assert pairs_of(a * scalar) == [[p_mul(x, p_(scalar)) for x in row] for row in pa]
        vector = tuple(random_entry(rng, rng.choice(KINDS[:3])) for _ in range(k))
        expected = [p_sum(p_mul(x, p_(y)) for x, y in zip(row, vector)) for row in pa]
        assert [p_(x) for x in a.apply(vector)] == expected
        n = rng.randrange(1, 5)
        square = ExactMatrix(random_rows(rng, n, n, kind))
        sq = pairs_of(square)
        assert [p_(x) for x in square.char_poly().coeffs] == p_char_poly(sq)
        inverse = p_inverse(sq)
        if inverse is None:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                square.inverse()
        else:
            assert pairs_of(square.inverse()) == inverse
    assert 10 < singular < 100  # both branches of inverse ran


MECHANISM_CASES = {
    "real": ([[2, "1/3", 0], [1, -3, "5/2"], [0, 1, 4]],
             [["1/2", 1, 0], [0, 1, 1], [1, 0, "-2/7"]],
             [[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
    "gaussian": ([["2+i", "1/3", 0], [1, "-3*i", "5/2"], [0, 1, 4]],
                 [["1/2", "1-i", 0], [0, 1, 1], ["i", 0, "-2/7"]],
                 [[1, "2+i", 3], [2, "4+2*i", 6], ["i", 1, 1]]),
}


@pytest.mark.parametrize("kind", list(MECHANISM_CASES))
def test_products_kernels_subspaces_and_det_skip_scalar_arithmetic(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar arithmetic on the integer path")

    a, b, c = (m_(rows) for rows in MECHANISM_CASES[kind])  # c is singular, of rank 2
    units = [tuple(Q(int(i == j)) for j in range(3)) for i in range(3)]
    vectors = units + [c.row(0), tuple(x + y for x, y in zip(c.row(0), c.row(2)))]
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__rtruediv__",
                     "__pow__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        product, poly, null, difference = a * b, a.char_poly(), c.kernel_matrix().rows, a - b
        dets = [m.det() for m in (a, b, c)]
        spaces = [Subspace(c.rows), kernel(c), Subspace(a.rows[:1])]
        inside = [[contains(s, v) for v in vectors] for s in spaces]
        invariant = [[s.is_invariant_under(m) for m in (a, c)] for s in spaces]
    assert product == ExactMatrix(
        [[sum((x * y for x, y in zip(r, col)), Q(0)) for col in zip(*b.rows)] for r in a.rows]
    )
    for x in range(4):
        assert poly.evaluate(Q(x)) == det(ExactMatrix.identity(3) * Q(x) - a)
    assert len(null) == 1 and c.apply(null[0]) == (Q(0),) * 3
    assert difference + b == a
    assert dets == [det(m) for m in (a, b, c)] and dets[0] and not dets[2]
    expected = [list(r) for r in c.rows]
    k = len(rational_gauss_jordan(expected, 3))
    assert spaces[0].basis == tuple(map(tuple, expected[:k])) and k == 2
    assert spaces[1] == Subspace(null) and not any(c.apply(spaces[1].basis[0]))
    for s, got in zip(spaces, inside):
        assert got == [rank(ExactMatrix(list(s.basis) + [v])) == s.dim for v in vectors]
    for s, got in zip(spaces, invariant):
        images = [ExactMatrix(list(s.basis) + [m.apply(v) for v in s.basis]) for m in (a, c)]
        assert got == [rank(image) == s.dim for image in images]
    assert {x for row in inside + invariant for x in row} == {True, False}
    assert invariant[1][1]  # c maps its kernel to zero
