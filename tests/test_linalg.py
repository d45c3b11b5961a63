import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.linalg import ExactMatrix, Subspace, complete_basis, kernel
from thetakit.polynomials import Poly, X
from thetakit.scalars import Q

from util import invertible_matrix


def m_(rows):
    return ExactMatrix([[Q(x) for x in row] for row in rows])


def test_identity_and_zero():
    e = ExactMatrix.identity(3)
    z = ExactMatrix.zeros(3, 3)
    assert e * e == e
    assert e + z == e
    assert z.rank() == 0


def test_indexing_and_rows():
    m = m_([[1, 2], [3, 4]])
    assert m[0, 1] == Q(2)
    assert m.row(1) == (Q(3), Q(4))
    assert m.column(0) == (Q(1), Q(3))
    assert m.transpose().row(0) == (Q(1), Q(3))


def test_arithmetic():
    a = m_([[1, 2], [3, 4]])
    b = m_([[0, 1], [1, 0]])
    assert a * b == m_([[2, 1], [4, 3]])
    assert a - a == ExactMatrix.zeros(2, 2)
    assert a + b == m_([[1, 3], [4, 4]])


def test_determinant_and_inverse():
    a = m_([[1, 2], [3, 4]])
    assert a.det() == Q(-2)
    assert a.is_invertible()
    assert a * a.inverse() == ExactMatrix.identity(2)
    s = m_([[1, 2], [2, 4]])
    assert s.det() == Q(0)
    assert not s.is_invertible()
    with pytest.raises(ValueError):
        s.inverse()


def test_powers():
    a = m_([[1, 1], [0, 1]])
    assert a**0 == ExactMatrix.identity(2)
    assert a**3 == m_([[1, 3], [0, 1]])
    assert a**-1 == m_([[1, -1], [0, 1]])


def test_rref_and_rank():
    m = m_([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = m.rref()
    assert m.rank() == 2
    assert pivots == (0, 1)
    assert r.row(2) == (Q(0), Q(0), Q(0))


def test_kernel():
    m = m_([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    vecs = m.kernel_vectors()
    assert len(vecs) == 1
    v = vecs[0]
    assert m.apply(v) == (Q(0), Q(0), Q(0))


def test_solve():
    a = m_([[2, 0], [0, 3]])
    assert a.solve((Q(4), Q(9))) == (Q(2), Q(3))
    singular = m_([[1, 1], [1, 1]])
    assert singular.solve((Q(1), Q(2))) is None
    sol = singular.solve((Q(1), Q(1)))
    assert sol is not None and singular.apply(sol) == (Q(1), Q(1))


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
        assert p.evaluate(Q(0)) == m.det() * Q((-1) ** n)
        assert p.coeffs[n - 1] == -m.trace()


def test_char_poly_annihilates():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(2, 4)
        m = ExactMatrix(
            [[Q(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        )
        p = m.char_poly()
        acc = ExactMatrix.zeros(n, n)
        for k, c in enumerate(p.coeffs):
            acc = acc + (m**k) * c
        assert acc == ExactMatrix.zeros(n, n)


def test_hstack_vstack_with_column():
    a = m_([[1], [2]])
    b = m_([[3], [4]])
    assert ExactMatrix.hstack(a, b) == m_([[1, 3], [2, 4]])
    assert ExactMatrix.vstack(m_([[1, 2]]), m_([[3, 4]])) == m_([[1, 2], [3, 4]])
    assert m_([[1, 0], [0, 1]]).with_column(1, (Q(5), Q(6))) == m_(
        [[1, 5], [0, 6]]
    )


def test_from_columns():
    m = ExactMatrix.from_columns([(Q(1), Q(2)), (Q(3), Q(4))])
    assert m == m_([[1, 3], [2, 4]])


class TestSubspace:
    def test_zero_and_full(self):
        z = Subspace.zero(3)
        f = Subspace.full(3)
        assert z.dim == 0 and z.is_zero()
        assert f.dim == 3
        assert z <= f

    def test_canonical_equality(self):
        a = Subspace([(Q(1), Q(1), Q(0))], 3)
        b = Subspace([(Q(2), Q(2), Q(0))], 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_contains(self):
        s = Subspace([(Q(1), Q(0), Q(1))], 3)
        assert s.contains((Q(3), Q(0), Q(3)))
        assert not s.contains((Q(1), Q(0), Q(0)))

    def test_image_and_invariance(self):
        m = m_([[2, 0], [0, 3]])
        line = Subspace([(Q(1), Q(0))], 2)
        assert Subspace([m.apply(v) for v in line.basis], 2) == line
        assert line.is_invariant_under(m)
        tilted = Subspace([(Q(1), Q(1))], 2)
        assert not tilted.is_invariant_under(m)


def test_kernel_function():
    m = m_([[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.contains((Q(1), Q(-1)))


def test_complete_basis():
    basis = complete_basis([(Q(1), Q(1), Q(0))], 3)
    m = ExactMatrix.from_columns(basis)
    assert m.is_invertible()
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
        assert p.evaluate(Q(x)) == shifted.det()
