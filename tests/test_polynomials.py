import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.polynomials import Poly, X, poly_gcd
from thetakit.scalars import Q


def test_constructors():
    assert Poly.constant(Q(3)).degree == 0
    assert X.degree == 1
    assert Poly([]).degree == -1
    assert Poly([Q(0), Q(0)]).degree == -1


def test_from_roots():
    p = Poly.from_roots([Q(1), Q(2)])
    assert p == X * X - 3 * X + Poly.constant(Q(2))
    assert p.evaluate(Q(1)) == Q(0)
    assert p.evaluate(Q(2)) == Q(0)
    assert p.evaluate(Q(3)) == Q(2)


def test_str_rendering():
    p = Poly.from_roots([Q(1), Q(2)])
    assert str(p) == "X^2-3*X+2"
    assert str(Poly([])) == "0"
    assert str(X) == "X"


def test_division():
    p = Poly.from_roots([Q(1), Q(2), Q(5)])
    d = Poly.from_roots([Q(2)])
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree == -1
    assert p % Poly.from_roots([Q(3)]) != Poly([])
    with pytest.raises(ZeroDivisionError):
        divmod(p, Poly([]))


def test_gcd():
    a = Poly.from_roots([Q(1), Q(2), Q(3)])
    b = Poly.from_roots([Q(2), Q(3), Q(7)])
    g = poly_gcd(a, b)
    assert g == Poly.from_roots([Q(2), Q(3)])
    assert a % g == Poly([])
    assert poly_gcd(a, Poly.from_roots([Q(9)])).degree == 0


def test_gcd_is_monic():
    a = 4 * Poly.from_roots([Q(1)])
    b = 6 * Poly.from_roots([Q(1)])
    assert poly_gcd(a, b) == Poly.from_roots([Q(1)])


def test_monic():
    p = 3 * X + Poly.constant(Q(6))
    assert p.monic() == X + Poly.constant(Q(2))
    with pytest.raises(ValueError):
        Poly([]).monic()


coefficients = st.one_of(
    st.just(Q(0)),
    st.builds(lambda a, d: Q(a) / Q(d), st.integers(-9, 9), st.integers(1, 5)),
    st.builds(lambda a, b: Q(a, b), st.integers(-4, 4), st.integers(-3, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(coefficients, max_size=8),
    st.lists(coefficients, min_size=1, max_size=5).filter(lambda c: any(c)),
)
def test_divmod_is_the_unique_quotient_and_remainder(p, d):
    # d may be a nonzero constant, then the remainder is zero
    p, d = Poly(p), Poly(d)
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree
    assert q.degree == (p.degree - d.degree if p.degree >= d.degree else -1)
