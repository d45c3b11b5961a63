import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.scalars import BACKEND, GaussianRational, I, ONE, Q, ZERO


def test_backend_is_known():
    assert BACKEND in ("gmpy2", "fraction")


def test_construction_and_parts():
    x = Q(3, 2)
    assert str(x) == "3+2*i"
    assert not x.is_real()
    y = Q("3/2")
    assert y.is_real() and str(y) == "3/2"


def test_parse_round_trip():
    for text in ("0", "5", "-7/3", "1/2+1/3*i", "-2*i", "3-i", "i"):
        assert str(Q(text)) == str(Q(str(Q(text))))


def test_parse_rejects_garbage():
    for bad in ("", "one", "1/", "2+*i", "1//2", "1/0", "1/0*i", "1+1/0*i"):
        with pytest.raises(ValueError):
            Q(bad)


def test_integer_predicates():
    assert Q(4).is_integer()
    assert not Q(4, 1).is_integer()
    assert not Q("1/2").is_integer()
    assert Q(-3).as_int() == -3
    with pytest.raises(ValueError):
        Q("1/2").as_int()


def test_floor_real():
    assert Q("7/2").floor_real() == 3
    assert Q("-7/2").floor_real() == -4
    assert Q(5).floor_real() == 5


def test_inverse_and_division():
    x = Q("1/2+1/3*i")
    assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    assert (x / x) == ONE


def test_powers():
    assert I**2 == -ONE
    assert Q(2) ** -2 == Q("1/4")
    assert Q(5) ** 0 == ONE


def test_conjugate():
    x = Q(2, 3)
    assert x.conjugate() == Q(2, -3)
    assert (x * x.conjugate()).is_real()


scalars = st.builds(
    lambda a, b, c, d: Q(a) / Q(b) + (Q(c) / Q(d)) * I,
    st.integers(-30, 30),
    st.integers(1, 12),
    st.integers(-30, 30),
    st.integers(1, 12),
)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if y != ZERO:
        assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_string_round_trip(x):
    assert Q(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_hash_consistent_with_eq(x):
    assert hash(Q(str(x))) == hash(x)


def test_int_coercion_in_arithmetic():
    assert Q("1/2") + 1 == Q("3/2")
    assert 2 * Q("1/2") == ONE
    assert Q(3) - 1 == Q(2)
