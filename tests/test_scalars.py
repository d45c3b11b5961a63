import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.scalars import GaussianRational, I, ONE, Q, ZERO
from util import env_with_src, is_integer


@pytest.mark.parametrize("value", ["fraction", "gmpy2", "bogus"])
def test_backend_variable_is_ignored(value):
    # benchmark/common.py still sets THETAKIT_SCALAR_BACKEND in its children
    env = dict(env_with_src(), THETAKIT_SCALAR_BACKEND=value)
    proc = subprocess.run(
        [sys.executable, "-c", "import thetakit; print(thetakit.BACKEND)"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"fraction\n"


def test_construction_and_parts():
    x = Q(3, 2)
    assert str(x) == "3+2*i"
    assert not x.is_real()
    y = Q("3/2")
    assert y.is_real() and str(y) == "3/2"
    with pytest.raises(TypeError, match="^cannot interpret 3 as a rational number$"):
        Q(Q(3), 2)  # a scalar takes no second part


def test_parse_round_trip():
    for text in ("0", "5", "-7/3", "1/2+1/3*i", "-2*i", "3-i", "i"):
        assert str(Q(text)) == str(Q(str(Q(text))))


def test_parse_rejects_garbage():
    for bad in ("", "one", "1/", "2+*i", "1//2", "1/0", "1/0*i", "1+1/0*i"):
        with pytest.raises(ValueError):
            Q(bad)
    with pytest.raises(ValueError, match="^cannot combine complex literal"):
        Q("1+i", 2)


def test_integer_predicates():
    assert is_integer(Q(4))
    assert not is_integer(Q(4, 1))
    assert not is_integer(Q("1/2"))
    assert is_integer(Q(-3)) and int(Q(-3).re) == -3


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
    assert 2 / Q(3) == Q("2/3") and 1 / Q(0, 2) == Q("-1/2*i")  # __rtruediv__
    with pytest.raises(TypeError):
        "2" / Q(3)


def test_powers():
    assert I**2 == -ONE
    assert Q(2) ** -2 == Q("1/4")
    assert Q(5) ** 0 == ONE


def test_booleans_are_refused_as_exponents():
    # as for Poly and ThetaOperator: True is not the exponent 1
    for base in (Q(2), I, ZERO):
        for flag in (True, False):
            with pytest.raises(TypeError):
                base**flag


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


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_a_real_hashes_as_its_rational_part(x):
    # so an integer scalar and the int it equals are one set member
    if x.is_real():
        assert hash(x) == hash(x.re)
    if is_integer(x):
        assert x == int(x.re) and len({x, int(x.re)}) == 1


def test_equal_ints_and_bools_hash_equal():
    assert Q(3) == 3 and hash(Q(3)) == hash(3) and len({Q(3), 3}) == 1
    assert Q(1) == True and hash(Q(1)) == hash(True)  # noqa: E712
    assert Q(0) == False and len({ZERO, 0, False}) == 1  # noqa: E712
    assert Q(3, 1) != 3


def test_int_coercion_in_arithmetic():
    assert Q("1/2") + 1 == Q("3/2")
    assert 2 * Q("1/2") == ONE
    assert Q(3) - 1 == Q(2)


# Parts as plain Fractions; a zero imaginary part is drawn often, so that
# every real/complex combination of operands meets the one formula.
parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
imag_parts = st.one_of(st.just(Fraction(0)), parts)
pairs = st.tuples(parts, imag_parts)


def same_value(x, re, im):
    """x equals, hashes and prints like Q(re, im), in canonical form."""
    expected = Q(re, im)
    assert x == expected
    assert hash(x) == hash(expected)
    assert str(x) == str(expected)
    assert type(x.re) is type(expected.re)
    assert type(x.im) is type(expected.im)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_arithmetic_matches_four_product_formula(x, y):
    (a, b), (c, d) = x, y
    gx, gy = Q(a, b), Q(c, d)
    same_value(gx * gy, a * c - b * d, a * d + b * c)
    same_value(gx + gy, a + c, b + d)
    same_value(gx - gy, a - c, b - d)
    same_value(-gx, -a, -b)
    if a or b:
        n = a * a + b * b
        same_value(gx.inverse(), a / n, -b / n)


@pytest.mark.parametrize(
    "x, y",
    [
        ((Fraction(3, 4), 0), (Fraction(-2, 5), 0)),  # real x real
        ((Fraction(3, 4), 0), (Fraction(-2, 5), Fraction(1, 3))),  # real x complex
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(-2, 5), 0)),  # complex x real
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(-2, 5), Fraction(1, 3))),
        ((0, Fraction(1, 2)), (0, 2)),  # complex x complex with a real product
    ],
)
def test_mul_each_combination(x, y):
    (a, b), (c, d) = (tuple(Fraction(v) for v in p) for p in (x, y))
    same_value(Q(a, b) * Q(c, d), a * c - b * d, a * d + b * c)
    same_value(Q(c, d) * Q(a, b), a * c - b * d, a * d + b * c)


def test_int_operands_take_the_real_path():
    same_value(Q(0, 1) * 3, Fraction(0), Fraction(3))
    same_value(3 - Q("1/2", 1), Fraction(5, 2), Fraction(-1))
    same_value(Q("-2/3").inverse(), Fraction(-3, 2), Fraction(0))
