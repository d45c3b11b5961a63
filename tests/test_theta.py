import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.polynomials import Poly, RationalFunction, X
from thetakit.scalars import Q
from thetakit.theta import (
    FracThetaOperator,
    ThetaOperator,
    left_factor_check,
    parse,
    render,
    right_divide,
    right_gcd,
)

T = ThetaOperator.theta()
Z = ThetaOperator.z()
ONE_OP = ThetaOperator.one()


def test_commutation_rule():
    # the defining relation: moving theta past z picks up one extra z
    assert T * Z == Z * T + Z
    assert (T + 4 * ONE_OP) * Z == Z * T + 5 * Z


def test_normal_form_collects_terms():
    a = (T + Z) * (T - Z)
    b = T * T - T * Z + Z * T - Z * Z
    assert a == b
    # the noncommutative cross terms collapse to -z
    assert a == T * T - Z - Z * Z


def test_monomial_and_coefficient():
    op = ThetaOperator.monomial(Q(3), 2, 1)
    assert op.coefficient(2, 1) == Q(3)
    assert op.coefficient(0, 0) == Q(0)
    assert op.z_degree == 2 and op.z_order == 2 and op.theta_degree == 1


def test_laurent_powers():
    zi = ThetaOperator.z(-1)
    assert zi * Z == ONE_OP
    assert T * zi == zi * T - zi
    assert (Z**-2) * (Z**2) == ONE_OP


def test_negative_theta_power_rejected():
    with pytest.raises(ValueError):
        ThetaOperator.theta(-1)
    with pytest.raises(ValueError):
        T**-1


def test_degree_conventions():
    assert ThetaOperator.zero().is_zero()
    assert ThetaOperator.zero().theta_degree == float("-inf")
    assert ThetaOperator.zero().z_order == float("inf")
    assert ONE_OP.theta_degree == 0 and ONE_OP.z_degree == 0


def test_degree_additivity_under_product():
    rng = random.Random(2)
    for _ in range(25):
        a = _random_op(rng)
        b = _random_op(rng)
        p = a * b
        assert p.z_degree == a.z_degree + b.z_degree
        assert p.z_order == a.z_order + b.z_order
        assert p.theta_degree == a.theta_degree + b.theta_degree


def _random_op(rng, z_lo=-2):
    while True:
        op = ThetaOperator.zero()
        for _ in range(rng.randrange(1, 4)):
            c = Q(rng.randrange(-4, 5))
            if not c:
                continue
            op = op + ThetaOperator.monomial(
                c, rng.randrange(z_lo, 3), rng.randrange(0, 3)
            )
        if not op.is_zero():
            return op


coeffs = st.integers(-3, 3)
op_terms = st.lists(
    st.tuples(coeffs, st.integers(-1, 2), st.integers(0, 2)), min_size=1, max_size=3
)


def _build(terms):
    op = ThetaOperator.zero()
    for c, j, k in terms:
        op = op + ThetaOperator.monomial(Q(c), j, k)
    return op


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms, op_terms)
def test_ring_axioms(ta, tb, tc):
    a, b, c = _build(ta), _build(tb), _build(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def _apply(op, laurent):
    """Image of {power: coeff} under op: z^j t^k sends z^s to s^k z^(j+s)."""
    out = {}
    for s, f in laurent.items():
        for (j, k), c in op.terms().items():
            out[j + s] = out.get(j + s, Q(0)) + c * Q(s) ** k * f
    return {power: v for power, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms)
def test_product_acts_as_composition(ta, tb):
    # a product has theta-degree <= 4, so agreeing on seven monomials z^s
    # decides each z-part: the check is an operator identity
    a, b = _build(ta), _build(tb)
    for s in range(-3, 4):
        assert _apply(a * b, {s: Q(1)}) == _apply(a, _apply(b, {s: Q(1)}))


def test_parse_render_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        op = _random_op(rng)
        assert parse(render(op)) == op


def test_parse_examples():
    assert parse("t^2 - z*t + 5") == T * T - Z * T + 5 * ONE_OP
    assert parse("z^-2*t") == ThetaOperator.z(-2) * T
    assert parse("(1/2+i)*z") == ThetaOperator.monomial(Q("1/2+i"), 1, 0)
    with pytest.raises(ValueError):
        parse("t +")
    with pytest.raises(ValueError):
        parse("q")


def test_str_shows_normal_form():
    assert str(T * Z) == "z*t + z"
    assert str(ThetaOperator.zero()) == "0"


class TestDivision:
    def test_exact_quotient(self):
        d = (T + 2 * ONE_OP) * (T - ONE_OP)
        q, r = right_divide(d, T - ONE_OP)
        assert r.is_zero()
        assert q.as_theta() == T + 2 * ONE_OP

    def test_remainder_degree_bound(self):
        rng = random.Random(17)
        for _ in range(20):
            p = _random_op(rng)
            d = _random_op(rng)
            if d.theta_degree < 1:
                continue
            q, r = right_divide(p, d)
            lifted_p = FracThetaOperator.lift(p)
            lifted_d = FracThetaOperator.lift(d)
            assert q * lifted_d + r == lifted_p
            assert r.theta_degree < d.theta_degree

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            right_divide(T, ThetaOperator.zero())

    def test_gcd_of_common_right_factor(self):
        f = T - ONE_OP
        a = (T + 3 * ONE_OP) * f
        b = (Z * T + ONE_OP) * f
        g = right_gcd(a, b)
        # gcd is monic of theta-degree >= 1 and divides both
        assert g.theta_degree >= 1
        for op in (a, b):
            _, r = right_divide(op, g)
            assert r.is_zero()

    def test_gcd_of_coprime_operators(self):
        g = right_gcd(T * T, T + ONE_OP)
        assert g == ONE_OP

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            right_gcd(ThetaOperator.zero(), ThetaOperator.zero())


class TestLeftFactor:
    def test_recovers_quotient(self):
        f = Z * T + ONE_OP
        q = T * T - Z
        p = f * q
        found = left_factor_check(p, f)
        assert found == q

    def test_rejects_non_factor(self):
        assert left_factor_check(T, Z) is None
        assert left_factor_check(T * T, T + ONE_OP) is None

    def test_random_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            f = _random_op(rng, z_lo=0)
            q = _random_op(rng, z_lo=0)
            p = f * q
            found = left_factor_check(p, f)
            assert found is not None
            assert f * found == p


def test_frac_operator_monic():
    m = FracThetaOperator.lift(2 * T * T + Z * T)
    monic = m.monic()
    assert monic.leading() == RationalFunction(Poly.constant(Q(1)))
