import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakit.hypergeometric import HGParams, build_D
from thetakit.scalars import Q
from thetakit.theta import (
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


def _random_op(rng, z_lo=-2, theta_hi=3):
    while True:
        op = ThetaOperator.zero()
        for _ in range(rng.randrange(1, 4)):
            c = Q(rng.randrange(-4, 5))
            if not c:
                continue
            op = op + ThetaOperator.monomial(
                c, rng.randrange(z_lo, 3), rng.randrange(0, theta_hi)
            )
        if not op.is_zero():
            return op


def _leading_coefficient(op):
    k = op.theta_degree
    return ThetaOperator({(j, 0): c for (j, kk), c in op.terms().items() if kk == k})


def _gcd_pairs():
    """Ten seeded pairs (A*f, B*f) with a common right factor f of theta-degree >= 1."""
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 10:
        a, b, f = _random_op(rng), _random_op(rng), _random_op(rng)
        if f.theta_degree >= 1:
            pairs.append((a * f, b * f))
    return pairs


# right_gcd of _gcd_pairs() as computed over C(z) by the earlier rational-
# function division layer (monic in theta), times the lcm of its coefficient
# denominators: the primitive gcd, recorded before that layer was removed
GOLDEN_GCDS = [
    "z^4*t^2 + 4 + z",
    "z*t^2 + z^3*t^2 - 4",
    "t^2",
    "t^2 - 2*z + 4*z^2",
    "t",
    "z*t^3 + 3/2*z*t^2 + t - z*t + 1",
    "t^2 + 3/2*z^3",
    "z^2*t^3 + 4*t^2 - 8*t",
    "t^2 - t",
    "t^2",
]


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


def _is_power_of(c, lead, bound):
    return any(c == lead**m for m in range(bound + 1))


class TestDivision:
    def test_exact_quotient(self):
        d = (T + 2 * ONE_OP) * (T - ONE_OP)
        c, q, r = right_divide(d, T - ONE_OP)
        assert c == ONE_OP and r.is_zero()
        assert q == T + 2 * ONE_OP

    def test_remainder_degree_bound(self):
        # Laurent operands (z-powers down to -2) and leading theta-coefficients
        # such as 2*z^-1 - 3*z^2, which are not units
        rng = random.Random(17)
        non_units = 0
        for _ in range(40):
            p = _random_op(rng)
            d = _random_op(rng)
            if d.theta_degree < 1:
                continue
            c, q, r = right_divide(p, d)
            assert c * p == q * d + r
            assert r.theta_degree < d.theta_degree
            lead = _leading_coefficient(d)
            assert _is_power_of(c, lead, max(0, p.theta_degree - d.theta_degree + 1))
            non_units += len(lead.terms()) > 1
        assert non_units >= 5

    def test_divide_by_D(self):
        # D's leading theta-coefficient is 1 - z
        d = build_D(HGParams((Q("1/2"), Q("1/3")), (Q(1), Q("3/4"))))
        assert _leading_coefficient(d) == ONE_OP - Z
        rng = random.Random(5)
        for _ in range(10):
            p = _random_op(rng) * _random_op(rng)
            c, q, r = right_divide(p, d)
            assert c * p == q * d + r
            assert r.theta_degree < 2
            assert _is_power_of(c, ONE_OP - Z, max(0, p.theta_degree - 1))
        c, q, r = right_divide(p * d, d)
        assert r.is_zero() and q * d == c * p * d

    def test_monic_divisor_needs_no_multiplier(self):
        rng = random.Random(8)
        for _ in range(10):
            p = _random_op(rng)
            d = T * T + _random_op(rng, theta_hi=2)
            c, q, r = right_divide(p, d)
            assert c == ONE_OP and p == q * d + r

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            right_divide(T, ThetaOperator.zero())

    def test_gcd_of_common_right_factor(self):
        f = T - ONE_OP
        a = (T + 3 * ONE_OP) * f
        b = (Z * T + ONE_OP) * f
        g = right_gcd(a, b)
        assert g == f
        for op in (a, b):
            _, _, r = right_divide(op, g)
            assert r.is_zero()

    def test_gcd_of_coprime_operators(self):
        g = right_gcd(T * T, T + ONE_OP)
        assert g == ONE_OP

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            right_gcd(ThetaOperator.zero(), ThetaOperator.zero())

    def test_gcd_is_primitive_and_canonical(self):
        rng = random.Random(29)
        for a, b in _gcd_pairs()[:5]:
            g = right_gcd(a, b)
            lead = _leading_coefficient(g)
            assert g.z_order == 0 and lead.coefficient(lead.z_degree, 0) == Q(1)
            for op in (a, b):
                assert right_divide(op, g)[2].is_zero()
            left = _random_op(rng, theta_hi=1)
            assert right_gcd(b, a) == g
            assert right_gcd(left * a, b) == g
            assert right_gcd(a, left * b) == g

    @pytest.mark.parametrize("index", range(len(GOLDEN_GCDS)))
    def test_golden_gcd(self, index):
        a, b = _gcd_pairs()[index]
        assert right_gcd(a, b) == parse(GOLDEN_GCDS[index])


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


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms, st.integers(0, 1))
def test_left_division_recovers_the_quotient(tf, tq, low):
    # f may have a Laurent part; q is shifted to z-order low >= 0
    f, q = _build(tf), _build(tq)
    assume(f and q)
    q = ThetaOperator.z(low - q.z_order) * q
    assert left_factor_check(f * q, f) == q
    assert left_factor_check(ThetaOperator.zero(), f) == ThetaOperator.zero()


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms)
def test_left_division_refuses_a_negative_z_power(tf, tq):
    # f*q factors in C[z, 1/z][t] only, since q has z-order -1
    f, q = _build(tf), _build(tq)
    assume(f and q)
    q = ThetaOperator.z(-1 - q.z_order) * q
    assert left_factor_check(f * q, f) is None


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms, op_terms)
def test_left_division_refuses_a_remainder(tf, tq, tr):
    # f*(q' - q) = r has theta-degree at least f's, so no q' exists
    f, q = _build(tf), _build(tq)
    r = _build([(c, j, k) for c, j, k in tr if k < f.theta_degree])
    assume(f and r)
    assert left_factor_check(f * q + r, f) is None
