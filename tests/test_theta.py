import copy
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakit import polynomials
from thetakit.hypergeometric import HGParams, build_D
from thetakit.polynomials import Poly
from thetakit.scalars import Q
from thetakit.theta import (
    MAX_NESTING,
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
    op = ThetaOperator({(2, 1): Q(3)})
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ThetaOperator.z(1.5),
        lambda: ThetaOperator.z(Q(1)),
        lambda: ThetaOperator.theta(2.0),
        lambda: ThetaOperator({(0.9, 1.2): 3}),
        lambda: ThetaOperator({(1, 0.5): 3}),
        lambda: ThetaOperator({(0.5, 0): Q(1)}),
        lambda: ThetaOperator.z(True),
        lambda: ThetaOperator.theta(False),
        lambda: ThetaOperator({(True, True): 2}),
        lambda: ThetaOperator({(0, False): 1}),
    ],
    ids=["z", "z-scalar", "theta", "monomial-both", "monomial-theta", "terms",
         "z-true", "theta-false", "monomial-true", "terms-false"],
)
def test_non_integer_powers_are_refused(build):
    # int() would truncate without a word: z(1.5) would be z; a bool is
    # refused as __pow__ refuses it, not read as 1 or 0
    with pytest.raises(TypeError):
        build()


def test_a_constant_operator_equals_and_hashes_as_its_scalar():
    for c in (0, 1, -3, Q(1, 2), Q("1/2-1/3*i")):
        op = ThetaOperator.constant(c)
        assert op == c and hash(op) == hash(c) and len({op, c}) == 1
    assert len({ThetaOperator.zero(), 0, ONE_OP, 1, Q(1)}) == 2
    assert Z != 1 and ThetaOperator.z(-1) != 1 and T + 1 != 1


def test_booleans_compare_as_ints_and_are_refused_as_exponents():
    # == agrees with GaussianRational (Q(1) == True) and never raises
    assert ONE_OP == True and ThetaOperator.zero() == False  # noqa: E712
    assert ThetaOperator.constant(2) != True and T != True  # noqa: E712
    assert (ONE_OP == "1") is False and (ONE_OP == 1.0) is False
    for e in (True, False):
        with pytest.raises(TypeError):
            T**e


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
            op = op + ThetaOperator({(rng.randrange(z_lo, 3), rng.randrange(0, theta_hi)): c})
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
        op = op + ThetaOperator({(j, k): Q(c)})
    return op


# Gaussian coefficients a/b + (c/d)*i, the two denominators drawn apart, so
# that an operator's den is an lcm and its grid has imaginary parts
gaussian_coeffs = st.builds(
    lambda a, b, c, d: Q(Fraction(a, b), Fraction(c, d)),
    st.integers(-3, 3), st.sampled_from([1, 2, 3, 4]),
    st.integers(-3, 3), st.sampled_from([1, 5, 6]),
)
gaussian_op_terms = st.lists(
    st.tuples(gaussian_coeffs, st.integers(-2, 2), st.integers(0, 3)), min_size=1, max_size=3
)


def _check_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms, op_terms)
def test_ring_axioms(ta, tb, tc):
    _check_ring_axioms(_build(ta), _build(tb), _build(tc))


@settings(max_examples=60, deadline=None)
@given(gaussian_op_terms, gaussian_op_terms, gaussian_op_terms)
def test_ring_axioms_on_gaussian_coefficients(ta, tb, tc):
    _check_ring_axioms(_build(ta), _build(tb), _build(tc))


def _apply(op, laurent):
    """Image of {power: coeff} under op: z^j t^k sends z^s to s^k z^(j+s)."""
    out = {}
    for s, f in laurent.items():
        for (j, k), c in op.terms().items():
            out[j + s] = out.get(j + s, Q(0)) + c * Q(s) ** k * f
    return {power: v for power, v in out.items() if v}


def _check_composition(a, b):
    # a product of theta-degree d <= 6 has z-parts of degree <= d in s, so
    # agreeing on seven monomials z^s decides each: an operator identity
    assert (a * b).theta_degree <= 6
    for s in range(-3, 4):
        assert _apply(a * b, {s: Q(1)}) == _apply(a, _apply(b, {s: Q(1)}))


@settings(max_examples=60, deadline=None)
@given(op_terms, op_terms)
def test_product_acts_as_composition(ta, tb):
    _check_composition(_build(ta), _build(tb))


@settings(max_examples=60, deadline=None)
@given(gaussian_op_terms, gaussian_op_terms)
def test_product_acts_as_composition_on_gaussian_coefficients(ta, tb):
    _check_composition(_build(ta), _build(tb))


def storage(op):
    return op.den, op.grid


def _is_reduced(op):
    """True when the grid is in its reduced form: tuples, no zero part, no
    trailing zero, im None or nonzero, den coprime to every entry."""
    rows = op.grid.values()
    return gcd(op.den, *(x for re, im in rows for x in [*re, *(im or ())])) == 1 and all(
        type(re) is tuple and re and (re[-1] or im and im[-1])
        and (im is None or type(im) is tuple and len(im) == len(re) and any(im))
        for re, im in rows)


GAUSSIAN_D = HGParams((Q("1/2+i"), Q(-6), Q("7/3-1/3*i")), (Q("7/4-2*i"), Q(-1), Q(-3)))
REAL_D = HGParams((Q("1/2"), Q(2)), (Q("3/4"), Q(1)))


def _stored_values():
    """Operators as products and sums leave them: zero parts, trailing
    zeros and a common factor of den and the entries still in."""
    return [
        T - T,
        (2 * T + 2) * Q("1/2"),
        (T + Z) * (T - Z) - T * T,
        build_D(GAUSSIAN_D) * ThetaOperator.theta_plus(Q("1/3+i")),
        ThetaOperator.z(-2) * build_D(REAL_D) * Z**2,
    ]


@pytest.mark.parametrize("first", ["nothing", "hashed", "read"])
def test_copy_deepcopy_and_pickle_keep_the_storage(first):
    # a copy holds the grid as it was, reduced or not, and equals and
    # hashes as the original once both are reduced
    for op in _stored_values():
        if first == "hashed":
            hash(op)
        elif first == "read":
            op.terms()
        assert _is_reduced(op) == (first != "nothing")
        stored = storage(op)
        copies = (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op)))
        assert all(type(again) is ThetaOperator and storage(again) == stored for again in copies)
        for again in copies:
            assert again == op and hash(again) == hash(op) and again.terms() == op.terms()
            assert _is_reduced(again) and storage(again) == storage(op)


def test_reduction_is_once_and_in_place():
    op, one = (2 * T + 2) * Q("1/2"), T + 1
    assert storage(op) == (2, {0: ([2, 2], None)})
    assert op == one and storage(op) == storage(one) == (1, {0: ((1, 1), None)})
    grid = op.grid
    assert hash(op) == hash(one) and str(op) == "t + 1" and op.grid is grid


def test_one_denominator_compares_the_grids_and_reduces_neither():
    # over one den, == is the equality of the grids, trailing zeros and
    # zero parts aside: exact with no gcd; over two dens both are reduced
    a, b = (2 * T + 2) * Q("1/2"), (T + Z - Z + 1) * Q("1/2") * 2
    c = (T * T - T * T + T + 2) * Q("1/2") * 2
    assert a.den == b.den == c.den == 2
    assert a == b and b == a and a != c and not b == c
    assert not any(_is_reduced(op) for op in (a, b, c))
    assert a == T + 1 and _is_reduced(a) and storage(a) == (1, {0: ((1, 1), None)})


def test_one_value_reached_three_ways_is_one_storage():
    # an unreduced product, the term map and the coefficients of the
    # Polys of the z-parts
    h = Q("1/2-1/3*i")
    cases = [
        ((2 * T + 2) * Q("1/2"), {(0, 1): 1, (0, 0): 1}, {0: Poly([1, 1])}),
        ((T + h) * (Z - 3) - Z * T + 3 * T, {(1, 0): h + 1, (0, 0): -3 * h},
         {1: Poly([h + 1]), 0: Poly([-3 * h])}),
        (ThetaOperator.z(-1) * (Q("2/3") * T**2 - Q(0, 5)) * Z * Q("3/2"),
         {(0, 2): 1, (0, 1): 2, (0, 0): Q("1-15/2*i")}, {0: Poly([Q("1-15/2*i"), 2, 1])}),
    ]
    for product, terms, parts in cases:
        ways = [product, ThetaOperator(terms),
                ThetaOperator({(j, k): c for j, p in parts.items() for k, c in enumerate(p.coeffs)})]
        assert all(a == b and hash(a) == hash(b) for a in ways for b in ways)
        assert all(_is_reduced(op) and storage(op) == storage(product) for op in ways)
        assert len(set(ways)) == 1 and product.terms() == terms


def test_unreduced_constants_hash_as_their_scalar():
    for op, c in (((2 * ONE_OP) * Q("1/2"), 1), (T - T + 3, 3), (T - T, 0),
                  (Z * ThetaOperator.z(-1) * Q("1/2-i"), Q("1/2-i")),
                  ((T + Q(0, 1)) * (T - Q(0, 1)) - T * T, 1)):
        assert op == c and hash(op) == hash(c) and len({op, c}) == 1


def test_operators_one_coefficient_apart_compare_unequal():
    # a negative control for the grid's ==: moving any one coefficient, by
    # 1/den (so that den can stay), i, 1/7 or -1, or adding one term
    for op in (build_D(GAUSSIAN_D), build_D(REAL_D), (T - Q("1/3")) * (Z * T + Q(0, 1))):
        hash(op)  # reduced, so that 1/op.den is its finest step
        keys = set(op.terms()) | {(op.z_degree + 1, 0), (0, op.theta_degree + 1)}
        for j, k in keys:
            for c in (Q(Fraction(1, op.den)), Q(0, 1), Q("1/7"), Q(-1)):
                moved = op + ThetaOperator({(j, k): c})
                assert moved != op and op != moved and not moved == op
        assert op == op * 1 and op != op * 2


def test_perturbing_one_parameter_breaks_a_contiguity_identity():
    # beta_raise at j: D(a; b)·(t + b_j) == (t + b_j - 1)·D(a; ..b_j + 1..);
    # moving any one parameter of the right-hand D by 1/7 or by i breaks it
    n, j = GAUSSIAN_D.n, 1
    b = GAUSSIAN_D.beta[j]
    lhs = build_D(GAUSSIAN_D) * ThetaOperator.theta_plus(b)
    raised = list(GAUSSIAN_D.alpha + GAUSSIAN_D.beta)
    raised[n + j] += 1
    assert lhs == ThetaOperator.theta_plus(b - 1) * build_D(HGParams(raised[:n], raised[n:]))
    for k in range(2 * n):
        for step in (Q("1/7"), Q(0, 1)):
            moved = list(raised)
            moved[k] += step
            assert lhs != ThetaOperator.theta_plus(b - 1) * build_D(HGParams(moved[:n], moved[n:]))


def test_parse_render_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        op = _random_op(rng)
        assert parse(render(op)) == op


gaussians = st.builds(
    lambda re, den, im: Q(re) / Q(den) + Q(0, im),
    st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(gaussians, max_size=5))
def test_poly_text_parses_back(coefficients):
    # Poly and render share one term renderer; the operator grammar reads
    # a Poly's text once X is named t
    p = Poly(coefficients)
    assert parse(str(p).replace("X", "t")) == ThetaOperator(
        {(0, k): c for k, c in enumerate(p.coeffs)})


def test_parse_examples():
    assert parse("t^2 - z*t + 5") == T * T - Z * T + 5 * ONE_OP
    assert parse("z^-2*t") == ThetaOperator.z(-2) * T
    assert parse("+t") == parse("-+-t") == T  # unary signs, any number of them
    assert parse("(1/2+i)*z") == ThetaOperator({(1, 0): Q("1/2+i")})
    with pytest.raises(ValueError):
        parse("t +")
    with pytest.raises(ValueError):
        parse("q")
    with pytest.raises(ValueError, match="unexpected character '/' at position 1"):
        parse("3/")
    for text, message in (
        ("t^(2)", "exponent must be an integer"),
        ("t^1/2", "exponent must be an integer"),
        ("(t z", "expected ')'"),
        (")", "unexpected token ')'"),
        ("*t", "unexpected token '*'"),
        ("t)", "trailing input at position 1"),
    ):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            parse(text)


def test_parse_refuses_deep_nesting():
    # each level of parentheses takes parser frames: too deep a nesting is
    # a ValueError naming it, not a RecursionError
    deep = MAX_NESTING + 1
    for text in ("(" * 400 + "t" + ")" * 400, "(" * deep + "t" + ")" * deep, "(" * 100000):
        with pytest.raises(ValueError, match="^parentheses nested deeper than %d at position %d$"
                           % (MAX_NESTING, MAX_NESTING)):
            parse(text)
    nested = "(" * MAX_NESTING + "1-z" + ")" * MAX_NESTING
    assert parse(nested + "*" + nested + "^2") == parse("(1-z)^3")


def test_powers_square_repeatedly(monkeypatch):
    # op**e takes at most 2*ceil(log2(e)) + 1 products, and agrees with
    # the linear product for operators, polynomials and scalars
    op, p, c = (1 - Z) * T + Q("1/2+i"), Poly([Q("1/2-i"), 0, -3]), Q("2/3-i")
    for e in range(9):
        linear = [ONE_OP, Poly([1]), Q(1)]
        for _ in range(e):
            linear = [linear[0] * op, linear[1] * p, linear[2] * c]
        assert [op**e, p**e, c**e] == linear
    calls = []
    product = ThetaOperator.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monomial = ThetaOperator({(1, 0): Q("1/2+i")})
    with monkeypatch.context() as patched:
        patched.setattr(ThetaOperator, "__mul__", counting)
        got = monomial**1000
    assert len(calls) <= 2 * 10 + 1
    assert got == ThetaOperator({(1000, 0): Q("1/2+i") ** 1000})
    assert parse("z^100000000") == ThetaOperator.z(100000000)


def test_building_and_reading_an_operator_builds_no_polynomial(monkeypatch):
    # the term map is cleared onto the grid and read back off it as
    # scalars: no Poly is made, canonical or not
    def refuse(*args, **kwargs):
        raise AssertionError("an operator built or read a Poly")

    monkeypatch.setattr(polynomials, "_new", refuse)
    monkeypatch.setattr(Poly, "__new__", refuse)
    for c, text in ((Q("-2/3"), "t^2 + 3/4*z^-1*t - 2/3*z"),
                    (Q("1/2-3*i"), "t^2 + 3/4*z^-1*t + (1/2-3*i)*z")):
        terms = {(0, 2): 1, (1, 0): c, (-1, 1): Q("3/4")}
        op = ThetaOperator(terms)
        assert op.terms() == terms and op.coefficient(1, 0) == c
        assert op.coefficient(0, 1) == 0 and op.coefficient(5, 0) == 0
        assert str(op) == text
        assert hash(ThetaOperator({(0, 0): c})) == hash(c)
        assert (c * Z) ** -2 == ThetaOperator({(-2, 0): c ** -2})


def test_every_division_routine_refuses_a_non_operator_with_a_type_error():
    # a string or a Poly is not an operator, whichever argument it is; a
    # zero operator is the wrong value, not the wrong type
    for bad in ("x", Poly([1])):
        for call in (lambda: right_divide(T, bad), lambda: right_divide(bad, T),
                     lambda: right_gcd(T, bad), lambda: right_gcd(bad, T),
                     lambda: left_factor_check(T, bad), lambda: left_factor_check(bad, T)):
            with pytest.raises(TypeError, match="^expected a theta operator, got "):
                call()
    for zero in (ThetaOperator.zero(), 0, Q(0)):
        with pytest.raises(ValueError, match="^left factor must be a nonzero operator$"):
            left_factor_check(T, zero)


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
        assert left_factor_check(T, 2 + Z) is None  # 1/(2 + z) is no Laurent polynomial

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
