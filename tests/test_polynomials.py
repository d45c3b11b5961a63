import copy
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit import polynomials
from thetakit.hypergeometric import CONTIGUITY_KINDS, HGParams, contiguity_check
from thetakit.polynomials import Poly, X, _from_ints, _taylor, poly_gcd
from thetakit.scalars import Q, GaussianRational


def test_constructors():
    assert Poly([Q(3)]).degree == 0
    assert X.degree == 1
    assert Poly([]).degree == -1
    assert Poly([Q(0), Q(0)]).degree == -1


def test_from_roots():
    p = Poly.from_roots([Q(1), Q(2)])
    assert p == X * X - 3 * X + Poly([Q(2)])
    assert 2 - p == Poly([Q(2)]) - p == -(p - 2)  # Poly.__rsub__
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
    p = 3 * X + Poly([Q(6)])
    assert p.monic() == X + Poly([Q(2)])
    with pytest.raises(ValueError):
        Poly([]).monic()
    with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
        Poly().leading()


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


def schoolbook_product(a, b):
    out = [Q(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def shifted(p, l):
    # p(X + l) by the Taylor shift kernel that the theta product runs
    return _from_ints(p.den, _taylor(p.re, l), p.im and _taylor(p.im, l))


def schoolbook_shift(coeffs, l):
    # sum_k c_k (X + l)^k, expanded by the binomial theorem
    out = [Q(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] = out[j] + c * Q(comb(k, j) * l ** (k - j))
    return Poly(out)


def schoolbook_from_roots(roots):
    out = [Q(1)]
    for r in roots:  # times X - r
        out = [
            (out[j - 1] if j else Q(0)) - r * (out[j] if j < len(out) else Q(0))
            for j in range(len(out) + 1)
        ]
    return Poly(out)


reals = st.builds(lambda a, d: Q(a) / Q(d), st.integers(-9, 9), st.integers(1, 7))
# complex parts with denominators of their own, and zero
gaussians = st.one_of(
    st.just(Q(0)),
    reals,
    st.builds(lambda a, b, e: a + Q(0, b) / Q(e), reals, st.integers(-4, 4),
              st.integers(1, 5)),
)
coefficient_lists = st.one_of(st.lists(reals, max_size=7), st.lists(gaussians, max_size=7))
# roots drawn with repetition from a few values, all real or some complex
root_lists = st.one_of(
    st.lists(reals, min_size=1, max_size=4), st.lists(gaussians, min_size=1, max_size=4)
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_product_matches_the_schoolbook_product(a, b):
    assert Poly(a) * Poly(b) == schoolbook_product(Poly(a).coeffs, Poly(b).coeffs)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, st.integers(-5, 5))
def test_shift_matches_the_binomial_expansion(a, l):
    p = Poly(a)
    assert shifted(p, l) == schoolbook_shift(p.coeffs, l)
    assert shifted(shifted(p, l), -l) == p


@settings(max_examples=300, deadline=None)
@given(root_lists)
def test_from_roots_matches_the_chained_product(roots):
    p = Poly.from_roots(roots)
    assert p == schoolbook_from_roots(roots)
    assert all(not p.evaluate(r) for r in roots)


def test_empty_polynomial_under_the_kernels():
    p = Poly([Q(1, 2), Q(3)])
    assert Poly() * p == p * Poly() == Poly()
    assert shifted(Poly(), -3) == Poly()
    assert Poly.from_roots([]) == Poly([1])


def test_polynomial_kernels_take_no_scalar_products_or_sums(monkeypatch):
    # Only a GaussianRational operand is refused: the contiguity identities
    # step one parameter by an integer (b_j + 1, a_i + s), which is not an
    # operation on coefficients.
    def refusing(method):
        def refuse(self, other):
            if isinstance(other, GaussianRational):
                raise AssertionError("a GaussianRational operation in a kernel")
            return method(self, other)

        return refuse

    roots = [Q(1, 2), Q("1/3-2*i"), Q(1, 2), Q(-5, 7)]
    a, b = Poly([Q(1, 2), Q("2/3+i"), 0, Q(-3)]), Poly([Q(5, 4), Q("-i")])
    p = HGParams((Q("1/2+i"), Q(-6), Q("7/3-1/3*i")), (Q("7/4-2*i"), Q(-1), Q(-3)))
    extras = (Q("1/2"), Q("1/3+i"), 1, 2, -2)
    expected = (
        schoolbook_from_roots(roots),
        schoolbook_product(a.coeffs, b.coeffs),
        schoolbook_shift(a.coeffs, -3),
    )
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            patched.setattr(GaussianRational, name, refusing(getattr(GaussianRational, name)))
        got = (Poly.from_roots(roots), a * b, shifted(a, -3))
        checks = [contiguity_check(k, p, x) for k, x in zip(CONTIGUITY_KINDS, extras)]
    assert got == expected
    assert checks == [True] * len(CONTIGUITY_KINDS)


def storage(p):
    return p.den, p.re, p.im


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, st.sampled_from([1, 3, -1, -12]))
def test_storage_round_trip(a, k):
    # coeffs -> (den, re, im) -> coeffs, with one storage for every
    # multiple k*(den, re, im), trailing zeros or not
    p = Poly(a)
    expected = list(a)
    while expected and not expected[-1]:
        expected.pop()
    assert p.coeffs == tuple(expected)
    assert p.den > 0 and gcd(p.den, *p.re, *(p.im or ())) == 1
    assert type(p.re) is tuple and (p.im is None) == all(c.is_real() for c in a)
    assert p.im is None or len(p.im) == len(p.re)
    assert not p.re or p.re[-1] or p.im[-1]
    im = [k * y for y in p.im or (0,) * len(p.re)]
    again = _from_ints(k * p.den, [k * x for x in p.re] + [0, 0], im)
    assert storage(again) == storage(p) and again.coeffs == p.coeffs
    assert again == p and hash(again) == hash(p) and str(again) == str(p)


def test_one_polynomial_reached_by_different_paths_is_one_storage():
    literal = Poly([Q("-1/6+1/3*i"), Q("-1/6-2/3*i"), 1])
    paths = [
        Poly.from_roots([Q("1/2"), Q("-1/3+2/3*i")]) * 1,
        Poly.from_roots([Q("1/2")]) * Poly.from_roots([Q("-1/3+2/3*i")]),
        shifted(shifted(literal, 3), -3),
        shifted(shifted(literal * Q("2/7"), -1), 1) * Q("7/2"),
        literal + X**2 - X * X,
        -(-literal),
        divmod(literal * (X + Q(0, 1)), X + Q(0, 1))[0],
        (literal * 6).monic(),
    ]
    for p in paths:
        assert storage(p) == storage(literal)
        assert p == literal and hash(p) == hash(literal) and str(p) == str(literal)


def test_a_cancelled_imaginary_part_is_stored_as_none():
    i = Q(0, 1)
    for p in ((X + i) * (X - i), Poly.from_roots([i, -i]), (X + i) + (X - i),
              (X**2 + i * X) - i * X, shifted(X + i, 2) - (X + i) + X - shifted(X, 2)):
        assert p.im is None and all(c.is_real() for c in p.coeffs)
    assert storage((X + i) * (X - i)) == (1, (1, 0, 1), None)


def test_the_zero_polynomial():
    zero = Poly()
    assert storage(zero) == (1, (), None) and zero.coeffs == ()
    for p in (Poly([0, Q(0, 0)]), X - X, (X + Q(0, 1)) * 0, Poly.from_roots([1]) % (X - 1),
              Poly([Q(1, 2)]) * Poly(), Poly([Q("3/7-i")]) - Q("3/7-i"), _from_ints(-5, [0], [0])):
        assert storage(p) == storage(zero) and p == zero == 0 and hash(p) == hash(0)
        assert p.degree == -1 and not p and str(p) == "0"


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "coeffs read"])
def test_copy_deepcopy_and_pickle_keep_the_storage(read_first):
    for p in (Poly(), Poly([Q(-3)]), Poly([Q(1, 2), Q("2/3+i"), 0, -3]),
              Poly.from_roots([Q("1/3-2*i"), Q(5, 7)])):
        if read_first:
            p.coeffs
        for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(again) is Poly and storage(again) == storage(p)
            assert again == p and hash(again) == hash(p) and again.coeffs == p.coeffs


def test_constant_polynomials_hash_as_the_equal_scalar():
    for c in (0, 3, -1, Q(3), Q(1, 2), Q("-1/2+1/3*i")):
        p = Poly([c])
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1
    assert len({Poly([3]), 3, Q(3)}) == 1 and len({Poly(), 0, Q(0)}) == 1
    assert X != 0 and X != Q(0, 1) and hash(X) == hash(Poly([0, 1]))


def test_booleans_compare_as_ints_and_are_refused_as_exponents():
    # == agrees with GaussianRational (Q(1) == True) and never raises
    assert Poly([1]) == True and Poly() == False  # noqa: E712
    assert Poly([2]) != True and X != True  # noqa: E712
    assert (Poly([1]) == "1") is False and (Poly([1]) == 1.0) is False
    for flag in (True, False):
        with pytest.raises(TypeError):
            X**flag
    with pytest.raises(ValueError, match="^polynomial exponent must be nonnegative$"):
        X**-1


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, gaussians)
def test_evaluate_and_monic_match_the_scalar_loop(a, x):
    p = Poly(a)
    value = Q(0)
    for c in reversed(p.coeffs):  # Horner's rule on scalars
        value = value * x + c
    assert p.evaluate(x) == value
    if p:
        inverse = p.leading().inverse()
        assert p.monic() == Poly([c * inverse for c in p.coeffs])


def test_contiguity_builds_no_coefficient_scalars(monkeypatch):
    # build_D, the Ore products and the comparison of both sides stay on
    # the stored integers: no Poly builds its canonical scalars
    def refuse(*args):
        raise AssertionError("a Poly built its coefficient scalars")

    params = (HGParams((Q("1/2"), Q(-6), Q("7/3")), (Q("7/4"), Q(-1), Q("1/5"))),
              HGParams((Q("1/2+i"), Q(-6), Q("7/3-1/3*i")), (Q("7/4-2*i"), Q(-1), Q(-3))))
    extras = (Q("1/2"), Q("1/3+i"), 1, 2, -2)
    with monkeypatch.context() as patched:
        patched.setattr(polynomials, "rational_row", refuse)
        patched.setattr(Poly, "coeffs", property(refuse))
        checks = [contiguity_check(kind, p, x)
                  for p in params for kind, x in zip(CONTIGUITY_KINDS, extras)]
    assert checks == [True] * 2 * len(CONTIGUITY_KINDS)


def rational_poly_gcd(p, q):
    """The reference: Euclid's loop, each remainder made monic on scalars."""
    def monic(r):
        inverse = r.leading().inverse()
        return Poly([c * inverse for c in r.coeffs])

    a, b = p, q
    while not b.is_zero():
        r = a % b
        a, b = b, (monic(r) if not r.is_zero() else r)
    return monic(a)


def gcd_cases(seed, count):
    """Seeded (p, q) pairs with a planted common factor of degree 0..2,
    real or Gaussian, with non-monic and negative leading coefficients,
    large denominators, and zero and constant operands."""
    rng = random.Random(seed)

    def scalar(gaussian):
        den = rng.choice([1, 2, 7, 10**12 + 39])
        re = Fraction(rng.randrange(-9, 10), den)
        im = Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)) if gaussian else 0
        return GaussianRational(re, im)

    def poly(degree, gaussian):
        coeffs = [scalar(gaussian) for _ in range(degree)]
        return Poly(coeffs + [rng.choice([-3, -1, 1, 2, Fraction(-5, 7)])])

    cases = [(Poly(), Poly([3])), (Poly([Fraction(-2, 9)]), Poly()), (Poly([4]), Poly([-6])),
             (Poly(), Poly([1, -2, 1])), (Poly([0, 0, -3]), Poly()), (Poly([5]), Poly([1, 1]))]
    for k in range(count):
        gaussian = k % 3 == 2
        common = poly(rng.randrange(0, 3), gaussian)
        p = common * poly(rng.randrange(0, 4), gaussian)
        q = common * poly(rng.randrange(0, 4), gaussian and rng.random() < 0.5)
        cases.append((p, q) if k % 2 else (q * -1, p))
    return cases


def test_gcd_matches_the_rational_euclid_loop():
    for p, q in gcd_cases(19, 300):
        expected = rational_poly_gcd(p, q)
        got = poly_gcd(p, q)
        assert got == expected and str(got) == str(expected)
        assert got.leading() == Q(1)
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_real_gcd_takes_no_scalar_arithmetic(monkeypatch):
    # nor does a Gaussian gcd, monic or division by a Gaussian-led divisor
    def refuse(*args):
        raise AssertionError("scalar arithmetic in poly_gcd, monic or divmod")

    cases = gcd_cases(5, 60)
    real = [pair for pair in cases if all(c.is_real() for x in pair for c in x.coeffs)]
    assert len(real) > 30 and len(cases) - len(real) == 16
    expected = [rational_poly_gcd(p, q) for p, q in cases]
    divisor = Poly([Q(1, 5), Q("-1/3+2*i"), Q("-7/2+1/3*i")])
    quotient, remainder = Poly([Q("1/3-i"), Q(0, 2), 2]), Poly([Q("5/7+i"), Q(-4, 9)])
    dividend = quotient * divisor + remainder
    lead = divisor.leading()
    expected_monic = Poly([c / lead for c in divisor.coeffs])
    with monkeypatch.context() as patched:
        for name in ("__add__", "__mul__", "__sub__", "__neg__", "__pow__", "__truediv__",
                     "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        got = [poly_gcd(p, q) for p, q in cases]
        monic, division = divisor.monic(), divmod(dividend, divisor)
    assert got == expected
    assert monic == expected_monic and division == (quotient, remainder)


def test_the_integers_are_the_only_state_and_a_read_builds_what_it_returns(monkeypatch):
    assert Poly.__slots__ == ("den", "re", "im")
    built = []
    row = polynomials.rational_row

    def counting(re, den, im=None):
        built.append(len(re))
        return row(re, den, im)

    monkeypatch.setattr(polynomials, "rational_row", counting)
    for p in (Poly([1, Q("1/2+i"), Q(-3, 7)]), Poly([Q(2, 3)] * 5 + [Q("-1/4")])):
        stored, n = (p.den, p.re, p.im), len(p.re)
        coeffs = p.coeffs
        built.clear()
        assert p.leading() == coeffs[-1] and built == [1]
        built.clear()
        assert [p.coefficient(k) for k in range(-1, n + 1)] == [0, *coeffs, 0]
        assert built == [1] * n
        built.clear()
        assert p.coeffs == coeffs and str(p) and built == [n, n]  # built again on each read
        assert (p.den, p.re, p.im) == stored
