import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.hypergeometric import CONTIGUITY_KINDS, HGParams, contiguity_check
from thetakit.polynomials import Poly, X, poly_gcd
from thetakit.scalars import Q, GaussianRational


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


def schoolbook_product(a, b):
    out = [Q(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


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
    assert p.shift(l) == schoolbook_shift(p.coeffs, l)
    assert p.shift(l).shift(-l) == p


@settings(max_examples=300, deadline=None)
@given(root_lists)
def test_from_roots_matches_the_chained_product(roots):
    p = Poly.from_roots(roots)
    assert p == schoolbook_from_roots(roots)
    assert all(not p.evaluate(r) for r in roots)


def test_empty_polynomial_under_the_kernels():
    p = Poly([Q(1, 2), Q(3)])
    assert Poly() * p == p * Poly() == Poly()
    assert Poly().shift(-3) == Poly()
    assert Poly.from_roots([]) == Poly([1])


@pytest.mark.parametrize("l", [Fraction(1), Q(1), Q(0, 1)], ids=["Fraction", "real", "complex"])
def test_shift_takes_only_an_int(l):
    with pytest.raises(TypeError):
        Poly([1, 2, 3]).shift(l)


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
        got = (Poly.from_roots(roots), a * b, a.shift(-3))
        checks = [contiguity_check(k, p, x) for k, x in zip(CONTIGUITY_KINDS, extras)]
    assert got == expected
    assert checks == [True] * len(CONTIGUITY_KINDS)


def rational_poly_gcd(p, q):
    """The reference: Euclid's loop on scalars, each remainder made monic."""
    a, b = p, q
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


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
    def refuse(*args):
        raise AssertionError("scalar arithmetic in a real poly_gcd")

    cases = [pair for pair in gcd_cases(5, 60)
             if all(c.is_real() for x in pair for c in x.coeffs)]
    assert len(cases) > 30
    expected = [rational_poly_gcd(p, q) for p, q in cases]
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__sub__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        got = [poly_gcd(p, q) for p, q in cases]
    assert got == expected
