import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit import hypergeometric, polynomials, theta
from thetakit.hypergeometric import (
    CONTIGUITY_KINDS,
    HGParams,
    analysis_report,
    build_D,
    canonical_shift_class,
    contiguity_check,
    exponents,
    factorization_certificate,
    greedy_matching,
    is_reducible,
    partition,
    verify_certificate,
)
from thetakit.polynomials import Poly
from thetakit.scalars import Q, GaussianRational
from thetakit.theta import ThetaOperator, right_divide

from util import params as random_params
from util import scalar_greedy_matching, scalar_partition

T = ThetaOperator.theta()
Z = ThetaOperator.z()
ONE_OP = ThetaOperator.one()


def test_params_validation():
    with pytest.raises(ValueError):
        HGParams((Q(1),), (Q(1), Q(2)))
    p = HGParams(("1/2", "1/3"), (1, 2))
    assert p.n == 2
    assert str(p) == "D(1/2,1/3; 1,2)"


def test_params_dict_round_trip():
    p = HGParams(("1/2", "2+1/3*i"), ("1", "-4"))
    assert HGParams.from_dict(p.to_dict()) == p


def test_build_gauss_operator():
    # (a, b; 1, c): product over beta of (t+b-1) minus z times product
    # over alpha of (t+a)
    p = HGParams(("1/2", "1/2"), (1, 1))
    d = build_D(p)
    half = T + ThetaOperator.constant(Q("1/2"))
    lhs = T * T
    rhs = Z * half * half
    assert d == lhs - rhs


def test_build_empty_params():
    d = build_D(HGParams((), ()))
    assert d == ONE_OP - Z


def scalar_D(p):
    """The reference: prod(t + b - 1) - z*prod(t + a), multiplied out by
    the public operator arithmetic on scalar parameters."""
    def product(roots):
        return reduce(mul, (ThetaOperator.theta_plus(c) for c in roots), ONE_OP)

    return product([b - 1 for b in p.beta]) - Z * product(p.alpha)


def test_build_D_matches_the_scalar_product():
    # seeded Gaussian parameters, n = 0..5, with negative numerators and
    # denominators, shared and distinct denominators, and the n = 0
    # operator 1 - z
    rng = random.Random(25)
    for n in range(6):
        for complex_chance in (0.0, 0.5):
            den = rng.choice([1, -3, 12])
            shared = HGParams(*([Q(rng.randrange(-20, 21)) / Q(den) for _ in range(n)]
                                for _ in "ab"))
            for p in (shared, random_params(rng, n, complex_chance)):
                assert build_D(p) == scalar_D(p), p
    assert build_D(HGParams((), ())) == scalar_D(HGParams((), ())) == ONE_OP - Z


def test_operator_order_equals_n():
    for n in (1, 2, 3, 4):
        p = HGParams(tuple(Q(k + 1) for k in range(n)), tuple(Q(1) for _ in range(n)))
        assert build_D(p).theta_degree == n


def test_exponents_fixture():
    p = HGParams(("1/2", "1/2"), (1, 1))
    e = exponents(p)
    assert e.at_zero == (Q(0), Q(0))
    assert e.at_infinity == (Q("1/2"), Q("1/2"))
    assert e.at_one == (Q(0), Q(0))


def test_exponent_sum_is_parameter_free():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randrange(2, 6)
        p = random_params(rng, n)
        e = exponents(p)
        total = sum(e.at_zero + e.at_one + e.at_infinity, Q(0))
        expected = Q((n - 1) * (n - 2)) / Q(2) + Q(n - 1)
        assert total == expected


def test_reducibility_witness_is_lex_first():
    p = HGParams((Q(1), Q(2)), (Q(1), Q(5)))
    red, witness = is_reducible(p)
    assert red and witness == (0, 0)
    assert is_reducible(HGParams(("1/2",) * 2, ("1/3",) * 2)) == (False, None)


def test_partition_fixture():
    p = HGParams((Q(1), Q(2)), (Q(1), Q(5)))
    part = partition(p)
    assert part.zero == frozenset({(0, 0)})
    assert part.positive == frozenset({(1, 0)})
    assert part.negative == frozenset({(0, 1), (1, 1)})


# Gaussian parameters over unrelated denominators, a zero imaginary part
# drawn often; pairs alpha_i = beta_j + g are planted with g of both signs.
gaussian = st.builds(
    lambda a, b, c, d: Q(Fraction(a, b), Fraction(c, d)),
    st.integers(-12, 12), st.integers(1, 9),
    st.one_of(st.just(0), st.integers(-3, 3)), st.integers(1, 4),
)


@st.composite
def planted_params(draw):
    n = draw(st.integers(0, 6))
    alpha = draw(st.lists(gaussian, min_size=n, max_size=n))
    beta = draw(st.lists(gaussian, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        alpha[i] = beta[j] + draw(st.integers(-5, 5))
    return HGParams(alpha, beta)


@settings(max_examples=300, deadline=None)
@given(planted_params())
def test_reducibility_matches_the_scalar_differences(p):
    zero, positive, negative = scalar_partition(p)
    assert partition(p) == (zero, positive, negative)
    assert greedy_matching(p) == scalar_greedy_matching(p)
    pairs = zero | positive | negative
    assert is_reducible(p) == ((True, min(pairs)) if pairs else (False, None))


@settings(max_examples=200, deadline=None)
@given(planted_params())
def test_analysis_report_agrees_with_the_public_functions(p):
    # one table of differences gives what each public function computes alone
    reducible, witness = is_reducible(p)
    try:
        steps = factorization_certificate(p) if reducible else None
    except ValueError as exc:  # every integer difference is negative
        with pytest.raises(ValueError) as refused:
            analysis_report(p, 10**9)
        assert str(refused.value) == str(exc)
        return
    r = analysis_report(p, 10**9)
    assert (r.exponents, r.reducible, r.witness) == (exponents(p), reducible, witness)
    assert r.partition == partition(p)
    try:
        assert (r.canonical_class, r.canonical_class_reason) == (canonical_shift_class(p), None)
    except ValueError as exc:
        assert (r.canonical_class, r.canonical_class_reason) == (None, str(exc))
    assert r.factorization == steps
    assert r.verified == (verify_certificate(p) if reducible else None)


def test_analysis_report_checks_the_gap_bound_before_the_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain step built past the gap bound")

    p = HGParams(("7/2", "1/3"), ("1/2", "1/4"))  # alpha_1 - beta_1 = 3
    assert [s.gap for s in analysis_report(p, 3).factorization] == [3]
    monkeypatch.setattr(hypergeometric, "_factor_chain", refuse)
    with pytest.raises(ValueError) as refused:
        analysis_report(p, 2)
    assert str(refused.value) == "alpha_1 - beta_1 = 3 exceeds the factorization gap bound 2"


def test_the_public_functions_build_the_table_and_the_chain_once(monkeypatch):
    # the facts are cached on the parameter set, whichever function asks
    # first: one table of differences and one chain per HGParams
    def count(name):
        calls, original = [], getattr(hypergeometric, name)
        monkeypatch.setattr(hypergeometric, name,
                            lambda *args: calls.append(args) or original(*args))
        return calls

    def shift_class(p):
        try:
            return canonical_shift_class(p)
        except ValueError as exc:
            return str(exc)

    gaps, chains = count("_gaps"), count("_factor_chain")
    readers = [is_reducible, partition, greedy_matching, shift_class,
               factorization_certificate, verify_certificate]
    values = ((2, "7/2", "1/3"), (1, "1/2", "1/4"))
    for order in (readers, readers[::-1]):
        p = HGParams(*values)
        first, again = ({f: f(p) for f in order} for _ in "12")
        assert first == again
        assert first[shift_class] == "shift class undefined: alpha_1 - beta_1 is an integer"
        assert first[verify_certificate] is True and len(first[factorization_certificate]) == 2
        assert (len(gaps), len(chains)) == (1, 1)
        del gaps[:], chains[:]
    # an equal parameter set and one made by _replace compute their own
    p = HGParams(*values)
    factorization_certificate(p)
    for other in (HGParams(*values), p._replace(beta=p.beta)):
        assert other == p
        factorization_certificate(other)
    assert (len(gaps), len(chains)) == (3, 3)
    # the returned list is a copy: changing it changes no later answer
    steps = factorization_certificate(p)
    kept = list(steps)
    steps[0] = steps[0]._replace(left=steps[0].left + 1)
    steps.append(steps[0])
    assert factorization_certificate(p) == kept and verify_certificate(p) is True
    assert (len(gaps), len(chains)) == (3, 3)


def test_reducibility_takes_no_scalar_arithmetic(monkeypatch):
    # the differences are read on the parameters' cleared integers
    def refuse(*args, **kwargs):
        raise AssertionError("GaussianRational arithmetic in the reducibility test")

    p = HGParams((Q("5/2+i"), Q(-6), Q("7/3"), Q(-1)), (Q("1/2+i"), Q(-1), Q("1/3"), Q("3/4-i")))
    negative_only = HGParams((Q("1/2+i"), Q("1/3")), (Q("5/2+i"), Q("2/7")))
    with monkeypatch.context() as patched:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        part = partition(p)
        matches = greedy_matching(p)
        witness = is_reducible(p)
        with pytest.raises(ValueError, match="alpha_1 - beta_1 = -2 is a negative integer"):
            factorization_certificate(negative_only)
    assert part == ({(3, 1)}, {(0, 0), (2, 2)}, {(1, 1)})
    assert matches == [(3, 1, 0), (0, 0, 2), (2, 2, 2)]
    assert witness == (True, (0, 0))


def test_contiguity_all_kinds():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randrange(2, 5)
        p = random_params(rng, n)
        for kind in CONTIGUITY_KINDS:
            extra = {
                "left_append": Q(rng.randrange(-4, 5)) / Q(rng.randrange(1, 4)),
                "right_append": Q(rng.randrange(-4, 5)) / Q(rng.randrange(1, 4)),
                "alpha_lower": rng.randrange(n),
                "beta_raise": rng.randrange(n),
                "power_shift": rng.randrange(-3, 4),
            }[kind]
            assert contiguity_check(kind, p, extra), (kind, p, extra)


def test_contiguity_unknown_kind():
    with pytest.raises(ValueError):
        contiguity_check("sideways", HGParams((Q(1), Q(1)), (Q(2), Q(2))), Q(0))


def test_contiguity_index_out_of_range():
    p = HGParams((Q(1), Q(1)), (Q(2), Q(2)))
    with pytest.raises(IndexError):
        contiguity_check("alpha_lower", p, 5)


@pytest.mark.parametrize(
    "kind, extra, error",
    [(kind, index, IndexError) for kind in ("alpha_lower", "beta_raise") for index in (-1, -2, 2)]
    + [(kind, True, TypeError) for kind in ("alpha_lower", "beta_raise", "power_shift")],
)
def test_contiguity_refuses_an_index_outside_0_to_n_minus_1(kind, extra, error):
    # -1 once failed as a length mismatch, -2 counted from the end and True
    # passed as the index 1; the error names the kind and the index
    p = HGParams((Q("1/2"), Q("1/3")), (Q("1/5"), Q("1/7")))
    with pytest.raises(error, match="%s .*%r" % (kind, extra)):
        contiguity_check(kind, p, extra)


def test_contiguity_takes_no_scalar_arithmetic(monkeypatch):
    # the parameters are cleared to integers once; every operator of the
    # identity, and both sides' comparison, runs on the integers
    def refuse(*args, **kwargs):
        raise AssertionError("GaussianRational arithmetic in contiguity_check")

    params = (HGParams((Q("1/2"), Q(-6), Q("7/3")), (Q("7/4"), Q(-1), Q("1/5"))),
              HGParams((Q("1/2+i"), Q(-6), Q("7/3-1/3*i")), (Q("7/4-2*i"), Q(-1), Q(-3))))
    extras = (Q("-1/2"), Q("1/3+i"), 2, 0, -2)
    with monkeypatch.context() as patched:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        checks = [contiguity_check(kind, p, x)
                  for p in params for kind, x in zip(CONTIGUITY_KINDS, extras)]
    assert checks == [True] * 2 * len(CONTIGUITY_KINDS)


def test_contiguity_builds_no_polynomial(monkeypatch):
    # both sides of each identity are built, multiplied and compared on the
    # operators' integer grids: no Poly is made, canonical or not
    def refuse(*args, **kwargs):
        raise AssertionError("contiguity_check built a Poly")

    params = (HGParams((Q("1/2"), Q(-6), Q("7/3")), (Q("7/4"), Q(-1), Q("1/5"))),
              HGParams((Q("1/2+i"), Q(-6), Q("7/3-1/3*i")), (Q("7/4-2*i"), Q(-1), Q(-3))))
    extras = (Q("-1/2"), Q("1/3+i"), 2, 0, -2)
    with monkeypatch.context() as patched:
        for module in (polynomials, theta, hypergeometric):
            if hasattr(module, "_from_ints"):
                patched.setattr(module, "_from_ints", refuse)
        patched.setattr(polynomials, "_new", refuse)
        patched.setattr(Poly, "__new__", refuse)
        checks = [contiguity_check(kind, p, x)
                  for p in params for kind, x in zip(CONTIGUITY_KINDS, extras)]
    assert checks == [True] * 2 * len(CONTIGUITY_KINDS)


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("alpha_lower", 0.0),
        ("beta_raise", 1.5),
        ("power_shift", 2.5),
        ("power_shift", Q(2)),
    ],
)
def test_contiguity_refuses_a_non_integer_index_or_shift(kind, extra):
    # truncated, a shift of 2.5 would check s = 2 and pass
    p = HGParams((Q("1/2"), Q("1/3")), (Q("1/5"), Q("1/7")))
    with pytest.raises(TypeError):
        contiguity_check(kind, p, extra)


def test_canonical_shift_class():
    p = HGParams(("5/2", "1/3"), ("7/5", "-1/7"))
    c = canonical_shift_class(p)
    assert c.alpha == (Q("1/2"), Q("1/3"))
    assert c.beta == (Q("2/5"), Q("6/7"))


def test_canonical_shift_class_undefined():
    with pytest.raises(ValueError, match="integer"):
        canonical_shift_class(HGParams((Q(3), Q("1/2")), (Q(1), Q("1/3"))))


def test_greedy_matching_prefers_small_gaps():
    p = HGParams((Q(3), Q(2)), (Q(1), Q(2)))
    matches = greedy_matching(p)
    # (alpha_2, beta_2) has gap 0, then (alpha_1, beta_1) has gap 2
    assert matches == [(1, 1, 0), (0, 0, 2)]


def test_certificate_chain_fixture():
    p = HGParams((Q(0), Q(0), Q(-2)), (Q(1), Q(1), Q(-1)))
    steps = factorization_certificate(p)
    assert len(steps) == 1
    s = steps[0]
    assert s.pair == (0, 2)
    assert s.gap == 1
    assert s.linear_factor == Q(0)
    assert s.params_after == HGParams((Q(0), Q(-2)), (Q(1), Q(1)))
    # the defining identity of the step
    assert build_D(p) * s.right == s.left * build_D(s.params_after)


def test_certificate_chain_exactness_random():
    rng = random.Random(31)
    built = 0
    while built < 12:
        n = rng.randrange(2, 5)
        p = random_params(rng, n, complex_chance=0.2)
        part = partition(p)
        if not (part.zero or part.positive):
            continue
        assert verify_certificate(p)
        built += 1


def test_a_certificate_chain_builds_each_D_once(monkeypatch):
    # each step's right-hand D(P') is the next step's left-hand D: a chain
    # of n steps builds n + 1 operators D, not 2n
    p = HGParams((1, 2, 3, "1/2"), (1, 1, 1, "1/3"))
    steps = factorization_certificate(p)
    built, build = [], hypergeometric.build_D
    monkeypatch.setattr(hypergeometric, "build_D", lambda q: built.append(q) or build(q))
    assert len(steps) == 3 and verify_certificate(p)
    assert built == [p] + [step.params_after for step in steps]


def test_certificate_factors_match_the_scalar_roots():
    # right = (t+b)···(t+b+m-1) and left = (t+b-1)···(t+b+m-2)·(t+a-1),
    # built from the scalar roots, for Gaussian and real matched pairs
    p = HGParams((Q("1/2+i"), Q(3), Q("1/3")), (Q("-3/2+i"), Q("1/3"), Q(-1)))
    steps = factorization_certificate(p)
    assert [s.gap for s in steps] == [0, 2, 4]
    for step in steps:
        (i, j), m = step.pair, step.gap
        a, b = p.alpha[i], p.beta[j]
        right = Poly.from_roots([-(b + l) for l in range(m)])
        left = Poly.from_roots([1 - b - l for l in range(m)] + [1 - a])
        assert step.right == ThetaOperator({(0, k): c for k, c in enumerate(right.coeffs)})
        assert step.left == ThetaOperator({(0, k): c for k, c in enumerate(left.coeffs)})


def test_negative_gaps_have_no_chain():
    # alpha below beta by an integer: reducible, but no factor can be
    # split off on this side
    p = HGParams((Q(1), Q("1/2")), (Q(4), Q("1/3")))
    assert is_reducible(p)[0]
    with pytest.raises(ValueError, match="matching"):
        factorization_certificate(p)


def test_certificate_full_consumption():
    # every alpha is matched: the reduced operator is the empty product 1-z
    p = HGParams((Q(2), Q(3)), (Q(1), Q(1)))
    steps = factorization_certificate(p)
    removed, reduced = [s.linear_factor for s in steps], steps[-1].params_after
    assert len(removed) == 2
    assert reduced.n == 0
    assert build_D(reduced) == ONE_OP - Z
    assert verify_certificate(p)


def test_certificate_requires_reducible_input():
    with pytest.raises(ValueError, match="matching"):
        factorization_certificate(HGParams(("1/2", "1/2"), (1, 1)))
    # every alpha_i - beta_j a negative integer: the lexicographically first
    # pair is named, not the smallest or largest gap
    with pytest.raises(ValueError, match="^no admissible matching: "
                                         "alpha_1 - beta_1 = -2 is a negative integer$"):
        factorization_certificate(HGParams((1, 2), (3, 5)))


def test_factor_reducible_removes_matched_alphas():
    p = HGParams((Q(3), Q("1/2")), (Q(1), Q("1/3")))
    steps = factorization_certificate(p)
    removed, reduced = [s.linear_factor for s in steps], steps[-1].params_after
    assert removed == [Q(3)]
    assert reduced == HGParams((Q("1/2"),), (Q("1/3"),))


def test_reduced_operator_right_divides():
    # with matched pairs removed, the certificate relates the original
    # operator to the reduced one through exact products
    p = HGParams((Q(0), Q(0), Q(-2)), (Q(1), Q(1), Q(-1)))
    d = build_D(p)
    c, q, r = right_divide(d, ThetaOperator.theta())
    assert c == 1 and r.is_zero()
