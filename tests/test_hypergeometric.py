import random

import pytest

from thetakit.hypergeometric import (
    CONTIGUITY_KINDS,
    HGParams,
    build_D,
    canonical_shift_class,
    contiguity_check,
    exponents,
    factor_reducible,
    factorization_certificate,
    greedy_matching,
    is_reducible,
    partition,
    verify_certificate,
)
from thetakit.scalars import Q
from thetakit.theta import ThetaOperator, right_divide

from util import params as random_params

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
    removed, reduced = factor_reducible(p)
    assert len(removed) == 2
    assert reduced.n == 0
    assert build_D(reduced) == ONE_OP - Z
    assert verify_certificate(p)


def test_certificate_requires_reducible_input():
    with pytest.raises(ValueError, match="matching"):
        factorization_certificate(HGParams(("1/2", "1/2"), (1, 1)))


def test_factor_reducible_removes_matched_alphas():
    p = HGParams((Q(3), Q("1/2")), (Q(1), Q("1/3")))
    removed, reduced = factor_reducible(p)
    assert removed == [Q(3)]
    assert reduced == HGParams((Q("1/2"),), (Q("1/3"),))


def test_reduced_operator_right_divides():
    # with matched pairs removed, the certificate relates the original
    # operator to the reduced one through exact products
    p = HGParams((Q(0), Q(0), Q(-2)), (Q(1), Q(1), Q(-1)))
    d = build_D(p)
    c, q, r = right_divide(d, ThetaOperator.theta())
    assert c == 1 and r.is_zero()
