import random

import numpy as np
import pytest

from thetakit.hypergeometric import HGParams
from thetakit.monodromy import (
    LocalSpectra,
    MonodromyTriple,
    build_monodromy,
    check_pseudo_reflection_numeric,
    companion_eigenvalues,
    local_spectra,
    multiset_close,
    rigidity_check_numeric,
)
from thetakit.scalars import Q

from util import irreducible_params

GAUSS = HGParams(("1/4", "3/4"), ("1/2", "1"))


def test_fixture_matrices():
    t = build_monodromy(GAUSS)
    assert np.allclose(t.minf, [[0, -1], [1, 0]], atol=1e-14)
    assert np.allclose(t.m0, [[0, 1], [1, 0]], atol=1e-14)
    assert np.allclose(t.m1, [[1, 0], [0, -1]], atol=1e-14)
    assert t.product_residual() <= 1e-12


def test_fixture_determinant():
    t = build_monodromy(GAUSS)
    # sum(beta) - sum(alpha) = 1/2, so det(m1) = e^{pi i} = -1
    assert abs(np.linalg.det(t.m1) + 1) < 1e-12


def test_local_spectra_values():
    s = local_spectra(GAUSS)
    assert multiset_close(s.at_infinity, [1j, -1j], 1e-12)
    assert multiset_close(s.at_zero, [-1, 1], 1e-12)
    assert multiset_close(s.at_one, [1, -1], 1e-12)


def test_local_spectra_multiplicity_at_one():
    p = HGParams(("1/5", "2/5", "3/5"), ("1/2", "1/3", "1/7"))
    s = local_spectra(p)
    ones = [v for v in s.at_one if abs(v - 1) < 1e-12]
    assert len(ones) == p.n - 1


def test_nonreal_parameters_rejected():
    with pytest.raises(ValueError, match="real"):
        local_spectra(HGParams((Q(1, 2), Q(1)), (Q(2), Q(3))))
    with pytest.raises(ValueError, match="real"):
        build_monodromy(HGParams((Q(1, 2), Q(1)), (Q(2), Q(3))))


def test_reducible_parameters_rejected():
    with pytest.raises(ValueError, match="reducible"):
        build_monodromy(HGParams(("1/2", "1/3"), ("3/2", "1/5")))
    with pytest.raises(ValueError, match="alpha_1 - beta_1"):
        build_monodromy(HGParams(("1/4", "3/4"), ("1/4", "1")), tol=float("nan"))


def test_near_integer_gap_is_irreducible():
    # alpha_2 - beta_2 = 10^-12 is not an integer, however close the
    # exponentials are: the exact test decides
    p = HGParams(("1/3", "1000000000001/1000000000000"), ("1/2", "1"))
    t = build_monodromy(p)
    assert t.product_residual() <= 1e-10


def test_nan_tolerance_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="tolerance"):
        build_monodromy(GAUSS, tol=nan)
    with pytest.raises(ValueError, match="tolerance"):
        check_pseudo_reflection_numeric(np.eye(2), nan)
    with pytest.raises(ValueError, match="tolerance"):
        rigidity_check_numeric(build_monodromy(GAUSS), nan)


def test_pseudo_reflection_svd():
    assert check_pseudo_reflection_numeric(np.diag([1.0, 1.0, -1.0]), 1e-8)
    assert not check_pseudo_reflection_numeric(np.eye(3), 1e-8)
    assert not check_pseudo_reflection_numeric(np.diag([2.0, 3.0, 1.0]), 1e-8)
    transvection = np.array([[1.0, 5.0], [0.0, 1.0]])
    assert check_pseudo_reflection_numeric(transvection, 1e-8)
    with pytest.raises(ValueError):
        check_pseudo_reflection_numeric(np.eye(2), 0.0)


def test_triple_invariant_enforced():
    with pytest.raises(ValueError, match="residual"):
        MonodromyTriple(
            m0=np.eye(2), m1=np.eye(2), minf=2 * np.eye(2), tolerance=1e-10
        )
    with pytest.raises(ValueError, match="finite"):
        MonodromyTriple(
            m0=np.array([[np.inf, 0], [0, 1]]),
            m1=np.eye(2),
            minf=np.eye(2),
        )
    with pytest.raises(ValueError, match="square"):
        MonodromyTriple(m0=np.ones((2, 3)), m1=np.eye(2), minf=np.eye(2))


def test_rigidity_round_trip_fixture():
    t = build_monodromy(GAUSS)
    assert rigidity_check_numeric(t, 1e-8)
    assert rigidity_check_numeric(t, 1e-8, seed=5)


def test_rigidity_round_trip_random():
    rng = random.Random(99)
    for trial in range(10):
        n = rng.randrange(2, 7)
        p = irreducible_params(rng, n)
        t = build_monodromy(p)
        assert rigidity_check_numeric(t, 1e-8, seed=trial), p


def test_companion_eigenvalues_round_trip():
    t = build_monodromy(GAUSS)
    got = companion_eigenvalues(t.minf)
    assert multiset_close(got, [1j, -1j], 1e-10)


def test_multiset_close_edges():
    assert multiset_close([], [], 1e-8)
    assert not multiset_close([1.0], [], 1e-8)
    assert not multiset_close([1.0], [1.0 + 1e-6], 1e-8)
    assert multiset_close([1.0, 1j], [1j, 1.0], 1e-12)


def test_local_spectra_is_frozen():
    s = local_spectra(GAUSS)
    assert isinstance(s, LocalSpectra)
    with pytest.raises(AttributeError):
        s.at_zero = ()
