"""End-to-end acceptance suite.

Each test covers one headline property of the library at its stated
tolerance; run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per property.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from thetakit.extension import ext_dimension, parameter_counts
from thetakit.hypergeometric import (
    CONTIGUITY_KINDS,
    HGParams,
    build_D,
    contiguity_check,
    is_reducible,
)
from thetakit.linalg import ExactMatrix
from thetakit.monodromy import (
    build_monodromy,
    multiset_distance,
    pseudo_reflection_margins,
    rigidity_margins,
)
from thetakit.polynomials import Poly, poly_gcd
from thetakit.rigidity import (
    MatrixTuple,
    Spectrum,
    algebra_span_dimension,
    common_frame,
    common_spectrum_certificate,
    companion_from_spectrum,
    find_stabilized_subspace,
    is_irreducible_pair,
    levelt_normal_form,
    tuple_conjugator,
)
from thetakit.scalars import Q
from thetakit.theta import ThetaOperator, right_divide

from util import (
    conjugated_levelt,
    disjoint_spectra,
    gaussian_rational,
    integer_levelt_pair,
    invertible_matrix,
    irreducible_params,
    is_integer,
    local_spectra,
    one_above,
    params as random_params,
    round_trip_holds,
)

T = ThetaOperator.theta()
Z = ThetaOperator.z()
ONE_OP = ThetaOperator.one()


def test_contiguity_identity_suite():
    """All five contiguity identities hold exactly on 200 random sets."""
    rng = random.Random(2024)
    started = time.monotonic()
    for trial in range(200):
        n = rng.randrange(2, 6)
        p = random_params(rng, n)
        for kind in CONTIGUITY_KINDS:
            extra = {
                "left_append": gaussian_rational(rng),
                "right_append": gaussian_rational(rng),
                "alpha_lower": rng.randrange(n),
                "beta_raise": rng.randrange(n),
                "power_shift": rng.randrange(-3, 4),
            }[kind]
            assert contiguity_check(kind, p, extra), (kind, p, extra)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "contiguity suite took %.1fs" % elapsed
    print("PASS contiguity identities: 200 sets x 5 kinds, %.1fs" % elapsed)


def test_factored_cubic_fixture():
    """The order-3 fixture factors as (1-z)*t^2*(t-2) with right factor t."""
    p = HGParams((Q(0), Q(0), Q(-2)), (Q(1), Q(1), Q(-1)))
    d = build_D(p)
    assert d == (ONE_OP - Z) * T * T * (T - 2 * ONE_OP)
    c, q, r = right_divide(d, T)
    assert c == 1
    assert r.is_zero()
    assert q == (ONE_OP - Z) * T * (T - 2 * ONE_OP)
    assert q * T == d
    print("PASS factored cubic fixture: exact equality and zero remainder")


def test_gauss_reducibility_grid():
    """Reducibility of (a,b;1,c) matches the integrality predicate."""
    fifths = [Q(k) / Q(5) for k in range(-10, 11)]
    cs = [Q(k) / Q(5) for k in range(-12, 13)]
    points = 0
    for a in fifths:
        for b in fifths:
            for c in cs:
                expected = (
                    is_integer(a)
                    or is_integer(b)
                    or is_integer(a - c)
                    or is_integer(b - c)
                )
                got, _ = is_reducible(HGParams((a, b), (Q(1), c)))
                assert got == expected, (a, b, c)
                points += 1
    assert points >= 10_000
    print("PASS reducibility grid: %d points" % points)


def test_normal_form_round_trip_suite():
    """100 conjugated instances return to companion form index-wise."""
    rng = random.Random(777)
    started = time.monotonic()
    for trial in range(100):
        n = rng.randrange(2, 6)
        p = rng.randrange(2, 5)
        spectra, g, conj = conjugated_levelt(rng, p, n)
        frame = common_frame(conj)
        u, canon = levelt_normal_form(conj, frame)
        for k, s in enumerate(spectra):
            assert canon[k] == companion_from_spectrum(s)
        for k in range(p):
            assert u * conj[k] * u.inverse() == canon[k]
    # planted common eigenvalue: the construction must refuse
    refused = 0
    for trial in range(10):
        n = rng.randrange(2, 6)
        p = rng.randrange(2, 5)
        shared = Q(rng.randrange(1, 6))
        spectra = []
        for k in range(p):
            vals = {shared}
            while len(vals) < n:
                vals.add(Q(rng.randrange(10 * k + 10, 10 * k + 40)))
            spectra.append(Spectrum(tuple(vals)))
        base = MatrixTuple(tuple(companion_from_spectrum(s) for s in spectra))
        g = invertible_matrix(rng, n)
        conj = MatrixTuple(tuple(g * m * g.inverse() for m in base))
        frame = common_frame(conj)
        with pytest.raises(ValueError):
            levelt_normal_form(conj, frame)
        refused += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "normal-form suite took %.1fs" % elapsed
    print(
        "PASS normal form round trip: 100 recoveries, %d refusals, %.1fs"
        % (refused, elapsed)
    )


def test_frame_recovery_suite():
    """common_frame exhibits n-1 exact shared rows or columns, 100 families."""
    rng = random.Random(4321)
    for trial in range(100):
        n = rng.randrange(2, 6)
        p = rng.choice((2, 3))
        _, _, conj = conjugated_levelt(rng, p, n)
        if trial % 2 == 1 and p == 3:
            conj = MatrixTuple(m.transpose() for m in conj)
        frame = common_frame(conj)
        assert len(frame.shared_indices) == n - 1
        assert frame.verify(conj)
        # re-check the shared lines explicitly in the transformed members
        u, u_inv = frame.basis_change, frame.inverse
        changed = [u * m * u_inv for m in conj]
        if frame.side == "columns":
            changed = [m.transpose() for m in changed]
        for other in changed[1:]:
            for k in frame.shared_indices:
                assert changed[0].row(k) == other.row(k)
    print("PASS frame recovery: 100 families, both sides")


def test_irreducibility_equivalence_suite():
    """Pair irreducibility agrees with the algebra-span oracle, 100 pairs."""
    rng = random.Random(60457)
    agreements = 0
    for trial in range(100):
        n = rng.randrange(2, 5)
        overlap = rng.random() < 0.4
        vals_a = set()
        while len(vals_a) < n:
            vals_a.add(Q(rng.randrange(1, 25)))
        vals_b = set()
        if overlap:
            vals_b.add(rng.choice(sorted(vals_a, key=str)))
        while len(vals_b) < n:
            vals_b.add(Q(rng.randrange(25, 50)))
        base = MatrixTuple(
            (
                companion_from_spectrum(Spectrum(tuple(vals_a))),
                companion_from_spectrum(Spectrum(tuple(vals_b))),
            )
        )
        g = invertible_matrix(rng, n)
        a, b = (g * m * g.inverse() for m in base)
        verdict = is_irreducible_pair(a, b)
        span = algebra_span_dimension(MatrixTuple((a, b)))
        assert verdict == (span == n * n), (vals_a, vals_b)
        assert verdict == (not overlap)
        agreements += 1
    assert agreements == 100
    print("PASS irreducibility equivalence: 100 pairs vs span oracle")


def test_invariant_subspace_certificates():
    """Constructed families yield a verified line or hyperplane plus a
    nonconstant characteristic-polynomial gcd, re-checked directly."""
    rng = random.Random(8644)
    lines = hyperplanes = 0
    for trial in range(40):
        n = rng.randrange(2, 5)
        p = rng.choice((2, 3))
        shared = Q(rng.randrange(1, 6))
        spectra = []
        for k in range(p):
            vals = {shared}
            while len(vals) < n:
                vals.add(Q(rng.randrange(10 * k + 10, 10 * k + 40)))
            spectra.append(Spectrum(tuple(vals)))
        base = MatrixTuple(tuple(companion_from_spectrum(s) for s in spectra))
        g = invertible_matrix(rng, n)
        members = tuple(g * m * g.inverse() for m in base)
        if trial % 2 == 1:
            members = tuple(m.transpose() for m in members)
        t = MatrixTuple(members)
        frame = common_frame(t)
        found = find_stabilized_subspace(t, frame, shared)
        if "line" in found:
            space = found["line"]
            assert space.dim == 1
            lines += 1
        else:
            space = found["hyperplane"]
            assert space.dim == n - 1
            hyperplanes += 1
        for m in t:
            assert space.is_invariant_under(m)
        cert = common_spectrum_certificate(t, frame, space)
        assert cert.degree >= 1
        assert cert == cert.monic()
        for m in t:
            assert m.char_poly() % cert == Poly([])
        assert cert.evaluate(shared) == Q(0)
    assert lines > 0 and hyperplanes > 0
    print(
        "PASS invariant subspace certificates: %d lines, %d hyperplanes"
        % (lines, hyperplanes)
    )


def _circle(x: Fraction) -> complex:
    return complex(np.exp(2j * np.pi * float(x)))


def _construction_coefficients(roots) -> np.ndarray:
    """Monic coefficients (highest first) by direct symmetric expansion."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        coeffs = (
            [coeffs[0]]
            + [coeffs[k] - r * coeffs[k - 1] for k in range(1, len(coeffs))]
            + [-r * coeffs[-1]]
        )
    return np.array(coeffs)


def _companion_spectrum_matches(m, expected, tol) -> bool:
    """Spectrum check through the defining polynomial of a companion.

    The eigenvalues of a companion matrix are exactly the roots of the
    polynomial in its last column, so the multiset comparison is done
    at the coefficient level (independently re-expanded from the
    expected roots), which stays well-conditioned at any root
    multiplicity.  When the expected values are pairwise separated the
    roots are additionally re-extracted and matched one-to-one.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    for i in range(n):
        for j in range(n - 1):
            target = 1.0 if i == j + 1 else 0.0
            if abs(m[i, j] - target) > 1e-12:
                return False
    coeffs = np.ones(n + 1, dtype=complex)
    for i in range(n):
        coeffs[n - i] = -m[i, n - 1]
    if np.max(np.abs(coeffs - _construction_coefficients(expected))) > tol:
        return False
    expected = list(expected)
    sep = min(
        (abs(x - y) for i, x in enumerate(expected) for y in expected[i + 1:]),
        default=1.0,
    )
    if sep > 1e-3:
        return multiset_distance(np.roots(coeffs), expected) <= tol
    return True


def test_monodromy_numeric_suite():
    """50 random irreducible parameter sets meet every numeric bound."""
    rng = random.Random(31415)
    worst_residual = 0.0
    for trial in range(50):
        n = rng.randrange(2, 7)
        p = irreducible_params(rng, n, den=12)
        t = build_monodromy(p)
        residual = t.product_residual()
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-10, (p, residual)

        s = local_spectra(p)
        assert _companion_spectrum_matches(t.minf, s.at_infinity, 1e-8), p

        assert one_above(pseudo_reflection_margins(t.m1), 1e-8), p

        shift = sum(float(b.re) for b in p.beta) - sum(
            float(a.re) for a in p.alpha
        )
        target = complex(np.exp(2j * np.pi * shift))
        assert abs(np.linalg.det(t.m1) - target) <= 1e-8, p

        assert round_trip_holds(rigidity_margins(t, seed=trial), 1e-8), p
    print(
        "PASS monodromy numeric suite: 50 sets, worst residual %.2e"
        % worst_residual
    )


QUARTER_TURNS = (Q(1), Q(0, 1), Q(-1), Q(0, -1))  # e^{2 pi i k/4}, k = 0..3


def _to_complex(m: ExactMatrix) -> np.ndarray:
    return np.array([[complex(float(x.re), float(x.im)) for x in row] for row in m.rows])


def test_exact_and_numeric_layers_agree():
    """Parameters in Z/4, where every e^{2 pi i alpha} lies in Q(i): the
    exact tests and the numeric triple describe one group, 120 draws."""
    rng = random.Random(1989)
    seen = {True: 0, False: 0}
    for trial in range(120):
        n = rng.randrange(2, 4)
        ka = [rng.randrange(-4, 8) for _ in range(n)]
        kb = [rng.randrange(-4, 8) for _ in range(n)]
        a, b = (
            companion_from_spectrum(Spectrum(tuple(QUARTER_TURNS[k % 4] for k in ks)))
            for ks in (ka, kb)
        )
        if a == b:
            continue  # equal spectra: the ratio is I, not a pseudo-reflection
        p = HGParams(tuple(Q(k) / Q(4) for k in ka), tuple(Q(k) / Q(4) for k in kb))
        reducible = is_reducible(p)[0]
        assert reducible == (not is_irreducible_pair(a, b)), p
        span = algebra_span_dimension(MatrixTuple((a, b)))
        assert reducible == (span < n * n), (p, span)
        seen[reducible] += 1
        if not reducible:
            # m_inf = A and m0^{-1} = B, the companions of the two spectra
            t = build_monodromy(p)
            assert np.max(np.abs(t.minf - _to_complex(a))) <= 1e-9, p
            assert np.max(np.abs(np.linalg.inv(t.m0) - _to_complex(b))) <= 1e-9, p
            # the numeric normal-form round trip succeeds exactly when the
            # exact one does, and on an irreducible pair both must
            pair = MatrixTuple((a, b))
            exact = _succeeds(lambda: levelt_normal_form(pair, common_frame(pair)))
            numeric = round_trip_holds(rigidity_margins(t), 1e-8)
            assert exact and numeric, (p, exact, numeric)
    assert seen[True] >= 10 and seen[False] >= 10, seen
    print(
        "PASS exact vs numeric: %d reducible, %d irreducible pairs agree"
        % (seen[True], seen[False])
    )


def test_integer_levelt_pairs_agree():
    """Parameters that are whole Galois orbits k/d, d <= 30, n = 2..8: the
    Levelt pair is the pair of integer companions of products of
    cyclotomic polynomials, and the exact tests and the numeric triple
    describe one group, 30 draws for each n."""
    rng = random.Random(1989)
    seen = {True: 0, False: 0}
    started = time.monotonic()
    for n in range(2, 9):
        for _ in range(30):
            p, a, b = integer_levelt_pair(rng, n)
            if a == b:
                continue  # equal spectra: the ratio is I, not a pseudo-reflection
            reducible = is_reducible(p)[0]
            assert reducible == (not is_irreducible_pair(a, b)), p
            pair = MatrixTuple((a, b))
            span = algebra_span_dimension(pair)
            assert reducible == (span < n * n), (p, span)
            seen[reducible] += 1
            if not reducible:
                t = build_monodromy(p)
                assert np.max(np.abs(t.minf - _to_complex(a))) <= 1e-8, p
                assert np.max(np.abs(np.linalg.inv(t.m0) - _to_complex(b))) <= 1e-8, p
                u, canon = levelt_normal_form(pair, common_frame(pair))
                assert canon == pair and u * a == a * u, p
    elapsed = time.monotonic() - started
    assert seen[True] >= 20 and seen[False] >= 20, seen
    print(
        "PASS integer Levelt pairs: %d reducible, %d irreducible pairs agree, %.1fs"
        % (seen[True], seen[False], elapsed)
    )


def test_integer_levelt_pairs_survive_unimodular_conjugation():
    """An irreducible integer Levelt pair conjugated by a unimodular integer
    matrix g: tuple_conjugator finds the conjugator back to the companions,
    and the normal form returns them, 5 pairs for each n = 2..8."""
    rng = random.Random(95)
    for n in range(2, 9):
        done = 0
        while done < 5:
            p, a, b = integer_levelt_pair(rng, n)
            if a == b or is_reducible(p)[0]:
                continue
            pair = MatrixTuple((a, b))
            g = invertible_matrix(rng, n)
            assert g.den == 1 and g.det() in (1, -1)
            conj = MatrixTuple((g * a * g.inverse(), g * b * g.inverse()))
            u = tuple_conjugator(conj, pair)
            assert u is not None and all(u * c == m * u for c, m in zip(conj, pair))
            _, canon = levelt_normal_form(conj, common_frame(conj))
            assert canon == pair, p
            done += 1
    print("PASS integer Levelt pairs: 35 unimodular conjugations undone")


def _succeeds(compute) -> bool:
    """False when compute() raises ValueError or returns False."""
    try:
        return compute() is not False
    except ValueError:
        return False


def test_parameter_count_fixtures():
    """Count equality holds exactly for n=1 and (2,3), nowhere else."""
    for n in range(1, 11):
        for s in range(1, 11):
            eq, mono, rigid = parameter_counts(n, s)
            assert rigid == (eq == mono)
            assert rigid == (n == 1 or (n, s) == (2, 3)), (n, s)
    assert parameter_counts(2, 3) == (5, 5, True)
    assert ext_dimension(2, 3, 0, 0) == 2
    print("PASS parameter count fixtures: 10x10 grid classified")
