import random

import pytest

from thetakit.linalg import ExactMatrix, Subspace
from thetakit.polynomials import Poly, X, poly_gcd
from thetakit.rigidity import (
    CommonFrame,
    MatrixTuple,
    Spectrum,
    algebra_span_dimension,
    common_frame,
    common_spectrum_certificate,
    companion_from_spectrum,
    find_stabilized_subspace,
    is_irreducible_pair,
    is_pseudo_reflection,
    levelt_normal_form,
    levelt_tuple,
    pseudo_reflection_pairs,
    tuple_conjugator,
)
from thetakit.scalars import Q

from util import conjugated_levelt, disjoint_spectra, invertible_matrix


def m_(rows):
    return ExactMatrix([[Q(x) for x in row] for row in rows])


def companion_pair(spec_a, spec_b):
    return MatrixTuple(
        (
            companion_from_spectrum(Spectrum(tuple(Q(v) for v in spec_a))),
            companion_from_spectrum(Spectrum(tuple(Q(v) for v in spec_b))),
        )
    )


class TestMatrixTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixTuple((ExactMatrix.identity(2),))
        with pytest.raises(ValueError):
            MatrixTuple((ExactMatrix.identity(2), ExactMatrix.identity(3)))

    def test_dict_round_trip(self):
        t = companion_pair((1, 2), (3, 4))
        assert MatrixTuple.from_dict(t.to_dict()) == t

    def test_dict_declared_n_checked(self):
        t = companion_pair((1, 2), (3, 4))
        data = t.to_dict()
        data["n"] = 3
        with pytest.raises(ValueError):
            MatrixTuple.from_dict(data)

    def test_transposed(self):
        t = companion_pair((1, 2), (3, 4))
        tt = t.transposed()
        assert tt[0] == t[0].transpose()

    def test_char_polys(self):
        t = companion_pair((1, 2), (3, 4))
        assert t.char_polys()[0] == Poly.from_roots([Q(1), Q(2)])


def test_ratio_table_names_a_singular_member():
    a = companion_from_spectrum(Spectrum((Q(1), Q(2))))
    singular = m_([[1, 1], [1, 1]])
    t = MatrixTuple((a, singular, ExactMatrix.identity(2)))
    with pytest.raises(ValueError, match="member 2 is singular"):
        pseudo_reflection_pairs(t)
    with pytest.raises(ValueError, match="member 2 is singular"):
        common_frame(t)


def test_pseudo_reflection_rank_criterion():
    assert is_pseudo_reflection(m_([[1, 0], [0, 5]]))
    assert is_pseudo_reflection(m_([[1, 3], [0, 1]]))  # transvection
    assert not is_pseudo_reflection(ExactMatrix.identity(2))
    assert not is_pseudo_reflection(m_([[2, 0], [0, 5]]))


class TestCommonFrame:
    def test_companions_already_framed(self):
        t = companion_pair((1, 2), (3, 4))
        frame = common_frame(t)
        assert frame.side == "columns"
        assert frame.shared_indices == (0,)
        assert frame.verify(t)

    def test_recovers_after_conjugation(self):
        rng = random.Random(8)
        for trial in range(10):
            n = rng.randrange(2, 6)
            _, _, conj = conjugated_levelt(rng, rng.randrange(2, 4), n)
            frame = common_frame(conj)
            assert frame.side == "columns"
            assert len(frame.shared_indices) == n - 1
            assert frame.verify(conj)

    def test_rows_side(self):
        # with three members the pairwise difference kernels differ, so
        # the transposed tuple is recognised through its shared images
        rng = random.Random(21)
        _, _, conj = conjugated_levelt(rng, 3, 3)
        flipped = conj.transposed()
        frame = common_frame(flipped)
        assert frame.side == "rows"
        assert frame.verify(flipped)

    def test_transposed_pair_still_gets_column_frame(self):
        # a pair has a single difference, so its kernel always supplies
        # a column frame even for transposed companions
        rng = random.Random(22)
        _, _, conj = conjugated_levelt(rng, 2, 3)
        flipped = conj.transposed()
        frame = common_frame(flipped)
        assert frame.side == "columns"
        assert frame.verify(flipped)

    def test_singular_member_rejected(self):
        t = MatrixTuple((m_([[1, 0], [0, 0]]), ExactMatrix.identity(2)))
        with pytest.raises(ValueError, match="singular"):
            common_frame(t)

    def test_non_reflection_ratio_rejected(self):
        t = MatrixTuple((m_([[2, 0], [0, 3]]), ExactMatrix.identity(2)))
        with pytest.raises(ValueError, match="pseudo-reflection"):
            common_frame(t)


def framed_pair(rng, n, side, agree):
    """(frame, tuple) with a random basis change U and members
    U^{-1}·C_k·U, where C_0 and C_1 agree on the frame's shared rows or
    columns exactly when agree is set."""
    u = invertible_matrix(rng, n)
    u_inv = u.inverse()
    shared = tuple(range(n - 1)) if side == "columns" else tuple(range(1, n))
    free = n - 1 if side == "columns" else 0
    base = [[Q(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    other = [list(r) for r in base]
    changed = [(free, k) for k in range(n)]  # the free column / row
    if not agree:
        changed.append((rng.choice(shared), rng.randrange(n)))
    for a, b in changed:
        i, j = (b, a) if side == "columns" else (a, b)
        other[i][j] = other[i][j] + Q(rng.randrange(1, 4))
    members = tuple(u_inv * ExactMatrix(c) * u for c in (base, other))
    frame = CommonFrame(
        basis_change=u, side=side, shared_indices=shared, inverse=u_inv
    )
    return frame, MatrixTuple(members)


class TestFrameInverse:
    def test_mismatched_inverse_rejected(self):
        u = m_([[1, 1, 0], [0, 1, 0], [0, 0, 1]])

        def frame(inverse):
            return CommonFrame(
                basis_change=u, side="columns", shared_indices=(0, 1), inverse=inverse
            )

        assert frame(u.inverse()).inverse == m_([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        near = m_([[1, -1, 0], [0, 1, 0], [0, 0, 2]])
        for wrong in (u, ExactMatrix.identity(3), near):
            with pytest.raises(ValueError, match="inverse"):
                frame(wrong)

    @pytest.mark.parametrize("side", ["columns", "rows"])
    def test_verify_detects_a_tuple_off_the_frame(self, side):
        rng = random.Random(17 if side == "columns" else 18)
        for trial in range(12):
            n = rng.randrange(2, 6)
            agree = trial % 2 == 0
            frame, t = framed_pair(rng, n, side, agree)
            assert frame.verify(t) is agree
            # the definition: conjugated members agree on the shared part
            a, b = frame.apply(t)
            if side == "rows":
                a, b = a.transpose(), b.transpose()
            shared = frame.shared_indices
            assert agree == all(a.column(k) == b.column(k) for k in shared)


class TestFrameMismatch:
    """A frame the members do not share is refused wherever it is given,
    also after it was accepted for another tuple."""

    def test_frame_of_another_tuple(self):
        rng = random.Random(29)
        _, _, a = conjugated_levelt(rng, 3, 3)
        _, _, b = conjugated_levelt(rng, 3, 3)
        frame = common_frame(a)
        assert not frame.verify(b)
        levelt_normal_form(a, frame)  # accepted, and recorded on a
        with pytest.raises(ValueError, match="do not share the given frame"):
            levelt_normal_form(b, frame)
        levelt_normal_form(a, frame)

    def test_every_entry_point(self):
        # the companions share eigenvalue 2; conjugating one of them
        # moves it off the frame of the pair
        t = companion_pair((1, 2), (2, 5))
        frame = common_frame(t)
        g = m_([[1, 1], [0, 1]])
        off = MatrixTuple((t[0], g * t[1] * g.inverse()))
        w = find_stabilized_subspace(t, frame, Q(2))["hyperplane"]
        with pytest.raises(ValueError, match="do not share the given frame"):
            find_stabilized_subspace(off, frame, Q(2))
        with pytest.raises(ValueError, match="do not share the given frame"):
            common_spectrum_certificate(off, frame, w)
        with pytest.raises(ValueError, match="do not share the given frame"):
            levelt_normal_form(off, frame)


class TestStabilizedSubspace:
    def test_hyperplane_branch(self):
        # companions sharing the eigenvalue 2: the common left eigenvector
        # yields an invariant hyperplane
        t = companion_pair((1, 2), (2, 5))
        frame = common_frame(t)
        found = find_stabilized_subspace(t, frame, Q(2))
        assert "hyperplane" in found
        h = found["hyperplane"]
        assert h.dim == t.n - 1
        for member in t:
            assert h.is_invariant_under(member)

    def test_line_branch_via_transpose(self):
        t = companion_pair((1, 2), (2, 5)).transposed()
        frame = common_frame(t)
        found = find_stabilized_subspace(t, frame, Q(2))
        assert "line" in found
        line = found["line"]
        assert line.dim == 1
        for member in t:
            assert line.is_invariant_under(member)

    def test_eigenvalue_precheck(self):
        t = companion_pair((1, 2), (3, 4))
        frame = common_frame(t)
        with pytest.raises(ValueError):
            find_stabilized_subspace(t, frame, Q(7))

    def test_conjugated_instances(self):
        rng = random.Random(5)
        for trial in range(8):
            n = rng.randrange(2, 5)
            shared = Q(rng.randrange(1, 5))
            spectra = []
            for k in range(2):
                vals = {shared}
                while len(vals) < n:
                    vals.add(Q(rng.randrange(5 * k + 5, 5 * k + 30)))
                spectra.append(Spectrum(tuple(vals)))
            base = MatrixTuple(tuple(companion_from_spectrum(s) for s in spectra))
            g = invertible_matrix(rng, n)
            conj = MatrixTuple(tuple(g * m * g.inverse() for m in base))
            frame = common_frame(conj)
            found = find_stabilized_subspace(conj, frame, shared)
            space = found.get("hyperplane") or found.get("line")
            assert space is not None
            for member in conj:
                assert space.is_invariant_under(member)


def test_spectrum_certificate():
    t = companion_pair((1, 2), (2, 5))
    frame = common_frame(t)
    found = find_stabilized_subspace(t, frame, Q(2))
    w = found["hyperplane"]
    cert = common_spectrum_certificate(t, frame, w)
    assert cert.degree >= 1
    assert cert == cert.monic()
    for q in t.char_polys():
        assert q % cert == Poly([])


def test_spectrum_certificate_coprime_error():
    t = companion_pair((1, 2), (3, 4))
    frame = common_frame(t)
    line = Subspace([(Q(1), Q(0))], 2)
    with pytest.raises(ValueError, match="coprime|invariant"):
        common_spectrum_certificate(t, frame, line)


class TestCompanionFromSpectrum:
    def test_fixtures(self):
        assert companion_from_spectrum(Spectrum((Q(1), Q(2)))) == m_(
            [[0, -2], [1, 3]]
        )
        assert companion_from_spectrum(Spectrum((Q(1), Q(1)))) == m_(
            [[0, -1], [1, 2]]
        )

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            companion_from_spectrum(Spectrum((Q(0), Q(1))))


def test_levelt_tuple_rejects_common_value():
    with pytest.raises(ValueError, match="every spectrum"):
        levelt_tuple([Spectrum((Q(1), Q(2))), Spectrum((Q(1), Q(3)))])


class TestNormalForm:
    def test_round_trip_exact(self):
        rng = random.Random(77)
        for trial in range(10):
            n = rng.randrange(2, 6)
            p = rng.randrange(2, 5)
            spectra, g, conj = conjugated_levelt(rng, p, n)
            frame = common_frame(conj)
            u, canon = levelt_normal_form(conj, frame)
            for k, s in enumerate(spectra):
                assert canon[k] == companion_from_spectrum(s)
            # u really conjugates the input onto the canonical members
            for k in range(p):
                assert u * conj[k] * u.inverse() == canon[k]

    def test_identity_on_companion_input(self):
        t = companion_pair((1, 2), (3, 4))
        frame = common_frame(t)
        u, canon = levelt_normal_form(t, frame)
        assert canon == t
        assert u == ExactMatrix.identity(2)

    def test_common_factor_rejected(self):
        t = companion_pair((1, 2), (2, 5))
        frame = common_frame(t)
        with pytest.raises(ValueError, match="common characteristic factor"):
            levelt_normal_form(t, frame)

    def test_frame_sharing_the_last_columns(self):
        # conjugating companions by the cyclic shift e_k -> e_{k+1} moves
        # their shared columns to 1..n-1; a hand-built frame saying so
        # takes the permuted branch
        rng = random.Random(5)
        for n in (2, 3, 4):
            spectra = disjoint_spectra(rng, 3, n)
            shift = ExactMatrix(
                [[1 if r == (k + 1) % n else 0 for k in range(n)] for r in range(n)]
            )
            t = MatrixTuple(
                tuple(shift * m * shift.inverse() for m in levelt_tuple(spectra))
            )
            identity = ExactMatrix.identity(n)
            frame = CommonFrame(
                basis_change=identity,
                side="columns",
                shared_indices=tuple(range(1, n)),
                inverse=identity,
            )
            assert frame.verify(t)
            u, canon = levelt_normal_form(t, frame)
            for k, s in enumerate(spectra):
                assert canon[k] == companion_from_spectrum(s)
                assert u * t[k] * u.inverse() == canon[k]

    def test_golden_u_under_a_permuted_frame(self):
        # members g^{-1}·L_k·g and the frame P·g, where P swaps e_2 and
        # e_3, so the shared columns are 1, 2 and 4; U is fixed only up
        # to a scalar, and these entries pin it
        g = m_([[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 1, 1], [0, 0, 1, 3]])
        swap = m_([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        base = levelt_tuple(
            [Spectrum((1, 2, 3, 4)), Spectrum((-1, 5, 6, 7)), Spectrum((-2, 2, 3, 8))]
        )
        t = MatrixTuple(tuple(g.inverse() * m * g for m in base))
        frame = CommonFrame(
            basis_change=swap * g,
            side="columns",
            shared_indices=(0, 1, 3),
            inverse=g.inverse() * swap,
        )
        u, canon = levelt_normal_form(t, frame)
        assert [[str(x) for x in row] for row in u.rows] == [
            ["1", "1", "0", "0"],
            ["0", "1", "2", "0"],
            ["1", "0", "1", "1"],
            ["0", "0", "1", "3"],
        ]
        assert canon == base

    def test_singular_member_rejected(self):
        t = companion_pair((1, 2), (3, 4))
        frame = common_frame(t)
        singular = MatrixTuple((t[0], m_([[0, 0], [1, 0]])))
        with pytest.raises(ValueError, match="member 2 is singular"):
            levelt_normal_form(singular, frame)

    def test_rows_side_rejected(self):
        rng = random.Random(41)
        _, _, conj = conjugated_levelt(rng, 3, 3)
        t = conj.transposed()
        frame = common_frame(t)
        assert frame.side == "rows"
        with pytest.raises(ValueError):
            levelt_normal_form(t, frame)


class TestTupleConjugator:
    def test_finds_exact_conjugator(self):
        rng = random.Random(13)
        spectra, g, conj = conjugated_levelt(rng, 3, 4)
        base = levelt_tuple(spectra)
        u = tuple_conjugator(base, conj)
        assert u is not None
        for k in range(base.p):
            assert u.inverse() * base[k] * u == conj[k] or (
                u * base[k] * u.inverse() == conj[k]
            )

    def test_none_when_char_polys_differ(self):
        a = companion_pair((1, 2), (3, 4))
        b = companion_pair((1, 5), (3, 4))
        assert tuple_conjugator(a, b) is None

    def test_dimension_mismatch(self):
        a = companion_pair((1, 2), (3, 4))
        b = MatrixTuple(
            (
                companion_from_spectrum(Spectrum((Q(1), Q(2), Q(3)))),
                companion_from_spectrum(Spectrum((Q(4), Q(5), Q(6)))),
            )
        )
        with pytest.raises(ValueError):
            tuple_conjugator(a, b)


class TestIrreducibility:
    def test_disjoint_spectra_pair(self):
        t = companion_pair((1, 2), (3, 4))
        assert is_irreducible_pair(t[0], t[1])
        assert algebra_span_dimension(t) == 4

    def test_shared_eigenvalue_pair(self):
        t = companion_pair((1, 2), (2, 5))
        assert not is_irreducible_pair(t[0], t[1])
        assert algebra_span_dimension(t) < 4

    def test_agreement_with_span_oracle(self):
        rng = random.Random(3)
        for trial in range(25):
            n = rng.randrange(2, 5)
            overlap = rng.random() < 0.5
            vals_a = set()
            while len(vals_a) < n:
                vals_a.add(Q(rng.randrange(1, 20)))
            vals_b = set()
            if overlap:
                vals_b.add(next(iter(vals_a)))
            while len(vals_b) < n:
                vals_b.add(Q(rng.randrange(21, 40)))
            t = MatrixTuple(
                (
                    companion_from_spectrum(Spectrum(tuple(vals_a))),
                    companion_from_spectrum(Spectrum(tuple(vals_b))),
                )
            )
            g = invertible_matrix(rng, n)
            a = g * t[0] * g.inverse()
            b = g * t[1] * g.inverse()
            expected_irreducible = not overlap
            assert is_irreducible_pair(a, b) == expected_irreducible
            span = algebra_span_dimension(MatrixTuple((a, b)))
            assert (span == n * n) == expected_irreducible

    def test_requires_pseudo_reflection_ratio(self):
        with pytest.raises(ValueError):
            is_irreducible_pair(m_([[2, 0], [0, 3]]), ExactMatrix.identity(2))

    def test_singular_argument_is_named(self):
        # invertibility is read off the char polys: no separate det test
        a = companion_from_spectrum(Spectrum((1, 2)))
        with pytest.raises(ValueError, match="member 2 is singular"):
            is_irreducible_pair(a, m_([[0, 0], [1, 0]]))


def test_gcd_certificate_matches_direct_gcd():
    t = companion_pair((1, 2), (2, 5))
    polys = t.char_polys()
    g = poly_gcd(polys[0], polys[1])
    assert g == Poly.from_roots([Q(2)])
