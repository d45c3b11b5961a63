import hashlib
import random
import sys
from functools import reduce

import pytest

import thetakit.linalg
import thetakit.rigidity
from thetakit.linalg import ExactMatrix, Subspace, companion_of_operator, kernel
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
    levelt_normal_form,
    levelt_tuple,
    pseudo_reflection_pairs,
    rigidity_report,
    tuple_conjugator,
)
from thetakit.scalars import GaussianRational, Q, rational_row

from util import (
    complete_basis, conjugated_levelt, disjoint_spectra, gaussian_conjugated_levelt,
    gaussian_rational, invertible_matrix, is_pseudo_reflection, krylov_conjugator, rank,
    rational, to_dict,
)


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
        assert MatrixTuple.from_dict(to_dict(t)) == t

    def test_dict_declared_n_checked(self):
        t = companion_pair((1, 2), (3, 4))
        data = to_dict(t)
        data["n"] = 3
        with pytest.raises(ValueError):
            MatrixTuple.from_dict(data)

    def test_transposed(self):
        t = companion_pair((1, 2), (3, 4))
        tt = MatrixTuple(m.transpose() for m in t)
        assert type(tt) is MatrixTuple and list(tt) == [m.transpose() for m in t]

    def test_char_polys(self):
        t = companion_pair((1, 2), (3, 4))
        assert t._char_polys[0] == Poly.from_roots([Q(1), Q(2)]) == t[0].char_poly()


def test_ratio_table_names_a_singular_member():
    a = companion_from_spectrum(Spectrum((Q(1), Q(2))))
    singular = m_([[1, 1], [1, 1]])
    t = MatrixTuple((a, singular, ExactMatrix.identity(2)))
    with pytest.raises(ValueError, match="member 2 is singular"):
        pseudo_reflection_pairs(t)
    with pytest.raises(ValueError, match="member 2 is singular"):
        common_frame(t)


def char_poly_path(t, j):
    """Where t._char_polys takes chi_j from: the (0, j) difference reading,
    chi_0 for a repeated A_0, or Berkowitz for a difference of rank >= 2."""
    if t._difference_rows[0, j] is not None:
        return "reading"
    return "repeat" if t[j] == t[0] else "berkowitz"


def test_char_polys_match_berkowitz_on_every_member():
    rng = random.Random(37)
    paths = set()
    for trial in range(90):
        n, p, kind = 2 + trial % 4, 2 + trial // 4 % 3, trial % 3
        if kind == 0:
            _, _, t = conjugated_levelt(rng, p, n)  # integer entries
        else:  # rational entries, or Gaussian ones
            t = gaussian_conjugated_levelt(rng, p, n, 0.3 * (kind - 1), 0.3 * (kind - 1))
        m = rng.randrange(t.p)
        variants = [t, MatrixTuple(tuple(t) + (t[m],))]  # a repeated member
        # A_j moved off the rank-one pattern by a difference of rank 2
        j = rng.randrange(1, t.p)
        bump = low_rank(rng, n, 2, kind == 2)
        variants.append(MatrixTuple(tuple(a + bump if k == j else a for k, a in enumerate(t))))
        for v in variants:
            v = MatrixTuple(tuple(v))  # nothing cached
            assert v._char_polys == tuple(a.char_poly() for a in v)
            paths |= {(char_poly_path(v, j), kind) for j in range(1, v.p)}
    assert paths == {(path, kind) for path in ("reading", "repeat", "berkowitz") for kind in range(3)}


@pytest.mark.parametrize("gaussian", [False, True])
def test_a_singular_member_read_off_a_difference_is_named_first(gaussian):
    # member 2 differs from member 1 in rank one and has the eigenvalue 0;
    # member 3 repeats member 1, so the ratio of members 1 and 3 fails too,
    # but the singular member is named before any ratio verdict
    rng = random.Random(41)
    for n in (2, 3, 5):
        spectra = disjoint_spectra(rng, 2, n)
        zero = companion_of_operator(Poly.from_roots([Q(0)] + list(spectra[1])[1:]))
        g = gaussian_conjugator(rng, n) if gaussian else invertible_matrix(rng, n)
        g_inv = g.inverse()
        a0 = g * companion_from_spectrum(spectra[0]) * g_inv
        t = MatrixTuple((a0, g * zero * g_inv, a0))
        assert char_poly_path(t, 1) == "reading"
        for call in (pseudo_reflection_pairs, common_frame):
            with pytest.raises(ValueError, match="^member 2 is singular$"):
                call(MatrixTuple(tuple(t)))
        assert t._char_polys == tuple(a.char_poly() for a in t)
        b = g * companion_from_spectrum(spectra[1]) * g_inv  # invertible in place of member 2
        with pytest.raises(ValueError, match="^ratio of members 1 and 3 is not"):
            common_frame(MatrixTuple((a0, b, a0)))


def test_pseudo_reflection_rank_criterion():
    cases = [m_([[1, 0], [0, 5]]), m_([[1, 3], [0, 1]]),  # the second a transvection
             ExactMatrix.identity(2), m_([[2, 0], [0, 5]])]
    assert [is_pseudo_reflection(h) for h in cases] == [True, True, False, False]
    # the ratio table reads the same rank off h - I, the ratio of h to I
    assert [pseudo_reflection_pairs(MatrixTuple((h, ExactMatrix.identity(2))))[(0, 1)]
            for h in cases] == [True, True, False, False]


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
        flipped = MatrixTuple(m.transpose() for m in conj)
        frame = common_frame(flipped)
        assert frame.side == "rows"
        assert frame.verify(flipped)

    def test_transposed_pair_still_gets_column_frame(self):
        # a pair has a single difference, so its kernel always supplies
        # a column frame even for transposed companions
        rng = random.Random(22)
        _, _, conj = conjugated_levelt(rng, 2, 3)
        flipped = MatrixTuple(m.transpose() for m in conj)
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

    def test_frame_holds_by_construction(self):
        # common_frame does not check its frame: both branches must give
        # one the members share, under real and Gaussian conjugators
        rng = random.Random(43)
        sides = set()
        for trial in range(32):
            n, p = 2 + trial % 4, 2 + (trial // 4) % 3
            base = levelt_tuple(disjoint_spectra(rng, p, n))
            g = gaussian_conjugator(rng, n) if trial % 2 else invertible_matrix(rng, n)
            t = MatrixTuple(tuple(g * m * g.inverse() for m in base))
            if trial % 8 >= 4:
                t = MatrixTuple(m.transpose() for m in t)
            frame = common_frame(t)
            assert len(frame.shared_indices) == n - 1
            assert frame.verify(t)
            sides.add(frame.side)
        assert sides == {"columns", "rows"}

    def test_every_tuple_passing_the_ratio_check_gets_a_frame(self):
        # members A_0 - c_j·v·w^T, v and w each one of two shared vectors,
        # so that some tuples pass the ratio check and some do not; no
        # passing tuple may miss a frame, as common_frame's docstring argues
        rng = random.Random(61)
        sides, failed = set(), 0
        for trial in range(240):
            n, p = rng.randrange(2, 5), rng.randrange(2, 5)
            entry = gaussian_rational if trial % 2 else rational
            vs = [ExactMatrix([[entry(rng)] for _ in range(n)]) for _ in range(2)]
            ws = [ExactMatrix([[entry(rng) for _ in range(n)]]) for _ in range(2)]
            a0 = ExactMatrix([[entry(rng) for _ in range(n)] for _ in range(n)])
            members = [a0] + [
                a0 - rng.choice(vs) * rng.choice(ws) * Q(rng.choice((1, -1, 2, "1/3")))
                for _ in range(p - 1)
            ]
            if not all(m.det() for m in members):
                continue
            t = MatrixTuple(members)
            if not all(pseudo_reflection_pairs(t).values()):
                failed += 1
                with pytest.raises(ValueError, match="not a pseudo-reflection"):
                    common_frame(t)
                continue
            frame = common_frame(t)
            assert len(frame.shared_indices) == n - 1
            assert frame.verify(t)
            sides.add(frame.side)
        assert sides == {"columns", "rows"} and failed

    def test_verify_is_left_to_the_callers(self, monkeypatch):
        calls = []
        verify = CommonFrame.verify

        def counted(frame, t):
            calls.append(t)
            return verify(frame, t)

        monkeypatch.setattr(CommonFrame, "verify", counted)
        _, _, t = conjugated_levelt(random.Random(44), 3, 4)
        frame = common_frame(t)
        assert calls == []
        levelt_normal_form(t, frame)
        assert calls == [t]


def scalar_frame(t):
    """common_frame built on scalars: a basis of the one difference
    kernel, or of the image of A_0 - A_1, completed by complete_basis."""
    n = t.n
    kernels = [kernel(t[i] - t[j]) for i in range(t.p) for j in range(i + 1, t.p)]
    if all(k == kernels[0] for k in kernels[1:]):
        vectors, side, shared = kernels[0].basis, "columns", tuple(range(n - 1))
    else:
        d = t[0] - t[1]
        vectors = Subspace(d.transpose().rows).basis
        side, shared = "rows", tuple(range(1, n))
    basis = ExactMatrix(complete_basis(vectors, n)).transpose()
    return basis.inverse(), side, shared, basis


def rank_one_tuples(rng, count):
    """Tuples A_0 + v_k·w_k^T passing the ratio check, with one shared w
    (a column frame) or one shared v (a row frame when p > 2), and
    sparse vectors so that pivots and last nonzero indices vary."""
    found = []
    while len(found) < count:
        n, p = rng.randrange(2, 6), rng.randrange(2, 5)
        complex_chance = rng.choice((0, 0.3))

        def entry():
            return Q(0) if rng.random() < 0.3 else gaussian_rational(rng, complex_chance)

        def vector(shape):
            while True:
                m = ExactMatrix([[entry() for _ in range(shape[1])] for _ in range(shape[0])])
                if m != ExactMatrix([[0] * shape[1]] * shape[0]):
                    return m

        a0 = ExactMatrix([[entry() for _ in range(n)] for _ in range(n)])
        shared = rng.choice(("v", "w"))
        v, w = vector((n, 1)), vector((1, n))
        members = [
            a0 + (v if shared == "v" else vector((n, 1))) * (w if shared == "w" else vector((1, n)))
            for _ in range(p)
        ]
        if not all(m.det() for m in members):
            continue
        t = MatrixTuple(members)
        if all(pseudo_reflection_pairs(t).values()):
            found.append(t)
    return found


def is_permutation(m):
    """Whether the ExactMatrix m, invertible, has one 1 and zeros in each row."""
    return m.den == 1 and m.im is None and all(sorted(r) == [0] * (m.n - 1) + [1] for r in m.re)


def test_integer_frame_matches_the_scalar_construction():
    tuples = rank_one_tuples(random.Random(20), 160)
    sides, gaussian, permutations = set(), 0, set()
    for t in tuples:
        frame = common_frame(t)
        assert tuple(frame) == scalar_frame(t)
        sides.add(frame.side)
        gaussian += any(m.im for m in t)
        if is_permutation(frame.inverse):
            permutations.add(frame.side)
    assert sides == {"columns", "rows"} and gaussian
    # the degenerate closed forms ran: X is a permutation exactly when the
    # column frame's w, or the row frame's v, has one nonzero entry
    assert permutations == {"columns", "rows"}


def test_frame_takes_no_scalar_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar elimination or arithmetic in common_frame")

    drawn = rank_one_tuples(random.Random(21), 60)
    # fresh tuples, so that the pair eliminations run under the patches too
    tuples = [MatrixTuple(tuple(t)) for t in drawn]
    assert any(m.im for t in tuples for m in t)  # Gaussian tuples frame on integers too
    with monkeypatch.context() as patched:
        for module in (thetakit.linalg, thetakit.rigidity):
            for name in ("kernel", "complete_basis"):
                patched.setattr(module, name, refuse, raising=False)
        patched.setattr(Subspace, "__init__", refuse)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__pow__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        frames = [common_frame(t) for t in tuples]
    assert {f.side for f in frames} == {"columns", "rows"}
    assert all(f.verify(t) for f, t in zip(frames, tuples))


def test_frame_takes_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elimination in the ratio table or common_frame")

    # fresh tuples, so that the ratio table is read under the patches too
    tuples = [MatrixTuple(tuple(t)) for t in rank_one_tuples(random.Random(22), 40)]
    with monkeypatch.context() as patched:
        for name in ("_insert", "_eliminate"):
            patched.setattr(thetakit.linalg, name, refuse)
        frames = [common_frame(t) for t in tuples]
    kinds = {(f.side, any(m.im for m in t)) for f, t in zip(frames, tuples)}
    assert kinds == {(side, gaussian) for side in ("columns", "rows") for gaussian in (False, True)}
    assert all(f.verify(t) for f, t in zip(frames, tuples))


def low_rank(rng, n, r, gaussian):
    """An n×n matrix of rank at most r: a sum of r outer products of sparse
    integer (or Gaussian-integer) vectors, divided by 1, 2 or 6."""
    def entry():
        if rng.random() < 0.4:
            return Q(0)
        return Q(rng.randrange(-3, 4), rng.randrange(-2, 3) if gaussian and rng.random() < 0.5 else 0)

    m = ExactMatrix([[0] * n] * n)
    for _ in range(r):
        m = m + ExactMatrix([[entry()] for _ in range(n)]) * ExactMatrix([[entry() for _ in range(n)]])
    return m * (Q(1) / Q(rng.choice((1, 2, 6))))


def test_rank_one_row_matches_the_rref():
    rng = random.Random(71)
    ranks, real_pivots = set(), 0
    for trial in range(400):
        n, gaussian = 2 + trial % 4, trial // 4 % 2 == 1
        d = low_rank(rng, n, rng.randrange(3), gaussian)
        row, d_rank = thetakit.rigidity._rank_one_row(d.den, d.re, d.im), rank(d)
        ranks.add(d_rank)
        assert (row is None) == (d_rank != 1)
        # the rows as _difference_rows hands them over: not reduced, and
        # with zero imaginary rows when both members of a pair are complex
        scale = 2 + trial % 2
        again = thetakit.rigidity._rank_one_row(
            scale * d.den, [[scale * x for x in r] for r in d.re],
            [[scale * x for x in r] for r in d.im or [[0] * n] * n])
        assert (again is None) == (row is None)
        if row is None:
            continue
        w, pc, (column, column_im), den = row
        reduced, pivots = d.rref()
        assert pivots == (pc,) and w == ExactMatrix([reduced.row(0)])
        assert den == d.den
        assert rational_row(column, den, column_im) == [d[h, pc] for h in range(n)]
        w2, pc2, (column2, column2_im), den2 = again
        assert (w2, pc2, den2) == (w, pc, scale * d.den)
        assert rational_row(column2, den2, column2_im) == [d[h, pc] for h in range(n)]
        k = next(h for h in range(n) if any(d.row(h)))
        real_pivots += bool(d.im and any(d.im[k]) and not d.im[k][pc])
    assert ranks == {0, 1, 2}
    assert real_pivots  # a complex first row whose pivot entry is real


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

    @pytest.mark.parametrize("side", ["diagonal", "Rows", "", None])
    def test_side_must_be_rows_or_columns(self, side):
        # verify and find_stabilized_subspace branch on side == "rows"
        u = ExactMatrix.identity(3)
        with pytest.raises(ValueError, match="side must be 'rows' or 'columns'"):
            CommonFrame(basis_change=u, side=side, shared_indices=(0, 1), inverse=u)

    @pytest.mark.parametrize("shared", [(0, 0), (1, 3), (-1, 0)])
    def test_shared_indices_must_name_distinct_basis_vectors(self, shared):
        u = ExactMatrix.identity(3)
        with pytest.raises(ValueError, match="shared indices"):
            CommonFrame(basis_change=u, side="rows", shared_indices=shared, inverse=u)

    @pytest.mark.parametrize("side", ["columns", "rows"])
    def test_verify_detects_a_tuple_off_the_frame(self, side):
        rng = random.Random(17 if side == "columns" else 18)
        for trial in range(12):
            n = rng.randrange(2, 6)
            agree = trial % 2 == 0
            frame, t = framed_pair(rng, n, side, agree)
            assert frame.verify(t) is agree
            # the definition: conjugated members agree on the shared part
            a, b = (frame.basis_change * m * frame.inverse for m in t)
            if side == "columns":
                a, b = a.transpose(), b.transpose()
            shared = frame.shared_indices
            assert agree == all(a.row(k) == b.row(k) for k in shared)


def vector_verify(frame, t):
    """The per-vector definition of CommonFrame.verify: every member maps
    each shared column of U^{-1} (on a row frame, each shared row of U
    under the transposes) to the image under the first member."""
    if frame.side == "rows":
        vectors = [frame.basis_change.row(k) for k in frame.shared_indices]
        members = [m.transpose() for m in t]
    else:
        vectors = [frame.inverse.transpose().row(k) for k in frame.shared_indices]
        members = list(t)
    return all(m.apply(v) == members[0].apply(v) for v in vectors for m in members)


def breaking_entry(rng, frame, n):
    """(i, j) such that adding c != 0 to entry (i, j) of one member moves
    it off the frame: U·e_i·e_j^T·U^{-1} is nonzero on the shared rows
    (column i of U is nonzero there) or columns (row j of U^{-1} is)."""
    shared = frame.shared_indices
    if frame.side == "rows":
        u = frame.basis_change
        return rng.choice([i for i in range(n) if any(u[k, i] for k in shared)]), rng.randrange(n)
    inv = frame.inverse
    return rng.randrange(n), rng.choice([j for j in range(n) if any(inv[j, k] for k in shared)])


@pytest.mark.parametrize("side", ["columns", "rows"])
def test_matrix_form_verify_matches_the_vector_definition(side):
    # a transposed Levelt tuple can still get a column frame (n = 2, or
    # p = 2), so the side each trial took is collected
    rng = random.Random(61 if side == "columns" else 62)
    sides = set()
    for trial in range(24):
        n = rng.randrange(2, 6)
        if trial % 2:
            frame, t = framed_pair(rng, n, side, True)
        else:
            _, _, t = conjugated_levelt(rng, rng.randrange(2, 5), n)
            if side == "rows":
                t = MatrixTuple(m.transpose() for m in t)
            frame = common_frame(t)
        sides.add(frame.side)
        assert frame.verify(t) and vector_verify(frame, t)
        # one entry of one member changed
        k = rng.randrange(t.p)
        i, j = breaking_entry(rng, frame, n)
        rows = [list(r) for r in t[k].rows]
        rows[i][j] = rows[i][j] + Q(rng.choice([-2, -1, 1, 3])) / Q(rng.randrange(1, 4))
        off = MatrixTuple(tuple(ExactMatrix(rows) if x == k else m for x, m in enumerate(t)))
        assert not frame.verify(off) and not vector_verify(frame, off)
    assert side in sides


@pytest.mark.parametrize("side", ["columns", "rows"])
def test_verify_agrees_with_the_vector_definition_on_every_frame_size(side):
    # |S| >= n - 1 is decided by the (0, j) difference readings, a smaller S
    # by one product per member: frames that hold and fail, of every size,
    # on tuples with and without a repeated member
    rng = random.Random(67 if side == "columns" else 68)
    seen = set()
    for trial in range(40):
        n, p = 2 + trial % 4, 2 + trial // 4 % 3
        if trial % 2:
            t = gaussian_conjugated_levelt(rng, p, n, 0.3, 0.3)
        else:
            _, _, t = conjugated_levelt(rng, p, n)
        if side == "rows":
            t = MatrixTuple(m.transpose() for m in t)
        frame = common_frame(t)
        shared = list(frame.shared_indices)
        frames = [frame, frame._replace(shared_indices=tuple(range(n)))]
        if n > 2:
            frames.append(frame._replace(shared_indices=tuple(rng.sample(shared, rng.randrange(1, n - 1)))))
        for f in frames:
            i, j = breaking_entry(rng, f, n) if len(f.shared_indices) < n else (0, 0)
            k = rng.randrange(t.p)
            rows = [list(r) for r in t[k].rows]
            rows[i][j] = rows[i][j] + Q(rng.choice([-2, -1, 1, 3]))
            off = tuple(ExactMatrix(rows) if x == k else m for x, m in enumerate(t))
            for members in (tuple(t), off, tuple(t) + (t[rng.randrange(t.p)],), off + (off[0],)):
                x = MatrixTuple(members)  # nothing cached
                verdict = f.verify(x)
                assert verdict == vector_verify(f, x)
                size = len(f.shared_indices)
                seen.add((f.side, "n - 1" if size == n - 1 else "n" if size == n else "< n - 1", verdict))
    assert seen >= {(side, size, verdict) for size in ("n - 1", "< n - 1") for verdict in (False, True)}
    assert (side, "n", False) in seen
    # members that differ by rank 2 off n - 2 shared columns or rows share them
    for n in (3, 4, 5):
        u = invertible_matrix(rng, n)
        shared = tuple(range(n - 2)) if side == "columns" else tuple(range(2, n))
        frame = CommonFrame(basis_change=u, side=side, shared_indices=shared, inverse=u.inverse())
        base = [[Q(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        other = [[x + Q(rng.randrange(1, 4)) if (j if side == "columns" else i) not in shared else x
                  for j, x in enumerate(r)] for i, r in enumerate(base)]
        t = MatrixTuple(tuple(frame.inverse * ExactMatrix(c) * u for c in (base, other, base)))
        assert rank(t[0] - t[1]) == 2 and frame.verify(t) and vector_verify(frame, t)


def test_verify_sees_a_difference_off_the_frame_only_in_its_imaginary_part():
    # A_0 - A_1' = col·(w + i·e_k), with col and w read off a real Levelt
    # pair, w·X_S = 0 and e_k·X_S != 0: the product is i·col·(e_k·X_S), real part zero
    rng = random.Random(73)
    for n in (3, 4, 5):
        _, _, t = conjugated_levelt(rng, 2, n)
        frame = common_frame(t)
        assert frame.side == "columns" and frame.shared_indices == tuple(range(n - 1))
        pc = t._difference_rows[0, 1][1]
        col = ExactMatrix([[x] for x in (t[0] - t[1]).transpose().row(pc)])
        x_s = [frame.inverse.row(k)[:n - 1] for k in range(n)]
        k = next(k for k in range(n) if k != pc and any(x_s[k]))
        e_k = ExactMatrix([[Q(int(h == k)) for h in range(n)]])
        off = MatrixTuple((t[0], t[1] - col * e_k * Q(0, 1)))
        assert t._difference_rows[0, 1] is not None and off._difference_rows[0, 1] is not None
        assert not frame.verify(off) and not vector_verify(frame, off)


class TestFrameMismatch:
    """A frame the members do not share is refused wherever it is given,
    also after it was accepted for another tuple."""

    def test_frame_of_another_tuple(self):
        rng = random.Random(29)
        _, _, a = conjugated_levelt(rng, 3, 3)
        _, _, b = conjugated_levelt(rng, 3, 3)
        frame = common_frame(a)
        assert not frame.verify(b)
        levelt_normal_form(a, frame)  # accepted: each call checks its own tuple
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

    def test_frame_of_another_dimension(self):
        # a 3×3 frame sharing column 0 has the n - 1 = 1 shared index a
        # 2×2 normal form asks for, yet no member is 3×3
        i3 = ExactMatrix.identity(3)
        frame = CommonFrame(i3, "columns", (0,), i3)
        levelt = levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4))])
        shared = companion_pair((1, 2), (2, 5))  # 2 is an eigenvalue of both
        w = Subspace([(Q(1), Q(0))])
        assert not frame.verify(levelt)
        # sharing nothing, a frame holds for any tuple of its dimension
        assert CommonFrame(i3, "rows", (), i3).verify(companion_pair((1, 2, 3), (4, 5, 6)))
        with pytest.raises(ValueError, match="^members do not share the given frame$"):
            levelt_normal_form(levelt, frame)
        with pytest.raises(ValueError, match="^members do not share the given frame$"):
            find_stabilized_subspace(shared, frame, Q(2))
        with pytest.raises(ValueError, match="^members do not share the given frame$"):
            common_spectrum_certificate(shared, frame, w)


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
        t = MatrixTuple(m.transpose() for m in companion_pair((1, 2), (2, 5)))
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

    @pytest.mark.parametrize(
        "members, lam, side, expected",
        [
            # a column frame: the kernel of B·(A_0^T - 2) is one line
            (
                companion_pair((1, 2), (2, 5)),
                2,
                "columns",
                "hyperplane span{(1, -1/2)}",
            ),
            # the same pair transposed: a column frame, covector branch
            (
                MatrixTuple(m.transpose() for m in companion_pair((1, 2), (2, 5))),
                2,
                "columns",
                "line span{(1, 2)}",
            ),
            # transposed companions sharing 1: a row frame, eigenvector branch
            (
                MatrixTuple(
                    tuple(
                        companion_from_spectrum(Spectrum(s)).transpose()
                        for s in ((1, 3, 4), (1, 5, 7), (1, 11, 13))
                    )
                ),
                1,
                "rows",
                "line span{(1, 1, 1)}",
            ),
            # diag(2, 2, 5) plus e_3·e_1^T and e_3·e_2^T: a row frame, covector branch
            (
                MatrixTuple(
                    tuple(
                        m_([[2, 0, 0], [0, 2, 0], last])
                        for last in ([0, 0, 5], [1, 0, 5], [0, 1, 5])
                    )
                ),
                2,
                "rows",
                "hyperplane span{(0, 1, 0), (0, 0, 1)}",
            ),
        ],
    )
    def test_goldens(self, members, lam, side, expected):
        frame = common_frame(members)
        assert frame.side == side
        ((kind, space),) = find_stabilized_subspace(members, frame, Q(lam)).items()
        assert "%s %s" % (kind, space) == expected


def framed_reference(t, frame, lam):
    """find_stabilized_subspace computed in the frame: conjugate every
    member, transpose for a column frame, read the candidate off the
    shared rows of A_0 - lam and map it back through U."""
    n, shared = t.n, frame.shared_indices
    changed = [frame.basis_change * m * frame.inverse for m in t]
    if frame.side == "columns":
        changed = [m.transpose() for m in changed]
    restriction = ExactMatrix(
        [[x - lam if j == k else x for j, x in enumerate(changed[0].row(k))]
         for k in shared]
    )
    null = kernel(restriction)
    if null.dim == 1:
        data = null.basis[0]
        for idx, m in enumerate(changed):
            if not Subspace([data]).is_invariant_under(m):
                raise ValueError(
                    "candidate eigenvector fails for member %d" % (idx + 1)
                )
    else:
        left_null = kernel(restriction.transpose())
        if left_null.is_zero():
            raise ValueError("shared rows admit neither eigenvector nor covector")
        c = left_null.basis[0]
        data = [Q(0)] * n
        for coef, k in zip(c, shared):
            data[k] = coef
        for idx, m in enumerate(changed):
            if m.transpose().apply(data) != tuple(lam * x for x in data):
                raise ValueError("candidate covector fails for member %d" % (idx + 1))
    if (null.dim == 1) == (frame.side == "rows"):
        return {"line": Subspace([frame.inverse.apply(data)])}
    return {"hyperplane": kernel(ExactMatrix([data]) * frame.basis_change)}


def gaussian_conjugator(rng, n):
    """An invertible matrix with Gaussian entries: shears with
    multipliers a + b·i applied to an integer invertible matrix."""
    g = invertible_matrix(rng, n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        shear = [[Q(int(r == c)) for c in range(n)] for r in range(n)]
        shear[i][j] = Q(rng.randrange(-2, 3), rng.choice((-1, 1)))
        g = g * ExactMatrix(shear)
    return g


def shared_eigenvalue_members(rng, n, p, lam, mode, free):
    """p matrices agreeing outside row `free`, each with eigenvalue lam.

    "line" plants a common eigenvector for lam, "covector" a common left
    eigenvector vanishing at `free`; "generic" only makes lam a root of
    every characteristic polynomial, solving for one entry of each free
    row (the determinant is affine in that row)."""

    def small():
        return Q(rng.randrange(-3, 4))

    def solve(row, vec, target):
        # set one entry of row so that row·vec == target
        j = next(k for k in range(n) if vec[k])
        rest = sum((row[k] * vec[k] for k in range(n) if k != j), Q(0))
        row[j] = (target - rest) / vec[j]

    base = [[small() for _ in range(n)] for _ in range(n)]
    vec = [small() for _ in range(n)]
    if mode == "covector":
        vec[free] = Q(0)
    if not any(vec):
        vec[(free + 1) % n] = Q(1)
    if mode == "line":
        for k in range(n):
            solve(base[k], vec, lam * vec[k])
    elif mode == "covector":
        j = next(k for k in range(n) if vec[k])
        for c in range(n):
            rest = sum((vec[k] * base[k][c] for k in range(n) if k != j), Q(0))
            base[j][c] = (lam * vec[c] - rest) / vec[j]
    members = []
    for _ in range(p):
        rows = [list(r) for r in base]
        rows[free] = [small() for _ in range(n)]
        if mode == "line":
            solve(rows[free], vec, lam * vec[free])
        elif mode == "generic":
            shifted = [[x - lam if r == c else x for c, x in enumerate(row)]
                       for r, row in enumerate(rows)]
            cofactors = []
            for k in range(n):
                shifted[free] = [Q(int(c == k)) for c in range(n)]
                cofactors.append(ExactMatrix(shifted).det())
            if any(cofactors):
                target = lam * cofactors[free]  # row·C = lam·C_free
                solve(rows[free], cofactors, target)
        members.append(ExactMatrix(rows))
    return members


@pytest.mark.parametrize("side", ["columns", "rows"])
def test_stabilized_subspace_matches_framed_reference(side):
    rng = random.Random(61 if side == "columns" else 62)
    seen = set()
    for trial in range(96):
        n = 2 + trial % 4
        p = 2 + (trial // 4) % 2
        mode = ("line", "covector", "generic")[(trial // 8) % 3]
        lam = Q(rng.randrange(-3, 4), rng.choice((0, 0, 1)))
        free = rng.randrange(n)
        members = shared_eigenvalue_members(rng, n, p, lam, mode, free)
        if side == "columns":
            members = [m.transpose() for m in members]
        g = gaussian_conjugator(rng, n) if trial % 2 else invertible_matrix(rng, n)
        g_inv = g.inverse()
        t = MatrixTuple(tuple(g_inv * m * g for m in members))
        shared = tuple(k for k in range(n) if k != free)
        if trial % 5 == 4 and n > 2:  # a narrower frame the members also share
            shared = shared[1:]
        frame = CommonFrame(
            basis_change=g, side=side, shared_indices=shared, inverse=g_inv
        )
        try:
            expected = framed_reference(t, frame, lam)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                find_stabilized_subspace(t, frame, lam)
            assert str(info.value) == str(exc)
            seen.add(str(exc))
            continue
        found = find_stabilized_subspace(t, frame, lam)
        assert found == expected
        assert [str(s) for s in found.values()] == [str(s) for s in expected.values()]
        seen.add(next(iter(found)))
    # both branches occur, and a frame too narrow for either candidate
    neither = "shared rows admit neither eigenvector nor covector"
    assert seen == {"line", "hyperplane", neither}


def test_spectrum_certificate():
    t = companion_pair((1, 2), (2, 5))
    frame = common_frame(t)
    found = find_stabilized_subspace(t, frame, Q(2))
    w = found["hyperplane"]
    cert = common_spectrum_certificate(t, frame, w)
    assert cert.degree >= 1
    assert cert == cert.monic()
    for m in t:
        assert m.char_poly() % cert == Poly([])
    with pytest.raises(ValueError, match="^certificate needs a nonzero proper subspace$"):
        common_spectrum_certificate(t, frame, Subspace([], ambient=2))


def test_spectrum_certificate_coprime_error(monkeypatch):
    t = companion_pair((1, 2), (3, 4))
    frame = common_frame(t)
    line = Subspace([(Q(1), Q(0))], 2)
    with pytest.raises(ValueError, match="coprime|invariant"):
        common_spectrum_certificate(t, frame, line)
    # no line is invariant under a coprime pair: a faulty invariance test
    # still meets the gcd check
    monkeypatch.setattr(Subspace, "is_invariant_under", lambda self, m: True)
    with pytest.raises(ValueError, match="^characteristic polynomials are coprime; "):
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
    with pytest.raises(ValueError, match="^need at least two spectra$"):
        levelt_tuple([Spectrum((1, 2))])
    with pytest.raises(ValueError, match="^spectra must have one common size$"):
        levelt_tuple([Spectrum((1, 2)), Spectrum((3, 4, 5))])
    with pytest.raises(ValueError, match="^a spectrum cannot be empty$"):
        Spectrum(())


def test_levelt_generators_draw_pairwise_distinct_spectra():
    # two equal spectra give two equal members, whose ratio is the identity;
    # values in 1..4 (span 5) at n = 2 and p = 4 repeat a spectrum in most
    # draws, and the Gaussian generator at n = 2, p = 4 in about one in a
    # hundred, so both are drawn again until the spectra differ
    rng = random.Random(5)
    for _ in range(50):
        spectra = disjoint_spectra(rng, 4, 2, span=5)
        assert len(set(spectra)) == 4 and not set.intersection(*map(set, spectra))
    for _ in range(400):
        t = gaussian_conjugated_levelt(rng, 4, 2, 0, 0)
        assert len(set(t)) == 4
    # values in 1..3 make three sets of two, and any two of them meet
    for p, n in ((4, 2), (2, 2), (2, 4)):
        with pytest.raises(ValueError, match="^no %d distinct spectra of %d values in 1..3$" % (p, n)):
            disjoint_spectra(rng, p, n, span=4)


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

    def test_pairwise_shared_values_without_a_common_one(self):
        # every two spectra share a value, no value lies in all three:
        # the hypothesis is on the total intersection only
        spectra = [Spectrum((1, 2, 5)), Spectrum((2, 3, 7)), Spectrum((3, 1, 11))]
        base = levelt_tuple(spectra)
        g = m_([[1, 2, 0], [0, 1, -1], [1, 0, 1]])
        t = MatrixTuple(tuple(g * m * g.inverse() for m in base))
        polys = [m.char_poly() for m in t]
        assert all(poly_gcd(polys[i], polys[j]).degree == 1
                   for i, j in ((0, 1), (1, 2), (0, 2)))
        u, canon = levelt_normal_form(t, common_frame(t))
        assert canon == base
        for k in range(3):
            assert u * t[k] == canon[k] * u

    def test_frame_with_too_few_shared_columns_rejected(self):
        # the members do share column 0, but n - 2 shared columns leave
        # the Krylov kernel a plane
        t = levelt_tuple([Spectrum((1, 2, 3)), Spectrum((4, 5, 6))])
        identity = ExactMatrix.identity(3)
        frame = CommonFrame(
            basis_change=identity, side="columns", shared_indices=(0,), inverse=identity
        )
        assert frame.verify(t)
        with pytest.raises(ValueError, match="sharing n - 1 columns"):
            levelt_normal_form(t, frame)

    def test_singular_member_rejected(self):
        t = companion_pair((1, 2), (3, 4))
        frame = common_frame(t)
        singular = MatrixTuple((t[0], m_([[0, 0], [1, 0]])))
        with pytest.raises(ValueError, match="member 2 is singular"):
            levelt_normal_form(singular, frame)

    def test_rows_side_rejected(self):
        rng = random.Random(41)
        _, _, conj = conjugated_levelt(rng, 3, 3)
        t = MatrixTuple(m.transpose() for m in conj)
        frame = common_frame(t)
        assert frame.side == "rows"
        with pytest.raises(ValueError):
            levelt_normal_form(t, frame)


    def test_golden_u_and_canon_over_conjugated_tuples(self):
        # the str of U and of each canon member for 40 conjugated Levelt
        # tuples, n = 2..6 and p = 2..4, taken when the Krylov basis was
        # built one vector at a time; U is fixed only up to a scalar, and
        # the scaling rule pins it
        rng = random.Random(1989)
        lines = []
        for k in range(40):
            n, p = 2 + k % 5, 2 + (k // 5) % 3
            _, _, t = conjugated_levelt(rng, p, n)
            u, canon = levelt_normal_form(t, common_frame(t))
            lines.append(str(u))
            lines.extend(map(str, canon))
        text = "\n".join(lines)
        assert lines[0] == "[1 -1; 0 1]"
        assert (len(lines), len(text)) == (155, 8483)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "aab15e983c3d0350f6dc2b59a40e1548830ee752b820700969d1690c20d04ecf"

    def test_golden_u_and_canon_over_gaussian_and_rational_tuples(self):
        # the str of U and of each canon member for 30 tuples, n = 2..6 and
        # p = 2..4, with non-integer entries: Gaussian spectra under rational
        # conjugators alternate with rational spectra under Gaussian ones;
        # taken when the Krylov chains were built as matrix products
        rng = random.Random(1989)
        lines, complex_cases = [], 0
        for k in range(30):
            n, p = 2 + k % 5, 2 + (k // 5) % 3
            t = gaussian_conjugated_levelt(rng, p, n, *((0, 0.5) if k % 2 else (0.3, 0)))
            assert any(m.den != 1 for m in t)
            complex_cases += any(m.im is not None for m in t)
            u, canon = levelt_normal_form(t, common_frame(t))
            lines.append(str(u))
            lines.extend(map(str, canon))
        text = "\n".join(lines)
        assert complex_cases == 27
        assert lines[1] == "[0 -1-13/9*i; 1 -2/3+1/3*i]"
        assert (len(lines), len(text)) == (120, 9693)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "825e3a1c6815b4a54cf914ab986c94e64e47dde38434a58d2304617622b2d328"

    def test_a_wrong_companion_fails_the_verification_of_its_member(self, monkeypatch):
        # each member is checked on U: member 1 by U·A_0 = C_0·U, a member
        # with a rank-one difference from A_0 by that difference, and a
        # repeat of A_0 by C_j = C_0.  A companion of another member's
        # polynomial for member `wrong` is named in the error, and no
        # companion past it is built; member 4 repeats A_0 or A_1
        for wrong, repeat in ((2, None), (1, None), (4, 0), (4, 1)):
            rng = random.Random(29)
            for n in (2, 3, 5):
                _, _, t = conjugated_levelt(rng, 3, n)
                frame = common_frame(t)
                if repeat is not None:
                    t = MatrixTuple(tuple(t) + (t[repeat],))
                polys = t._char_polys
                other = polys[1] if polys[wrong - 1] == polys[0] else polys[0]
                companion = thetakit.rigidity.companion_of_operator
                calls = []

                def wrong_companion(cp):
                    calls.append(cp)
                    return companion(other if len(calls) == wrong else cp)

                with monkeypatch.context() as patched:
                    patched.setattr(thetakit.rigidity, "companion_of_operator", wrong_companion)
                    with pytest.raises(ValueError) as raised:
                        levelt_normal_form(t, frame)
                assert str(raised.value) == "normal form verification failed for member %d" % wrong
                assert len(calls) == wrong

    def test_closed_form_u_matches_the_krylov_inverse(self):
        # U written from the cached chain equals the inverse of the scaled
        # Krylov basis on integer, rational and Gaussian tuples, n = 2..6 and
        # p = 2..4, each also with a repeat of A_0 (a zero difference) and
        # of A_1 (the difference of A_1)
        rng = random.Random(61)
        complex_cases = 0
        for trial in range(45):
            n, p, kind = 2 + trial % 5, 2 + trial // 5 % 3, trial // 15
            if kind == 0:
                _, _, t = conjugated_levelt(rng, p, n)
            else:  # rational entries, then Gaussian ones
                t = gaussian_conjugated_levelt(rng, p, n, 0.3 * (kind - 1), 0.5 * (kind - 1))
            complex_cases += any(m.im is not None for m in t)
            frame = common_frame(t)
            for v in (t, MatrixTuple(tuple(t) + (t[0],)), MatrixTuple(tuple(t) + (t[1],))):
                u, canon = levelt_normal_form(v, frame)
                assert u == krylov_conjugator(v, frame)
                assert list(canon) == [companion_of_operator(m.char_poly()) for m in v]
        assert complex_cases >= 12

    def test_closed_form_u_on_caller_made_column_frames(self):
        # frames that common_frame does not write: the free index moved to 0,
        # the shared indices listed in another order, and the rows of U scaled
        # by non-real scalars, which scales U by the one at the anchor
        rng = random.Random(67)
        for trial in range(20):
            n, p = 2 + trial % 5, 2 + trial // 5 % 3
            if trial % 2:
                t = gaussian_conjugated_levelt(rng, p, n, 0.3, 0.5)
            else:
                _, _, t = conjugated_levelt(rng, p, n)
            frame = common_frame(t)
            u0, x0, shared = frame.basis_change, frame.inverse, frame.shared_indices
            shift = ExactMatrix([[int(r == (k + 1) % n) for k in range(n)] for r in range(n)])
            scale = ExactMatrix([[Q(1 + k, (-1) ** k) if r == k else 0 for k in range(n)]
                                 for r in range(n)])
            frames = [
                CommonFrame(shift * u0, "columns", tuple(range(1, n)), x0 * shift.inverse()),
                CommonFrame(u0, "columns", shared[::-1], x0),
                CommonFrame(scale * u0, "columns", shared, x0 * scale.inverse()),
            ]
            base, _ = levelt_normal_form(t, frame)
            for f in frames:
                assert f.verify(t)
                u, canon = levelt_normal_form(t, f)
                assert u == krylov_conjugator(t, f)
                assert all(u * m == c * u for m, c in zip(t, canon))
            assert u != base

    def test_a_corrupt_chain_fails_the_checks(self):
        # the checks do not trust the cached chain W·M^k: rows that are no
        # basis are refused before U is built, and the chain of W·M in place
        # of W's builds a U with U·A_0 = C_0·U whose last row is not ∥ w,
        # which member 2 (a rank-one difference from A_0) does not pass
        rng = random.Random(73)
        for n in (2, 3, 4):
            _, _, t = conjugated_levelt(rng, 3, n)
            frame = common_frame(t)
            (w,) = t._chains
            r, _ = t._chains[w]
            step = ExactMatrix([r[-1]]) * (t[0] * t[0].den)  # W·M^n
            for rows, message in (([r[0]] * n, "the Krylov rows are not a basis"),
                                  ([*r[1:], step.re[0]], "for member 2")):
                vars(t)["_chains"] = {w: (rows, None)}
                with pytest.raises(ValueError, match="^normal form verification failed.*" + message):
                    levelt_normal_form(t, frame)

    @staticmethod
    def skewed_normal_form(monkeypatch, t, frame, q):
        """levelt_normal_form(t, frame) with U replaced by q(C_0)·U, which
        still has U·A_0 = C_0·U: _hankel returns Q·H for the Hankel rows H
        of U = H·R, after the characteristic polynomials that also read it."""
        n, c0 = t.n, companion_of_operator(t._char_polys[0])
        power, qc = ExactMatrix.identity(n), ExactMatrix.identity(n) * 0
        for c in q:  # q(C_0), coefficients from the constant term up
            qc, power = qc + power * c, power * c0
        hankel = thetakit.rigidity._hankel

        def skewed(cp, e):
            re, im = (p and [row + [0] * (n - len(row)) for row in p] for p in hankel(cp, e))
            qh = qc * thetakit.linalg._matrix(1, re, im)
            return qh.re, qh.im

        with monkeypatch.context() as patched:
            patched.setattr(thetakit.rigidity, "_hankel", skewed)
            return levelt_normal_form(t, frame)

    def test_a_u_off_by_a_polynomial_in_c0_fails_its_first_rank_one_member(self, monkeypatch):
        # U' = q(C_0)·U passes member 1's check U'·A_0 = C_0·U' for every q;
        # for q of degree 1..n-1 (non-scalar), the first member whose
        # difference from A_0 has rank one refuses it, with no separate check
        # that U's last row is parallel to w.  Real and Gaussian tuples, with
        # and without a repeat of A_0 at member 2, and p = 3 tuples whose
        # spectra meet pairwise, so that no one chi_j is coprime to chi_0
        rng = random.Random(97)
        cases = []
        for k in range(24):
            n, p, kind = 2 + k % 4, 2 + k // 4 % 2, k // 8
            if kind == 0:
                t = conjugated_levelt(rng, p, n)[2]
            elif kind == 1:
                t = gaussian_conjugated_levelt(rng, p, n, 0.5, 0.5)
            else:  # {a, b, ..}, {b, c, ..}, {c, a, ..}, the rest distinct
                vals = rng.sample([v for v in range(-30, 31) if v], 3 * n - 3)
                vals = [Q(v, rng.choice((0, 0, 1))) for v in vals]
                spectra = [Spectrum([vals[k], vals[(k + 1) % 3], *vals[3 + k * (n - 2):][:n - 2]])
                           for k in range(3)]
                g = gaussian_conjugator(rng, n) if k % 2 else invertible_matrix(rng, n)
                t = MatrixTuple(tuple(g * m * g.inverse() for m in levelt_tuple(spectra)))
                polys = t._char_polys
                assert all(poly_gcd(polys[i], polys[j]).degree >= 1
                           for i, j in ((0, 1), (1, 2), (0, 2)))
            frame = common_frame(t)
            cases += [(t, frame, 2), (MatrixTuple((t[0], *t)), frame, 3)]
        for t, frame, first in cases:
            levelt_normal_form(t, frame)  # the unskewed U passes
            q = [gaussian_rational(rng, 0.5) for _ in range(t.n)]
            q[rng.randrange(1, t.n)] = Q(rng.randrange(1, 5))  # a nonzero term past the constant
            with pytest.raises(ValueError) as refused:
                self.skewed_normal_form(monkeypatch, t, frame, q)
            assert str(refused.value) == "normal form verification failed for member %d" % first

    def test_a_u_that_passes_one_member_fails_the_next(self, monkeypatch):
        # spectra {1,2,3,4}, {1,2,5,6}, {3,4,5,6} meet pairwise in two values:
        # q = 1 + r·h, h = (X-3)(X-4) the part of chi_0 not in chi_1, kills
        # nothing of chi_1 mod chi_0, and r = a_1 - a_0·X, a_k the entry of
        # e_{n-1}·X^k·h(C_0)·U at w's pivot, keeps u_{n-1} there.  So q(C_0)·U
        # passes members 1 and 2, and member 3, with chi_2 coprime to h's
        # cofactor, refuses it: the checks are complete only together
        base = levelt_tuple([Spectrum((1, 2, 3, 4)), Spectrum((1, 2, 5, 6)),
                             Spectrum((3, 4, 5, 6))])
        g = m_([[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 1, 1], [0, 0, 1, 3]])
        t = MatrixTuple(tuple(g * m * g.inverse() for m in base))
        frame = common_frame(t)
        u, canon = levelt_normal_form(t, frame)
        c0, identity, pc = canon[0], ExactMatrix.identity(4), t._difference_rows[0, 1][1]
        h = (c0 - identity * 3) * (c0 - identity * 4)
        a0, a1 = ((m * u).row(3)[pc] for m in (h, c0 * h))
        q = [1 - 12 * a1, 7 * a1 + 12 * a0, -(a1 + 7 * a0), a0]  # 1 + (a_1 - a_0·X)(X^2 - 7X + 12)
        with pytest.raises(ValueError) as refused:
            self.skewed_normal_form(monkeypatch, t, frame, q)
        assert str(refused.value) == "normal form verification failed for member 3"

    def test_normal_form_takes_no_inverse(self, monkeypatch):
        # on tuples with nothing cached, the whole normal form, characteristic
        # polynomials and frame check included, inverts nothing and runs one
        # elimination, the kernel of the Krylov rows
        def refuse(self):
            raise AssertionError("an inverse in the normal form")

        rng = random.Random(71)
        cases = [conjugated_levelt(rng, 2 + k % 3, 2 + k % 5)[2] for k in range(10)]
        cases += [gaussian_conjugated_levelt(rng, 2 + k % 3, 2 + k % 5, 0.3, 0.3)
                  for k in range(10)]
        frames = [common_frame(t) for t in cases]
        eliminate, eliminations, results = thetakit.linalg._eliminate, [], []
        with monkeypatch.context() as patched:
            patched.setattr(ExactMatrix, "inverse", refuse)
            patched.setattr(thetakit.linalg, "_eliminate",
                            lambda work: eliminations.append(work) or eliminate(work))
            for t, f in zip(cases, frames):
                results.append(levelt_normal_form(MatrixTuple(tuple(t)), f))
                assert len(eliminations) == len(results)
        for t, f, (u, canon) in zip(cases, frames, results):
            assert u == krylov_conjugator(t, f)
            assert list(canon) == [companion_of_operator(m.char_poly()) for m in t]

    def test_pipeline_takes_no_matrix_vector_product(self, monkeypatch):
        def refuse(self, vector):
            raise AssertionError("a matrix-vector product in the normal form")

        rng = random.Random(83)
        cases = [conjugated_levelt(rng, 2 + k % 3, 2 + k % 5) for k in range(10)]
        with monkeypatch.context() as patched:
            patched.setattr(ExactMatrix, "apply", refuse)
            results = [levelt_normal_form(t, common_frame(t)) for _, _, t in cases]
        for (spectra, _, t), (u, canon) in zip(cases, results):
            assert list(canon) == [companion_from_spectrum(s) for s in spectra]
            assert all(u * m == c * u for m, c in zip(t, canon))


    def test_pipeline_work_is_pinned(self, monkeypatch):
        # on a real Levelt tuple: one Berkowitz run, on A_0; common_frame's
        # characteristic polynomials take n - 1 products for the one chain
        # W·M^m and two per member after the first; the normal form takes
        # one per member difference in the frame check, one for sigma,
        # n - 2 in the chain M^k·x and one for the anchor, one for H·R, one
        # for U·A_0 and one U·c_j per member after the first
        rng = random.Random(89)
        for trial in range(15):
            n, p = 2 + trial % 5, 2 + trial % 3
            _, _, t = conjugated_levelt(rng, p, n)
            berkowitz, products = [], []
            char_poly, matmul = ExactMatrix.char_poly, thetakit.rigidity._matmul
            with monkeypatch.context() as patched:
                patched.setattr(ExactMatrix, "char_poly", lambda m: berkowitz.append(m) or char_poly(m))
                patched.setattr(thetakit.rigidity, "_matmul",
                                lambda a, b: products.append(a) or matmul(a, b))
                frame = common_frame(t)
                framed = len(products)
                levelt_normal_form(t, frame)
            assert berkowitz == [t[0]]
            assert framed == (n - 1) + 2 * (p - 1)
            assert len(products) - framed == (p - 1) + 1 + (n - 2) + 1 + 1 + 1 + (p - 1)
            # a repeated A_0 takes chi_0, with no Berkowitz run of its own
            with monkeypatch.context() as patched:
                patched.setattr(ExactMatrix, "char_poly", lambda m: berkowitz.append(m) or char_poly(m))
                repeated = MatrixTuple(tuple(t) + (t[0],))._char_polys
            assert berkowitz == [t[0], t[0]] and repeated == t._char_polys + t._char_polys[:1]


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

    def test_a_wrong_normal_form_fails_the_conjugator_check(self, monkeypatch):
        # the composed conjugator is checked member by member: a normal form
        # that returns a wrong u is an AssertionError, not a wrong answer
        rng = random.Random(13)
        spectra, _, conj = conjugated_levelt(rng, 2, 3)
        base = levelt_tuple(spectra)
        assert tuple_conjugator(base, conj) is not None
        monkeypatch.setattr(thetakit.rigidity, "levelt_normal_form",
                            lambda t, frame: (ExactMatrix.identity(t.n), t))
        with pytest.raises(AssertionError, match="conjugator verification failed"):
            tuple_conjugator(base, conj)

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


def closure_dimension(t):
    """The reference for algebra_span_dimension: a batched closure.  The
    span starts as the rref of I flattened, is stacked with its images
    under every member at once (flattened X times the Kronecker lift L_g
    is g*X flattened) and reduced, until the rank stops growing."""
    n = t.n
    lifts = [
        ExactMatrix([[g[c // n, r // n] if r % n == c % n else 0 for c in range(n * n)]
                     for r in range(n * n)])
        for g in t
    ]
    span = ExactMatrix([[int(i == j) for i in range(n) for j in range(n)]])
    while True:
        stacked = ExactMatrix(span.rows + sum(((span * lift).rows for lift in lifts), ()))
        r, pivots = stacked.rref()
        if len(pivots) == span.nrows:
            return len(pivots)
        span = ExactMatrix(r.rows[: len(pivots)])


def span_family(rng, family, n, p, kind):
    """A tuple of the family, conjugated by a real matrix, by a Gaussian
    one, or ("mixed") by a real one and then by A_0 + c·i·I, which
    commutes with A_0, so that A_0 stays real and the others do not.
    "levelt" is over spectra with empty total intersection, "planted" has
    one value in every spectrum, "block" is block upper triangular."""
    if family == "levelt":
        members = levelt_tuple(disjoint_spectra(rng, p, n))
    elif family == "planted":
        lam = Q(rng.randrange(1, 40))
        spectra = [[lam] + [Q(rng.randrange(1, 40)) for _ in range(n - 1)] for _ in range(p)]
        members = [companion_from_spectrum(Spectrum(tuple(s))) for s in spectra]
    else:
        k = rng.randrange(1, n)
        members = [
            ExactMatrix([[Q(0) if i >= k > j else rational(rng, -4, 4, 2) for j in range(n)]
                         for i in range(n)])
            for _ in range(p)
        ]
    g = (gaussian_conjugator if kind == "gaussian" else invertible_matrix)(rng, n)
    g_inv = g.inverse()
    members = [g * m * g_inv for m in members]
    if kind == "mixed":
        c = 1
        while rank(h := members[0] + ExactMatrix.identity(n) * Q(0, c)) < n:
            c += 1
        h_inv = h.inverse()
        members = [h * m * h_inv for m in members]
    return MatrixTuple(tuple(members))


SPAN_KINDS = ("real", "gaussian", "mixed")


@pytest.mark.parametrize("family", ["levelt", "planted", "block"])
def test_algebra_span_dimension_matches_a_batched_closure(family):
    rng = random.Random(family)
    values = set()
    for k in range(12):
        n, p = rng.randrange(2, 5), rng.randrange(2, 4)
        t = span_family(rng, family, n, p, SPAN_KINDS[k % 3])
        if SPAN_KINDS[k % 3] == "mixed":
            assert t[0].im is None and any(m.im for m in t)
        expected = closure_dimension(t)
        assert algebra_span_dimension(t) == expected
        values.add(expected == n * n)
    # Levelt tuples are irreducible, the planted and block ones are not
    assert values == {family == "levelt"}


def test_algebra_span_takes_no_scalar_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("GaussianRational arithmetic in algebra_span_dimension")

    rng = random.Random(23)
    tuples = [span_family(rng, family, 3, 2, kind)
              for family in ("levelt", "planted") for kind in SPAN_KINDS]
    assert [any(m.im for m in t) for t in tuples] == [False, True, True] * 2
    expected = [closure_dimension(t) for t in tuples]
    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__pow__", "inverse"):
            patched.setattr(GaussianRational, name, refuse)
        assert [algebra_span_dimension(t) for t in tuples] == expected
    assert expected[:3] == [9, 9, 9] and max(expected[3:]) < 9


def test_gcd_certificate_matches_direct_gcd():
    t = companion_pair((1, 2), (2, 5))
    polys = [m.char_poly() for m in t]
    g = poly_gcd(polys[0], polys[1])
    assert g == Poly.from_roots([Q(2)])


def test_rigidity_report_agrees_with_the_public_functions():
    # each fact of the report, computed alone on a fresh tuple: Levelt
    # tuples (a normal form), their transposes (a row frame), a shared
    # eigenvalue (a certificate) and a rank-2 difference (no frame)
    rng = random.Random(97)
    cases = [conjugated_levelt(rng, 2 + k % 2, 2 + k % 3)[2] for k in range(6)]
    cases += [gaussian_conjugated_levelt(rng, 2, 2 + k % 3, 0.3, 0.3) for k in range(3)]
    cases += [MatrixTuple(tuple(m.transpose() for m in t)) for t in cases[:3]]
    cases += [companion_pair((1, 2), (2, 5)),
              MatrixTuple((m_([[1, 0], [0, 2]]), m_([[3, 0], [0, 4]])))]
    reasons = set()
    for t in cases:
        r = rigidity_report(MatrixTuple(tuple(t)))
        assert r.pairs == pseudo_reflection_pairs(t)
        try:
            assert (r.frame, r.frame_reason) == (common_frame(t), None)
        except ValueError as exc:
            assert (r.frame, r.frame_reason) == (None, str(exc))
        g = reduce(poly_gcd, [m.char_poly() for m in t])
        assert r.certificate == (g if g.degree >= 1 else None)
        assert (r.normal_form is None) == (r.normal_form_reason is not None)
        if r.normal_form is not None:
            assert r.normal_form == levelt_normal_form(t, common_frame(t))
        reasons.add(r.normal_form_reason and r.normal_form_reason.split()[0])
        pair = t.p == 2 and r.pairs[0, 1]
        assert r.irreducible == (is_irreducible_pair(*t) if pair else None)
        assert r.algebra_dimension == algebra_span_dimension(t)
    assert reasons == {None, "members", "frame", "ratio"}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
def test_rigidity_report_names_a_long_shared_factor_by_its_degree():
    # the members share the eigenvalue 10^700 + 1, past the least digit limit
    big = 10**700 + 1
    t = MatrixTuple((m_([[big, 0], [0, 1]]), m_([[big, 0], [0, 2]])))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        r = rigidity_report(t)
    finally:
        sys.set_int_max_str_digits(limit)
    assert r.certificate == Poly.from_roots([big])
    assert r.normal_form_reason == "members share a characteristic factor of degree 1"
