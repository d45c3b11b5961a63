import pytest

from thetakit.extension import (
    companion_of_operator,
    ext_dimension,
    extension_block,
    parameter_counts,
    psi_map,
)
from thetakit.linalg import ExactMatrix
from thetakit.polynomials import Poly
from thetakit.scalars import Q


def m_(rows):
    return ExactMatrix([[Q(x) for x in row] for row in rows])


def test_companion_fixtures():
    assert companion_of_operator(Poly.from_roots([Q(1), Q(2)])) == m_(
        [[0, -2], [1, 3]]
    )
    assert companion_of_operator(Poly.from_roots([Q(3), Q(4)])) == m_(
        [[0, -12], [1, 7]]
    )
    assert companion_of_operator(Poly.from_roots([Q(1), Q(1)])) == m_(
        [[0, -1], [1, 2]]
    )


def test_companion_accepts_coefficient_sequence():
    # ascending coefficients ending with the leading 1
    assert companion_of_operator([Q(2), Q(-3), Q(1)]) == m_([[0, -2], [1, 3]])


def test_companion_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        companion_of_operator([Q(2), Q(-3), Q(2)])


def test_companion_rejects_constants():
    with pytest.raises(ValueError):
        companion_of_operator([Q(1)])


def test_extension_block_shape():
    block = extension_block(Poly.from_roots([Q(1), Q(2)]), Poly.from_roots([Q(5)]))
    m = block.a_M
    size = block.order_L + block.order_Lp
    assert m.nrows == size == 3
    # upper-left acts like A_{L'}, lower-right like A_L, lower-left zero,
    # and the coupling is a single 1 in the top-right corner
    kp = block.order_Lp
    for i in range(kp):
        for j in range(kp):
            assert m[i, j] == block.a_Lp[i, j]
    for i in range(block.order_L):
        for j in range(block.order_L):
            assert m[kp + i, kp + j] == block.a_L[i, j]
        for j in range(kp):
            assert m[kp + i, j] == Q(0)
    for i in range(kp):
        for j in range(block.order_L):
            expected = Q(1) if (i == 0 and j == block.order_L - 1) else Q(0)
            assert m[i, kp + j] == expected


def test_section_embeds_lower_block():
    block = extension_block(Poly.from_roots([Q(1), Q(2)]), Poly.from_roots([Q(5)]))
    s = block.section
    assert s.nrows == 3 and s.ncols == 2
    assert s.transpose().row(0) == (Q(0), Q(1), Q(0))
    assert s.transpose().row(1) == (Q(0), Q(0), Q(1))


def test_psi_map_extracts_last_coordinate():
    block = extension_block(
        Poly.from_roots([Q(1), Q(2)]), Poly.from_roots([Q(5), Q(6)])
    )
    assert psi_map(block, (Q(3), Q(7))) == (Q(7), Q(0))
    assert psi_map(block, (Q(0), Q(0))) == (Q(0), Q(0))


def test_psi_map_length_check():
    block = extension_block(Poly.from_roots([Q(1), Q(2)]), Poly.from_roots([Q(5)]))
    with pytest.raises(ValueError):
        psi_map(block, (Q(1),))


def test_psi_map_takes_any_scalar_form():
    block = extension_block([Q("-1/3"), 1], [Q("-1/2"), Q("1/5+i"), 1])
    assert psi_map(block, ("2/3+i",)) == psi_map(block, (Q("2/3+i"),)) == (Q("2/3+i"), Q(0))
    assert psi_map(block, (3,)) == (Q(3), Q(0))


def test_psi_map_refuses_a_lower_block():
    # a block whose a_M does not restrict to a_L on the L-space
    block = extension_block(Poly.from_roots([Q(1), Q(2)]), Poly.from_roots([Q(5)]))
    tampered = block._replace(a_M=block.a_M + ExactMatrix.identity(3))
    with pytest.raises(AssertionError, match="lower block"):
        psi_map(tampered, (Q(1), Q(0)))


def test_ext_dimension_fixture():
    assert ext_dimension(2, 3, 0, 0) == 2


def test_ext_dimension_general():
    assert ext_dimension(3, 4, 2, 1) == 3 * 2 + 2 + 1
    with pytest.raises(ValueError):
        ext_dimension(0, 3, 0, 0)
    with pytest.raises(ValueError):
        ext_dimension(2, 0, 0, 0)
    with pytest.raises(ValueError):
        ext_dimension(2, 3, -1, 0)


def test_parameter_counts_fixtures():
    assert parameter_counts(2, 3) == (5, 5, True)
    assert parameter_counts(1, 5) == (4, 4, True)
    assert parameter_counts(3, 3) == (9, 10, False)
    with pytest.raises(ValueError, match="^n and s must be at least 1$"):
        parameter_counts(0, 1)


def test_parameter_counts_equality_classification():
    for n in range(1, 11):
        for s in range(1, 11):
            _, _, rigid = parameter_counts(n, s)
            assert rigid == (n == 1 or (n, s) == (2, 3))
