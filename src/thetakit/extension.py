"""Extension blocks for factored operators and dimension counting.

A monic operator M = L'·L of order r+r'+2 (orders r'+1 and r+1 for the
factors) acts on a solution space that sits in a short exact sequence
between the spaces of L' and L.  On companion bases that sequence is
visible as a block matrix

    A_M = [ A_L'  C ]        C has a single 1, in its top-right corner,
          [ 0     A_L ]      i.e. the top-right corner of A_M itself.

The connecting map of the sequence is computed from the canonical
section S = [0; I]: psi(u) = A_M·S·u - S·(A_L·u).  The derivative terms
of the true connecting morphism cancel, leaving exactly this constant
block computation, whose value is (u_last, 0, ..., 0) -- the last basis
vector of the L-space maps to the first basis vector of the L'-space.

Also here: the two parameter counts for tuples of matrices with fixed
conjugacy data (equation side vs monodromy side) and the cohomological
dimension count h1 = (cardS - 2)*n + irr + h0.
"""

from collections import namedtuple

from .linalg import ExactMatrix, _matrix, companion_of_operator
from .scalars import Q


class ExtensionBlock(namedtuple("ExtensionBlock", "a_L a_Lp a_M section")):
    """Companion data of a factored operator M = L'·L.

    a_L and a_Lp are the companion matrices of the factors, a_M the
    coupled block matrix, and section the inclusion [0; I] of the
    L-space into the M-space.
    """

    __slots__ = ()

    @property
    def order_L(self) -> int:
        return self.a_L.n

    @property
    def order_Lp(self) -> int:
        return self.a_Lp.n


def extension_block(L, Lp) -> ExtensionBlock:
    """Assemble the block matrix for M = L'·L from the two factors.

    Factors may be monic Poly values or ascending coefficient sequences
    ending in 1; both must have positive order.

    >>> blk = extension_block([Q("-1/3"), 1], [Q("-1/2"), 1])
    >>> blk.a_M.rows
    ((1/2, 1), (0, 1/3))
    """
    a_L = companion_of_operator(L)
    a_Lp = companion_of_operator(Lp)
    k, kp = a_L.n, a_Lp.n
    rows = [list(r) + [0] * k for r in a_Lp.rows] + [[0] * kp + list(r) for r in a_L.rows]
    rows[0][-1] = 1  # the coupling C
    a_M = ExactMatrix(rows)
    section = _matrix(1, [[int(i == kp + j) for j in range(k)] for i in range(kp + k)])
    return ExtensionBlock(a_L=a_L, a_Lp=a_Lp, a_M=a_M, section=section)


def psi_map(block: ExtensionBlock, u) -> tuple:
    """Connecting map applied to a vector of the L-space.

    Computes (A_M·S - S·A_L)·u, one linear map on the integer store; the
    lower block cancels identically and the value is the L'-space vector
    (u_last, 0, .., 0).

    >>> blk = extension_block([0, 0, 1], [0, 1])
    >>> psi_map(blk, (Q(5), Q(7)))
    (7,)
    """
    vec = tuple(map(Q, u))
    k, kp = block.order_L, block.order_Lp
    if len(vec) != k:
        raise ValueError("expected a vector of length %d, got %d" % (k, len(vec)))
    diff = (block.a_M * block.section - block.section * block.a_L).apply(vec)
    if any(diff[kp:]):
        raise AssertionError("lower block of the connecting map must vanish")
    return diff[:kp]


def ext_dimension(n: int, cardS: int, irr: int, h0: int) -> int:
    """Dimension count h1 = (cardS - 2)*n + irr + h0.

    >>> ext_dimension(2, 3, 0, 0)
    2
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if cardS < 1:
        raise ValueError("cardS must be at least 1")
    if irr < 0 or h0 < 0:
        raise ValueError("irr and h0 must be nonnegative")
    return (cardS - 2) * n + irr + h0


def parameter_counts(n: int, s: int):
    """Parameter counts of the two moduli descriptions for rank n with
    s singular points: returns (equation_count, monodromy_count, rigid).

    equation_count = n*(n*(s-2) + s)/2 (always an even product; this is
    asserted, not assumed), monodromy_count = n^2*(s-2) + 1, and rigid
    is their equality -- which holds exactly for n = 1 (any s) and
    (n, s) = (2, 3).

    >>> parameter_counts(2, 3)
    (5, 5, True)
    >>> parameter_counts(3, 3)
    (9, 10, False)
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be at least 1")
    product = n * (n * (s - 2) + s)
    assert product % 2 == 0, "parameter product must be even"
    equation_count = product // 2
    monodromy_count = n * n * (s - 2) + 1
    return equation_count, monodromy_count, equation_count == monodromy_count
