"""Exact operator algebra for generalized hypergeometric equations.

The package is organised in layers:

- ``scalars`` / ``polynomials`` / ``linalg``: Gaussian-rational
  arithmetic, dense exact matrices and subspaces;
- ``theta``: the noncommutative ring C[z, 1/z][t] of Laurent polynomials
  in z and the Euler operator t = z d/dz, with fraction-free right
  division (c*p = q*d + r), right gcd and exact left division;
- ``hypergeometric``: construction, local exponents, reducibility,
  contiguity identities and factorization certificates;
- ``extension``: companion systems, one-step extension blocks and
  parameter counting;
- ``rigidity``: pseudo-reflection tuples, common frames, invariant
  subspaces, companion normal forms and irreducibility tests;
- ``monodromy``: double-precision monodromy triples and numeric
  rigidity checks;
- ``cli``: the ``thetakit`` command.
"""

from .scalars import BACKEND, GaussianRational, I, ONE, Q, ZERO
from .polynomials import Poly, X, poly_gcd
from .linalg import ExactMatrix, Subspace, complete_basis, kernel
from .theta import (
    ThetaOperator,
    left_factor_check,
    parse,
    render,
    right_divide,
    right_gcd,
)
from .hypergeometric import (
    CONTIGUITY_KINDS,
    FactorStep,
    HGParams,
    LocalExponents,
    ReducibilityPartition,
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
from .extension import (
    ExtensionBlock,
    companion_of_operator,
    ext_dimension,
    extension_block,
    parameter_counts,
    psi_map,
)
from .rigidity import (
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
    tuple_conjugator,
)
from .monodromy import (
    LocalSpectra,
    MonodromyTriple,
    build_monodromy,
    check_pseudo_reflection_numeric,
    companion_eigenvalues,
    local_spectra,
    multiset_close,
    rigidity_check_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CONTIGUITY_KINDS",
    "CommonFrame",
    "ExactMatrix",
    "ExtensionBlock",
    "FactorStep",
    "GaussianRational",
    "HGParams",
    "I",
    "LocalExponents",
    "LocalSpectra",
    "MatrixTuple",
    "MonodromyTriple",
    "ONE",
    "Poly",
    "Q",
    "ReducibilityPartition",
    "Spectrum",
    "Subspace",
    "ThetaOperator",
    "X",
    "ZERO",
    "algebra_span_dimension",
    "build_D",
    "build_monodromy",
    "canonical_shift_class",
    "check_pseudo_reflection_numeric",
    "common_frame",
    "common_spectrum_certificate",
    "companion_eigenvalues",
    "companion_from_spectrum",
    "companion_of_operator",
    "complete_basis",
    "contiguity_check",
    "exponents",
    "ext_dimension",
    "extension_block",
    "factor_reducible",
    "factorization_certificate",
    "find_stabilized_subspace",
    "greedy_matching",
    "is_irreducible_pair",
    "is_pseudo_reflection",
    "is_reducible",
    "kernel",
    "left_factor_check",
    "levelt_normal_form",
    "levelt_tuple",
    "local_spectra",
    "multiset_close",
    "parameter_counts",
    "parse",
    "partition",
    "poly_gcd",
    "psi_map",
    "render",
    "right_divide",
    "right_gcd",
    "rigidity_check_numeric",
    "tuple_conjugator",
    "verify_certificate",
]
