"""Exact operator algebra for generalized hypergeometric equations.

The package is organised in layers:

- ``scalars`` / ``polynomials`` / ``linalg``: Gaussian-rational
  arithmetic, dense exact matrices, subspaces and companion matrices;
- ``theta``: the noncommutative ring C[z, 1/z][t] of Laurent polynomials
  in z and the Euler operator t = z d/dz, with fraction-free right
  division (c*p = q*d + r), right gcd and exact left division;
- ``hypergeometric``: construction, local exponents, reducibility,
  contiguity identities and factorization certificates;
- ``extension``: one-step extension blocks and parameter counting;
- ``rigidity``: pseudo-reflection tuples, common frames, invariant
  subspaces, companion normal forms and irreducibility tests;
- ``monodromy``: double-precision monodromy triples and the margins of
  numeric rigidity checks; the only module that needs numpy;
- ``cli``: the ``thetakit`` command.

``import thetakit`` executes no layer.  Each one is registered in
``sys.modules`` unexecuted and runs when one of its names is first read,
as ``thetakit.Q`` or ``from thetakit.rigidity import levelt_tuple``, with
the layers it imports.  So a ``thetakit`` subcommand executes only the
layers it reaches:

=====================================  ====================================
subcommand                             layers executed
=====================================  ====================================
``analyze``, ``verify-identities``     scalars, polynomials, theta,
                                       hypergeometric
``monodromy``                          the same, and monodromy (numpy)
``rigidity``, ``normal-form``          scalars, polynomials, linalg,
                                       rigidity
``counts``                             scalars, polynomials, linalg,
                                       extension
=====================================  ====================================
"""

import importlib.util
import sys

# every layer, in import order, with the names it exports
_LAYERS = {
    "scalars": ("BACKEND", "GaussianRational", "I", "ONE", "Q", "ZERO"),
    "polynomials": ("Poly", "X", "poly_gcd"),
    "linalg": ("ExactMatrix", "Subspace", "companion_of_operator", "kernel"),
    "theta": (
        "ThetaOperator", "left_factor_check", "parse", "render", "right_divide",
        "right_gcd",
    ),
    "hypergeometric": (
        "CONTIGUITY_KINDS", "FactorStep", "HGParams", "LocalExponents",
        "ReducibilityPartition", "analysis_report", "build_D", "canonical_shift_class",
        "contiguity_check", "exponents", "factorization_certificate",
        "greedy_matching", "is_reducible", "partition", "verify_certificate",
    ),
    "extension": (
        "ExtensionBlock", "ext_dimension", "extension_block", "parameter_counts",
        "psi_map",
    ),
    "rigidity": (
        "CommonFrame", "MatrixTuple", "Spectrum", "algebra_span_dimension",
        "common_frame", "common_spectrum_certificate", "companion_from_spectrum",
        "find_stabilized_subspace", "is_irreducible_pair", "levelt_normal_form",
        "levelt_tuple", "rigidity_report", "tuple_conjugator",
    ),
    "monodromy": (
        "MonodromyTriple", "RoundTripMargins", "build_monodromy", "multiset_distance",
        "pseudo_reflection_margins", "rigidity_margins",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

for _layer in _LAYERS:
    _spec = importlib.util.find_spec(__name__ + "." + _layer)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    # an exported name is read from its home layer (PEP 562)
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
