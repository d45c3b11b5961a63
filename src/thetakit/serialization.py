"""JSON helpers shared by the command-line front-end and the tests.

Exact scalars travel as canonical strings ("3/2", "1/2+1/3*i") so they
round-trip losslessly; double-precision complex numbers travel as
[re, im] pairs.  `canonical_dumps` pins the byte-level shape of every
report: keys sorted, either compact separators or two-space indent.
"""

import json
import sys

import numpy as np

from .linalg import ExactMatrix
from .monodromy import MonodromyTriple


def canonical_dumps(obj, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_input(path: str):
    """Parse JSON from a file path, or from stdin when path is '-'."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scalar_matrix_to_lists(m: ExactMatrix) -> list:
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def complex_matrix_to_lists(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def triple_report(t: MonodromyTriple) -> dict:
    """The four-key JSON form of a monodromy triple."""
    return {
        "m0": complex_matrix_to_lists(t.m0),
        "m1": complex_matrix_to_lists(t.m1),
        "minf": complex_matrix_to_lists(t.minf),
        "residual": t.product_residual(),
    }
