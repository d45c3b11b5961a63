"""Paths, environment and small statistics shared by the benchmark files.

The benchmark runs from the root of a source checkout and imports
thetakit from ``src/`` without installing it.  The scalar backend is
pinned to ``fraction`` before the first import, in this process and in
every child it starts.
"""

import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BACKEND = "fraction"

# The reference loop's time, by definition, on the speed scale every
# reported time is put on (see reference_seconds).
REF_NOMINAL_S = 1e-3


def child_env() -> dict:
    """Environment for a fresh interpreter that imports thetakit from src/."""
    env = dict(os.environ)
    env["THETAKIT_SCALAR_BACKEND"] = BACKEND
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def import_thetakit():
    """Import thetakit from src/ with the pinned backend.

    Raises ImportError when the checkout holds no thetakit sources, so a
    directory with only the benchmark files fails before it measures.
    """
    if not (SRC / "thetakit" / "__init__.py").is_file():
        raise ImportError("no thetakit sources under %s" % (SRC,))
    os.environ["THETAKIT_SCALAR_BACKEND"] = BACKEND
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thetakit
    import thetakit.cli  # noqa: F401  (the cli workload and the tracer use it)

    if thetakit.BACKEND != BACKEND:
        raise ImportError(
            "thetakit loaded backend %r, expected %r" % (thetakit.BACKEND, BACKEND)
        )
    return thetakit


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def median(values) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def reference_loop():
    """A fixed piece of pure-Python rational arithmetic, the same kind of
    work thetakit does with the fraction backend.  It takes about
    REF_NOMINAL_S on an unloaded core of the VM the benchmark was built on."""
    s = Fraction(0)
    for k in range(1, 250):
        s += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 1)
    return s


def reference_seconds(repeats: int = 3) -> float:
    """Best of `repeats` timings of reference_loop on the current CPU.

    A shared machine's cores change speed for seconds at a time; a time
    measured next to this one and multiplied by REF_NOMINAL_S / this
    reads as it would on a core where the loop takes REF_NOMINAL_S.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best
