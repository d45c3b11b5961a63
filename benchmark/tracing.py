"""Spans and counters recorded around thetakit's entry points.

The wrappers live here, in the benchmark, and are installed only for a
traced pass.  A function is replaced in every thetakit module that holds
it, because ``cli`` and ``rigidity`` bind names with ``from ... import``;
a method is replaced on its class.  Everything is restored afterwards.

Two recorders are kept apart.  ``SpanTracer`` records one span per call
at a layer boundary (name, start, end, parent span, operation number)
and derives calls and self time from them when the pass ends.
``ScalarCounter`` counts every Gaussian-rational multiply, add and
inverse; wrapping the scalar operations costs far more than the work
above them, so it runs as its own pass and never beside the spans.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# (layer metric prefix, module, attribute path) of every traced entry point
SPAN_POINTS = (
    ("theta.mul", "thetakit.theta", "ThetaOperator.__mul__"),
    ("hypergeometric.build_D", "thetakit.hypergeometric", "build_D"),
    ("hypergeometric.contiguity_check", "thetakit.hypergeometric", "contiguity_check"),
    ("hypergeometric.verify_certificate", "thetakit.hypergeometric", "verify_certificate"),
    ("linalg.rref", "thetakit.linalg", "ExactMatrix.rref"),
    ("linalg.inverse", "thetakit.linalg", "ExactMatrix.inverse"),
    ("linalg.det", "thetakit.linalg", "ExactMatrix.det"),
    ("linalg.char_poly", "thetakit.linalg", "ExactMatrix.char_poly"),
    ("linalg.matmul", "thetakit.linalg", "ExactMatrix.__mul__"),
    ("polynomials.poly_gcd", "thetakit.polynomials", "poly_gcd"),
    ("rigidity.common_frame", "thetakit.rigidity", "common_frame"),
    ("rigidity.levelt_normal_form", "thetakit.rigidity", "levelt_normal_form"),
    ("rigidity.CommonFrame.verify", "thetakit.rigidity", "CommonFrame.verify"),
    ("rigidity.algebra_span_dimension", "thetakit.rigidity", "algebra_span_dimension"),
    ("monodromy.build_monodromy", "thetakit.monodromy", "build_monodromy"),
    ("extension.parameter_counts", "thetakit.extension", "parameter_counts"),
    ("serialization.canonical_dumps", "thetakit.serialization", "canonical_dumps"),
    ("serialization.load_input", "thetakit.serialization", "load_input"),
    ("cli.main", "thetakit.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPAN_POINTS)


class Patches:
    """Replacements installed by install() and undone by restore()."""

    def __init__(self):
        self._undo = []

    def install(self, module_name: str, path: str, make_wrapper):
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "thetakit" and not name.startswith("thetakit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class SpanTracer:
    """In-memory spans at the layer boundaries of SPAN_POINTS.

    Spans are recorded only while ``active`` is set, i.e. inside a timed
    operation; the benchmark's own checks call thetakit untraced.
    """

    def __init__(self):
        self.active = False
        self.op = 0
        self.spans = []  # [name, start, end, parent index, operation number]
        self._stack = []
        self.term_pairs = 0

    def _wrap(self, name, fn, only_if=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (only_if is not None and not only_if(*args)):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self, patches: Patches):
        from thetakit.linalg import ExactMatrix
        from thetakit.theta import ThetaOperator

        def is_matrix_product(_self, other):
            return isinstance(other, ExactMatrix)

        def count_terms(_self, other):
            # sum over products of (terms of left) * (terms of right)
            right = len(other.terms()) if isinstance(other, ThetaOperator) else 1
            self.term_pairs += len(_self.terms()) * right
            return True

        only = {"linalg.matmul": is_matrix_product, "theta.mul": count_terms}
        for name, module, path in SPAN_POINTS:
            patches.install(
                module, path, lambda fn, name=name: self._wrap(name, fn, only.get(name))
            )

    def summary(self) -> dict:
        """calls and self_s per span name; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return {
            name: {"calls": calls[name], "self_s": self_s[name]} for name in SPAN_NAMES
        }


class ScalarCounter:
    """Counts of GaussianRational multiply, add/sub and inverse calls."""

    def __init__(self):
        self.active = False
        self.mul = 0
        self.mul_real = 0
        self.add = 0
        self.inverse = 0

    def install(self, patches: Patches):
        from thetakit.scalars import GaussianRational

        counter = self

        def counting(field, fn):
            @functools.wraps(fn)
            def wrapper(a, *rest):
                if counter.active and all(isinstance(b, (int, GaussianRational)) for b in rest):
                    setattr(counter, field, getattr(counter, field) + 1)
                    if field == "mul" and not a.im and not getattr(rest[0], "im", 0):
                        counter.mul_real += 1
                return fn(a, *rest)

            return wrapper

        # __rsub__ reaches __sub__, and __truediv__ reaches __mul__ and inverse
        for attr, field in (
            ("__mul__", "mul"), ("__rmul__", "mul"),
            ("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"),
            ("inverse", "inverse"),
        ):
            patches.install(
                "thetakit.scalars",
                "GaussianRational." + attr,
                lambda fn, field=field: counting(field, fn),
            )

    def summary(self) -> dict:
        return {
            "mul.calls": self.mul,
            "add.calls": self.add,
            "inverse.calls": self.inverse,
            "mul.real_share": self.mul_real / self.mul if self.mul else 0.0,
        }
