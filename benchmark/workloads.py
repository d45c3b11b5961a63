"""The three workloads: what one operation calls and how it is checked.

Each workload turns one seeded round of inputs (see inputs.py) into a
list of ``Op``.  An op's ``call`` is the timed part and calls thetakit
through module attributes looked up at call time, so that the traced
pass sees the wrappers tracing.py installs.  An op's ``check`` is
untimed and uses only the oracles.
"""

import io
import json
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import inputs
import oracles
from common import ROOT, child_env

CONTRACT_EXIT_CODES = (0, 1, 2)


class Op:
    """One operation: a timed call, an untimed check, and its label.

    known_faulty marks an input on which the program is known to break
    its contract; its failure is expected and leaves ``correct`` true.
    """

    __slots__ = ("label", "call", "check", "known_faulty")

    def __init__(self, label, call, check, known_faulty=False):
        self.label = label
        self.call = call
        self.check = check
        self.known_faulty = known_faulty


def gaussian_to_q(tk, x):
    return tk.scalars.Q(x[0], x[1])


class Contiguity:
    """One contiguity_check per op; five kinds per parameter set."""

    name = "contiguity"
    trace_rounds = 20

    def __init__(self, tk):
        self.tk = tk

    def round(self, rng, in_process=True):
        tk = self.tk
        hg = tk.hypergeometric
        ops = []
        for alpha, beta, extras in inputs.contiguity_round(rng):
            p = hg.HGParams(
                tuple(gaussian_to_q(tk, a) for a in alpha),
                tuple(gaussian_to_q(tk, b) for b in beta),
            )
            for kind in hg.CONTIGUITY_KINDS:
                extra = extras[kind]
                if isinstance(extra, tuple):
                    extra = gaussian_to_q(tk, extra)
                check = self._returns_true
                if kind == "left_append":
                    check = self._set_check(p, alpha, beta, extras["right_append"])
                ops.append(
                    Op(
                        "%s n=%d" % (kind, p.n),
                        lambda kind=kind, p=p, extra=extra: hg.contiguity_check(kind, p, extra),
                        check,
                    )
                )
        return ops

    @staticmethod
    def _returns_true(result, exc):
        return exc is None and result is True

    def _set_check(self, p, alpha, beta, delta):
        """True result, plus build_D(p) and D * (t + delta) by their action."""
        tk = self.tk

        def check(result, exc):
            if exc is not None or result is not True:
                return False
            d = tk.hypergeometric.build_D(p)
            factor = tk.theta.ThetaOperator.theta_plus(gaussian_to_q(tk, delta))
            d_terms = oracles.operator_terms(d)
            return oracles.check_build_D(alpha, beta, d_terms) and oracles.check_product(
                d_terms, oracles.operator_terms(factor), oracles.operator_terms(d * factor)
            )

        return check

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NormalForm:
    """common_frame then levelt_normal_form on a conjugated Levelt tuple."""

    name = "normal_form"
    trace_rounds = 4

    def __init__(self, tk):
        self.tk = tk

    def round(self, rng, in_process=True):
        tk = self.tk
        rig = tk.rigidity
        ops = []
        for n, p, planted, specs, members in inputs.normal_form_round(rng):
            t = rig.MatrixTuple(
                tuple(tk.linalg.ExactMatrix(m) for m in members)
            )

            def call(t=t):
                frame = rig.common_frame(t)
                return rig.levelt_normal_form(t, frame)

            ops.append(
                Op(
                    "n=%d p=%d%s" % (n, p, " planted" if planted else ""),
                    call,
                    self._check(specs, members, planted),
                )
            )
        return ops

    @staticmethod
    def _check(specs, members, planted):
        def check(result, exc):
            if planted:
                return isinstance(exc, ValueError)
            if exc is not None:
                return False
            u, canon = result
            canon = [oracles.real_matrix(c) for c in canon]
            if any(c is None for c in canon):
                return False
            return oracles.check_normal_form(specs, members, oracles.real_matrix(u), canon)

        return check

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cli:
    """Fresh ``python -m thetakit.cli`` processes, one at a time.

    The traced pass runs the same argv lists in-process through
    ``thetakit.cli.main``, where an uncaught exception stands for the
    exit status 1 and traceback the interpreter would give.
    """

    name = "cli"
    trace_rounds = 4

    def __init__(self, tk):
        self.tk = tk
        self.env = child_env()

    def round(self, rng, in_process=False):
        run = self._in_process if in_process else self._child
        ops = []
        for label, kind, argv, payload, shape in inputs.cli_round(rng):
            text = "" if payload is None else json.dumps(payload)
            ops.append(
                Op(
                    label,
                    lambda argv=argv, text=text: run(argv, text),
                    self._check(kind, shape),
                    known_faulty=label.startswith("known fault"),
                )
            )
        return ops

    def _child(self, argv, text):
        proc = subprocess.run(
            [sys.executable, "-m", "thetakit.cli"] + argv,
            input=text,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv, text):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.tk.cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    code = 1
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    def _check(self, kind, shape):
        kinds = self.tk.hypergeometric.CONTIGUITY_KINDS

        def check(result, exc):
            if exc is not None:
                return False
            code, out, err = result
            if code not in CONTRACT_EXIT_CODES or "Traceback" in err:
                return False
            if kind == "expect-exit-2":
                return code == 2 and out == ""
            if code != 0:
                return False
            try:
                report = json.loads(out)
            except ValueError:
                return False
            if kind == "analyze":
                return oracles.check_analyze_report(*shape, report)
            if kind == "monodromy":
                alpha, _, tol = shape
                return oracles.check_monodromy_report(len(alpha), tol, report)
            if kind == "rigidity":
                return oracles.check_rigidity_report(*shape, report)
            if kind == "normal-form":
                return oracles.check_normal_form_report(*shape, report)
            if kind == "verify-identities":
                return oracles.check_identities_report(*shape, report, kinds)
            if kind == "counts":
                return oracles.check_counts_report(shape, report)
            raise ValueError("unknown cli check %r" % (kind,))

        return check

    def peak_rss_mb(self):
        """The largest child, which is the largest cli process run."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Contiguity, NormalForm, Cli)}
