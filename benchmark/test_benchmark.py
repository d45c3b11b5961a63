"""Self-tests of the benchmark: its oracles reject wrong answers, its
inputs repeat for a seed, and its output carries exactly the metrics
BENCHMARK.json declares.

Run from the root of the checkout:  python3 -m pytest benchmark -q
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from common import ROOT, import_thetakit

tk = import_thetakit()

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def params(alpha, beta):
    q = tk.scalars.Q
    return tk.hypergeometric.HGParams(
        tuple(q(*a) for a in alpha), tuple(q(*b) for b in beta)
    )


def sample_params():
    rng = inputs.workload_rng(7, "test")
    return inputs.contiguity_round(rng)[2][:2]  # n = 4, with complex entries


# -- operator oracle ---------------------------------------------------------------


def test_build_D_oracle_accepts_the_program_and_rejects_one_perturbed_coefficient():
    alpha, beta = sample_params()
    terms = oracles.operator_terms(tk.hypergeometric.build_D(params(alpha, beta)))
    assert oracles.check_build_D(alpha, beta, terms)
    for key in terms:
        wrong = dict(terms)
        wrong[key] = oracles.gadd(wrong[key], (Fraction(1, 7), Fraction(0)))
        assert not oracles.check_build_D(alpha, beta, wrong)
    missing = dict(terms)
    missing.popitem()
    assert not oracles.check_build_D(alpha, beta, missing)


def test_product_oracle_rejects_a_perturbed_product():
    alpha, beta = sample_params()
    d = tk.hypergeometric.build_D(params(alpha, beta))
    f = tk.theta.ThetaOperator.theta_plus(tk.scalars.Q(Fraction(1, 3), Fraction(2)))
    left, right = oracles.operator_terms(d), oracles.operator_terms(f)
    product = oracles.operator_terms(d * f)
    assert oracles.check_product(left, right, product)
    assert not oracles.check_product(left, right, oracles.operator_terms(f * d))
    wrong = dict(product)
    wrong[(1, 0)] = oracles.gadd(wrong.get((1, 0), oracles.ZERO), (Fraction(0), Fraction(1)))
    assert not oracles.check_product(left, right, wrong)


# -- normal-form oracle ------------------------------------------------------------


def solved_tuple(n=4, p=3):
    rng = inputs.workload_rng(3, "test")
    specs, members = inputs.levelt_tuple(rng, n, p, False)
    t = tk.rigidity.MatrixTuple(tuple(tk.linalg.ExactMatrix(m) for m in members))
    u, canon = tk.rigidity.levelt_normal_form(t, tk.rigidity.common_frame(t))
    return specs, members, oracles.real_matrix(u), [oracles.real_matrix(c) for c in canon]


def test_normal_form_oracle_rejects_a_non_companion_canon():
    specs, members, u, canon = solved_tuple()
    assert oracles.check_normal_form(specs, members, u, canon)
    bad = [list(map(list, c)) for c in canon]
    bad[1][0][0] += 1  # no longer a companion matrix
    assert not oracles.check_normal_form(specs, members, u, bad)
    swapped = [canon[1], canon[0]] + canon[2:]
    assert not oracles.check_normal_form(specs, members, u, swapped)


def test_normal_form_oracle_rejects_a_wrong_or_singular_basis_change():
    specs, members, u, canon = solved_tuple()
    scaled_row = [list(r) for r in u]
    scaled_row[0] = [2 * x for x in scaled_row[0]]
    assert not oracles.check_normal_form(specs, members, scaled_row, canon)
    singular = [list(r) for r in u]
    singular[1] = list(singular[0])
    assert oracles.rank(singular) < len(u)
    assert not oracles.check_normal_form(specs, members, singular, canon)


# -- monodromy oracle ----------------------------------------------------------------


def test_monodromy_oracle_rejects_a_residual_above_tol():
    p = params([inputs.real(Fraction(1, 4)), inputs.real(Fraction(3, 4))],
               [inputs.real(Fraction(1, 2)), inputs.real(1)])
    report = tk.serialization.triple_report(tk.monodromy.build_monodromy(p))
    assert oracles.check_monodromy_report(2, 1e-10, report)
    bad = json.loads(json.dumps(report))
    bad["m0"][0][0][0] += 1e-6
    assert not oracles.check_monodromy_report(2, 1e-10, bad)
    # m1 = I satisfies no rank-one condition
    eye = np.eye(2, dtype=complex)
    assert not oracles.residual_and_rank_ok(eye, eye, eye, 1e-10)


# -- report oracles ------------------------------------------------------------------


def test_analyze_and_counts_oracles_reject_wrong_reports():
    rng = inputs.workload_rng(5, "test")
    alpha, beta = inputs.reducible_params(rng, 3)
    report = {
        "reducible": True,
        "exponents": {"at_zero": [inputs.fmt(oracles.sub(oracles.ONE, b)) for b in beta]},
        "factorization": {"verified": True},
    }
    assert oracles.check_analyze_report(alpha, beta, report)
    assert not oracles.check_analyze_report(alpha, beta, dict(report, reducible=False))
    assert not oracles.check_analyze_report(
        alpha, beta, dict(report, factorization={"verified": False})
    )
    flipped = dict(report, exponents={"at_zero": report["exponents"]["at_zero"][::-1] + ["0"]})
    assert not oracles.check_analyze_report(alpha, beta, flipped)

    good = {"grid": 3, "entries": [], "equal": [[1, 1], [1, 2], [1, 3], [2, 3]]}
    for n in range(1, 4):
        for s in range(1, 4):
            eq, mono, rigid = tk.extension.parameter_counts(n, s)
            good["entries"].append({"equation": eq, "monodromy": mono, "n": n, "rigid": rigid, "s": s})
    assert oracles.check_counts_report(3, good)
    bad = json.loads(json.dumps(good))
    bad["entries"][4]["rigid"] = True
    assert not oracles.check_counts_report(3, bad)


def test_scalar_parser_reads_only_canonical_text():
    assert oracles.parse_scalar("1/2-1/3*i") == (Fraction(1, 2), Fraction(-1, 3))
    assert oracles.parse_scalar("-7*i") == (Fraction(0), Fraction(-7))
    for text in ("", "3i", "1/2+", "i", None):
        assert oracles.parse_scalar(text) is None
    x = (Fraction(-5, 4), Fraction(2, 3))
    assert oracles.parse_scalar(inputs.fmt(x)) == x
    assert oracles.from_scalar(tk.scalars.Q(inputs.fmt(x))) == x


# -- seeds ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [inputs.contiguity_round, inputs.normal_form_round, inputs.cli_round]
)
def test_a_seed_regenerates_identical_inputs(make):
    first = [make(inputs.workload_rng(11, "w")) for _ in range(2)]
    again = [make(inputs.workload_rng(11, "w")) for _ in range(2)]
    assert first == again
    assert make(inputs.workload_rng(12, "w")) != first[0]


def test_planted_spectra_share_exactly_one_value():
    rng = inputs.workload_rng(1, "test")
    for n, p, planted in inputs.NORMAL_FORM_SHAPES:
        specs = inputs.spectra(rng, p, n, planted)
        assert all(len(set(s)) == n and 0 not in s for s in specs)
        assert len({tuple(s) for s in specs}) == p
        assert len(set(specs[0]).intersection(*specs[1:])) == (1 if planted else 0)


# -- output contract -----------------------------------------------------------------


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(monkeypatch):
    workload = WORKLOADS["contiguity"](tk)
    monkeypatch.setattr(workload, "trace_rounds", 1)
    tally, metrics = run.trace(workload, 1)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert tally.attempted == 20 and tally.failed == 0
    assert metrics["hypergeometric.contiguity_check.calls"][0] == 20
    assert metrics["linalg.inverse.calls"][0] == 0


def test_untraced_run_reports_the_declared_end_to_end_metrics():
    tally, metrics, _ = run.measure(WORKLOADS["contiguity"](tk), 1, 0.1)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert tally.attempted >= run.MIN_OPS and not tally.unexpected
