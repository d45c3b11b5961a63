import hashlib
import io
import json
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.cli import main
from thetakit.scalars import Q
from util import LAYERS, conjugated_levelt, env_with_src, to_dict


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gauss_file(tmp_path):
    return write_json(
        tmp_path, "gauss.json", {"alpha": ["1/2", "1/2"], "beta": ["1", "1"]}
    )


@pytest.fixture
def reducible_file(tmp_path):
    return write_json(
        tmp_path,
        "reducible.json",
        {"alpha": ["5/2", "1/3"], "beta": ["1/2", "1/4"]},
    )


@pytest.fixture
def pair_file(tmp_path):
    return write_json(
        tmp_path,
        "pair.json",
        {
            "n": 2,
            "matrices": [
                [["0", "-2"], ["1", "3"]],
                [["0", "-12"], ["1", "7"]],
            ],
        },
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_gauss(capsys, gauss_file):
    code, out, err = run(capsys, ["analyze", "--input", gauss_file])
    assert code == 0
    report = json.loads(out)
    assert report["reducible"] is False
    assert report["witness"] is None
    assert report["exponents"]["at_zero"] == ["0", "0"]
    assert report["factorization"] is None


def test_analyze_reducible_witness(capsys, reducible_file):
    code, out, _ = run(capsys, ["analyze", "--input", reducible_file])
    assert code == 0
    report = json.loads(out)
    assert report["reducible"] is True
    assert report["witness"] == [1, 1]
    assert report["factorization"]["verified"] is True
    assert report["factorization"]["steps"][0]["pair"] == [1, 1]
    assert report["canonical_class"] is None
    assert "integer" in report["canonical_class_reason"]


def test_analyze_failed_verification_exits_1(capsys, reducible_file, monkeypatch):
    # a chain whose one step has a wrong left factor fails the exact check:
    # exit 1 with the full report, verified false, on stdout
    import thetakit.hypergeometric

    _, good, _ = run(capsys, ["analyze", "--input", reducible_file])
    build = thetakit.hypergeometric._factor_chain

    def wrong_left(*args):
        (step,) = build(*args)
        return [step._replace(left=step.left + 1)]

    monkeypatch.setattr(thetakit.hypergeometric, "_factor_chain", wrong_left)
    code, out, err = run(capsys, ["analyze", "--input", reducible_file])
    assert code == 1 and err == ""
    report, expected = json.loads(out), json.loads(good)
    assert report["factorization"]["verified"] is False
    step = report["factorization"]["steps"][0]
    good_left = expected["factorization"]["steps"][0]["left"]
    assert step["left"] != good_left
    step["left"], report["factorization"]["verified"] = good_left, True
    assert report == expected


def test_analyze_empty_lists_error(capsys, tmp_path):
    path = write_json(tmp_path, "empty.json", {"alpha": [], "beta": []})
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_analyze_negative_gap(capsys, tmp_path):
    # the only integer difference, alpha_2 - beta_2 = -2, is negative
    path = write_json(
        tmp_path, "neg.json", {"alpha": ["1/2", "1"], "beta": ["1/3", "3"]}
    )
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "alpha_2 - beta_2" in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("analyze", {"alpha": ["1/0", "1/3"], "beta": ["1", "2"]}),
        ("analyze", {"alpha": ["1/2+1/0*i", "1/3"], "beta": ["1", "2"]}),
        (
            "rigidity",
            {"matrices": [[["1/0", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]]]},
        ),
    ],
)
def test_zero_denominator_is_malformed(capsys, tmp_path, command, payload):
    path = write_json(tmp_path, "zero.json", payload)
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


PAIR = [[["0", "-2"], ["1", "3"]], [["0", "-12"], ["1", "7"]]]


@pytest.mark.parametrize(
    "command, payload, message",
    [
        # a string or an object where an array belongs is not iterated
        ("analyze", {"alpha": "57", "beta": "13"}, "alpha must be a JSON array"),
        ("analyze", {"alpha": ["1/2"] * 2, "beta": {"1": 0}}, "beta must be"),
        ("monodromy", {"alpha": "57", "beta": "13"}, "alpha must be"),
        ("analyze", {"alpha": [True, "1/2"], "beta": ["1/3", "1/4"]}, "boolean"),
        ("analyze", {"alpha": [1.5, "1/2"], "beta": ["1/3", "1/4"]}, "1.5"),
        ("analyze", {"alpha": [["1"], "1/2"], "beta": ["1/3", "1/4"]}, "['1']"),
        ("analyze", ["1/2", "1/3"], "must hold a JSON object"),
        ("rigidity", {"matrices": "ab"}, "matrices must be a JSON array"),
        ("rigidity", {"matrices": [PAIR[0], "x"]}, "member 2 must be"),
        ("rigidity", {"matrices": [PAIR[0], {"a": 1}]}, "member 2 must be"),
        ("normal-form", {"matrices": [[["0", "-2"], "13"], PAIR[1]]}, "member 1"),
        ("rigidity", {"matrices": [PAIR[0], [["0", "-12"], ["1", False]]]}, "boolean"),
        ("rigidity", "matrices", "must hold a JSON object"),
        ("normal-form", {"n": 2.9, "matrices": PAIR}, "declared dimension"),
        ("rigidity", {"n": "2", "matrices": PAIR}, "declared dimension"),
        ("rigidity", {"n": 2.0, "matrices": PAIR}, "declared dimension"),
        ("rigidity", {"matrices": [[["1"]], [["2"]]]},
         "invalid matrix tuple file: members must have dimension at least 2"),
    ],
)
def test_malformed_shapes_exit_2(capsys, tmp_path, command, payload, message):
    path = write_json(tmp_path, "shape.json", payload)
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 2
    assert "malformed JSON" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, ["analyze", "--input", "/nonexistent.json"])
    assert code == 2
    assert "cannot read" in err


def test_monodromy_exact_key_set(capsys, tmp_path):
    path = write_json(
        tmp_path, "m.json", {"alpha": ["1/4", "3/4"], "beta": ["1/2", "1"]}
    )
    code, out, _ = run(capsys, ["monodromy", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["m0", "m1", "minf", "residual"]
    assert report["residual"] <= 1e-10
    # [re, im] pairs; minf is the rotation companion of X^2+1
    assert report["minf"][0][1][0] == -1.0
    assert report["minf"][1][0][0] == 1.0


def test_monodromy_reducible_rejected(capsys, tmp_path):
    path = write_json(
        tmp_path, "r.json", {"alpha": ["1/2", "1/3"], "beta": ["3/2", "1/5"]}
    )
    code, out, err = run(capsys, ["monodromy", "--input", path])
    assert code == 2
    assert "reducible" in err


def test_monodromy_near_integer_gap(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "near.json",
        {"alpha": ["1/3", "1000000000001/1000000000000"], "beta": ["1/2", "1"]},
    )
    code, out, _ = run(capsys, ["monodromy", "--input", path])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10


@pytest.mark.parametrize(
    "payload",
    [
        {"alpha": ["1/4", "3/4"], "beta": ["1/4", "1"]},
        {"alpha": ["1/4", "3/4"], "beta": ["1/2", "1"]},
    ],
)
def test_monodromy_nan_tolerance(capsys, tmp_path, payload):
    path = write_json(tmp_path, "m.json", payload)
    code, out, err = run(capsys, ["monodromy", "--input", path, "--tol", "nan"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_rigidity_disjoint_pair(capsys, pair_file):
    code, out, _ = run(capsys, ["rigidity", "--input", pair_file])
    assert code == 0
    report = json.loads(out)
    assert report["irreducible"] is True
    assert report["certificate"] is None
    assert report["algebra_dimension"] == 4
    assert report["common_frame"]["side"] == "columns"
    assert report["pseudo_reflection_pairs"] == [
        {"pair": [1, 2], "value": True}
    ]
    # companion input is its own normal form
    assert report["normal_form"]["members"][0] == [["0", "-2"], ["1", "3"]]
    assert report["normal_form"]["basis_change"] == [["1", "0"], ["0", "1"]]


def test_rigidity_shared_eigenvalue(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "shared.json",
        {
            "n": 2,
            "matrices": [
                [["0", "-2"], ["1", "3"]],
                [["0", "-3"], ["1", "4"]],
            ],
        },
    )
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["certificate"] == "X-1"
    assert report["irreducible"] is False
    assert report["normal_form"] is None
    assert "X-1" in report["normal_form_reason"]


def test_rigidity_singular_member(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "singular.json",
        {
            "n": 2,
            "matrices": [
                [["1", "0"], ["0", "0"]],
                [["1", "0"], ["0", "1"]],
            ],
        },
    )
    code, _, err = run(capsys, ["rigidity", "--input", path])
    assert code == 2
    assert "singular" in err


def test_normal_form_round_trip(capsys, tmp_path, pair_file):
    code, out, _ = run(capsys, ["normal-form", "--input", pair_file])
    assert code == 0
    report = json.loads(out)
    assert report["members"][1] == [["0", "-12"], ["1", "7"]]


def test_normal_form_failure_exit_code(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "shared.json",
        {
            "n": 2,
            "matrices": [
                [["0", "-2"], ["1", "3"]],
                [["0", "-3"], ["1", "4"]],
            ],
        },
    )
    code, out, err = run(capsys, ["normal-form", "--input", path])
    assert code == 1
    assert out == ""
    assert "common characteristic factor" in err


def test_verify_identities(capsys):
    code, out, _ = run(capsys, ["verify-identities", "--seed", "1", "--count", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["count"] == 10
    assert set(report["kinds"]) == {
        "left_append",
        "right_append",
        "alpha_lower",
        "beta_raise",
        "power_shift",
    }
    assert all(v["pass"] == 10 and v["fail"] == 0 for v in report["kinds"].values())


def test_verify_identities_zero_count(capsys):
    code, _, err = run(capsys, ["verify-identities", "--count", "0"])
    assert code == 2
    assert "count" in err


@pytest.mark.parametrize(
    "command, worker",
    [("counts", "parameter_counts"), ("verify-identities", "contiguity_check")],
)
def test_count_above_the_bound(capsys, monkeypatch, command, worker):
    import thetakit.cli

    bound = thetakit.cli.MAX_COUNT[command]
    home = {"counts": thetakit.extension, "verify-identities": thetakit.hypergeometric}
    calls = count_calls(monkeypatch, home[command], worker)
    code, out, err = run(capsys, [command, "--count", str(bound + 1)])
    assert code == 2 and out == ""
    assert err == "error: --count must be at most %d\n" % bound
    assert calls == []  # refused before any work


def test_gap_above_the_bound(capsys, tmp_path, monkeypatch):
    import thetakit.cli

    bound = thetakit.cli.MAX_GAP
    calls = count_calls(monkeypatch, thetakit.hypergeometric, "factorization_certificate")
    payload = {"alpha": [str(bound + 1), "1/2"], "beta": ["0", "1/3"]}
    path = write_json(tmp_path, "gap.json", payload)
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert code == 2 and out == ""
    assert err == (
        "error: alpha_1 - beta_1 = %d exceeds the factorization gap bound %d\n"
        % (bound + 1, bound)
    )
    assert calls == []  # refused before any chain is built


def test_gap_at_the_bound(capsys, tmp_path):
    import thetakit.cli

    bound = thetakit.cli.MAX_GAP
    payload = {"alpha": [str(bound), "1/2"], "beta": ["0", "1/3"]}
    path = write_json(tmp_path, "gap.json", payload)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    factorization = json.loads(out)["factorization"]
    assert factorization["verified"] and factorization["steps"][0]["gap"] == bound


# Exact stdout bytes pinned when the operator layer was re-based; a
# change in rendering, key order or arithmetic shows up here.
GOLDEN_ANALYZE_GAP_3 = (
    '{"canonical_class":null'
    ',"canonical_class_reason":"shift class undefined: alpha_1 - beta_1 is an integer"'
    ',"exponents":{"at_infinity":["7/2","1/3","1/5"],"at_one":["0"'
    ',"1","-1679/420"],"at_zero":["1/2","3/4","5/7"]}'
    ',"factorization":{"reduced":{"alpha":["1/3","1/5"],"beta":["1/4"'
    ',"2/7"]},"removed_alphas":["7/2"],"steps":[{"gap":3'
    ',"left":"t^4 + 4*t^3 + 7/2*t^2 - t - 15/16","pair":[1,1]'
    ',"params_after":{"alpha":["1/3","1/5"],"beta":["1/4","2/7"]}'
    ',"right":"t^3 + 9/2*t^2 + 23/4*t + 15/8"}],"verified":true}'
    ',"parameters":{"alpha":["7/2","1/3","1/5"],"beta":["1/2","1/4"'
    ',"2/7"]},"partition":{"negative":[],"positive":[[1,1]]'
    ',"zero":[]},"reducible":true,"witness":[1,1]}\n'
)

GOLDEN_VERIFY_IDENTITIES_42_5 = (
    '{"count":5,"kinds":{"alpha_lower":{"fail":0,"pass":5}'
    ',"beta_raise":{"fail":0,"pass":5},"left_append":{"fail":0'
    ',"pass":5},"power_shift":{"fail":0,"pass":5}'
    ',"right_append":{"fail":0,"pass":5}},"ok":true,"seed":42}\n'
)

GOLDEN_RIGIDITY_TRIPLE = (
    '{"algebra_dimension":9,"certificate":null'
    ',"common_frame":{"basis_change":[["0","1","1"],["0","1","0"]'
    ',["1","-1","-1"]],"shared_indices":[1,2],"side":"columns"}'
    ',"common_frame_reason":null,"irreducible":null'
    ',"normal_form":{"basis_change":[["1/3","-1/3","2/3"],["2/3"'
    ',"1/3","-2/3"],["-1/3","1/3","1/3"]],"members":[[["0","0","6"]'
    ',["1","0","-11"],["0","1","6"]],[["0","0","120"],["1","0","-74"]'
    ',["0","1","15"]],[["0","0","-7/2"],["1","0","4"],["0","1"'
    ',"13/2"]]]},"normal_form_reason":null'
    ',"pseudo_reflection_pairs":[{"pair":[1,2],"value":true}'
    ',{"pair":[1,3],"value":true},{"pair":[2,3],"value":true}]}\n'
)


# a conjugated companion triple whose frame shares columns 2 and 3
RIGIDITY_TRIPLE = {
    "matrices": [
        [["2", "-2", "-1"], ["4/3", "2/3", "-1/3"], ["-10/3", "13/3", "10/3"]],
        [["-15", "15", "16"], ["49/3", "-43/3", "-46/3"], ["-133/3", "136/3", "133/3"]],
        [["1/6", "-1/6", "5/6"], ["-4", "6", "5"], ["-1/3", "4/3", "1/3"]],
    ]
}

GAP_3_PARAMS = {"alpha": ["7/2", "1/3", "1/5"], "beta": ["1/2", "1/4", "2/7"]}

# g·L_k·g^{-1} for the companions L_k of the spectra {1, 2, 3, 4, 5},
# {-1, 6, 7, 8, 9}, {-3, 1, 2, 5, 10} and g = [[1, 1, 0, 0, 0],
# [0, 1, 2, 0, 0], [0, 0, 1, 0, -1], [1, 0, 0, 2, 0], [0, 1, 0, 1, 1]]
# (det -4); U is fixed only up to a scalar, and these bytes pin it
NORMAL_FORM_N5 = {
    "n": 5,
    "matrices": [
        [
            ["39", "-115", "230", "-38", "76"],
            ["-85/2", "263/2", "-263", "87/2", "-87"],
            ["-207/4", "629/4", "-629/2", "207/4", "-209/2"],
            ["12", "-36", "74", "-12", "24"],
            ["86", "-257", "515", "-85", "171"],
        ],
        [
            ["1100", "-3298", "6596", "-1099", "2198"],
            ["-625/2", "1883/2", "-1883", "627/2", "-627"],
            ["-1283/4", "3857/4", "-3857/2", "1283/4", "-1285/2"],
            ["908", "-2724", "5450", "-908", "1816"],
            ["825/2", "-2473/2", "2474", "-823/2", "824"],
        ],
        [
            ["-69/2", "211/2", "-211", "71/2", "-71"],
            ["-53", "163", "-326", "54", "-108"],
            ["129/4", "-379/4", "379/2", "-129/4", "127/2"],
            ["96", "-288", "578", "-96", "192"],
            ["-103", "310", "-619", "104", "-207"],
        ],
    ],
}

GOLDEN_NORMAL_FORM_N5 = (
    '{"basis_change":[["1","1","-2","1","-2"],["1","-1","2","-1","2"]'
    ',["-1/2","3/2","-1","1/2","-1"],["-1/2","-1/2","1","1/2","1"]'
    ',["-1/2","3/2","-3","1/2","-1"]],"members":[[["0","0","0","0","120"]'
    ',["1","0","0","0","-274"],["0","1","0","0","225"],["0","0","1","0","-85"]'
    ',["0","0","0","1","15"]],[["0","0","0","0","-3024"],["1","0","0","0","-1374"]'
    ',["0","1","0","0","1315"],["0","0","1","0","-305"],["0","0","0","1","29"]]'
    ',[["0","0","0","0","-300"],["1","0","0","0","440"],["0","1","0","0","-111"]'
    ',["0","0","1","0","-43"],["0","0","0","1","15"]]]}\n'
)


# an irreducible n = 3 triple; its double-precision bytes pin
# triple_report and the numeric layer behind it, compact and --pretty
MONODROMY_N3 = {"alpha": ["1/3", "1/2", "3/4"], "beta": ["1/5", "2/5", "1"]}

GOLDEN_MONODROMY_N3 = (
    '{"m0":[[[0.5,-1.5388417685876266],[1.0,0.0],[0.0,0.0]],[[1.309016994'
    '3749472,0.9510565162951535],[0.0,0.0],[1.0,0.0]],[[-0.80901699437494'
    '73,0.5877852522924729],[0.0,-0.0],[0.0,-0.0]]],"m1":[[[1.0,0.0],[0.0'
    ',0.0],[2.6012907777747145,-0.17776636300935456]],[[0.0,0.0],[1.0,0.0'
    '],[1.9777786843930931,1.8288751328486068]],[[0.0,-0.0],[0.0,-0.0],[0'
    '.9945218953682734,0.10452846326765393]]],"minf":[[[0.0,0.0],[0.0,0.0'
    '],[-0.8660254037844389,-0.4999999999999995]],[[1.0,0.0],[0.0,0.0],[-'
    '1.3660254037844388,-0.6339745962155608]],[[0.0,0.0],[1.0,0.0],[-1.5,'
    '-0.13397459621556118]]],"residual":2.3214408970122146e-16}\n'
)

GOLDEN_MONODROMY_N3_PRETTY = (
    '{\n  "m0": [\n    [\n      [\n        0.5,\n        -1.53884176858762'
    '66\n      ],\n      [\n        1.0,\n        0.0\n      ],\n      [\n  '
    '      0.0,\n        0.0\n      ]\n    ],\n    [\n      [\n        1.30'
    '90169943749472,\n        0.9510565162951535\n      ],\n      [\n    '
    '    0.0,\n        0.0\n      ],\n      [\n        1.0,\n        0.0\n '
    '     ]\n    ],\n    [\n      [\n        -0.8090169943749473,\n       '
    ' 0.5877852522924729\n      ],\n      [\n        0.0,\n        -0.0\n '
    '     ],\n      [\n        0.0,\n        -0.0\n      ]\n    ]\n  ],\n  "'
    'm1": [\n    [\n      [\n        1.0,\n        0.0\n      ],\n      [\n '
    '       0.0,\n        0.0\n      ],\n      [\n        2.6012907777747'
    '145,\n        -0.17776636300935456\n      ]\n    ],\n    [\n      [\n '
    '       0.0,\n        0.0\n      ],\n      [\n        1.0,\n        0.'
    '0\n      ],\n      [\n        1.9777786843930931,\n        1.8288751'
    '328486068\n      ]\n    ],\n    [\n      [\n        0.0,\n        -0.0'
    '\n      ],\n      [\n        0.0,\n        -0.0\n      ],\n      [\n   '
    '     0.9945218953682734,\n        0.10452846326765393\n      ]\n   '
    ' ]\n  ],\n  "minf": [\n    [\n      [\n        0.0,\n        0.0\n     '
    ' ],\n      [\n        0.0,\n        0.0\n      ],\n      [\n        -0'
    '.8660254037844389,\n        -0.4999999999999995\n      ]\n    ],\n  '
    '  [\n      [\n        1.0,\n        0.0\n      ],\n      [\n        0.'
    '0,\n        0.0\n      ],\n      [\n        -1.3660254037844388,\n   '
    '     -0.6339745962155608\n      ]\n    ],\n    [\n      [\n        0.'
    '0,\n        0.0\n      ],\n      [\n        1.0,\n        0.0\n      ]'
    ',\n      [\n        -1.5,\n        -0.13397459621556118\n      ]\n   '
    ' ]\n  ],\n  "residual": 2.3214408970122146e-16\n}\n'
)

# the third member's ratios to the two companions have rank 2, so no frame
NOT_PSEUDO_TRIPLE = {
    "n": 2,
    "matrices": [
        [["0", "-2"], ["1", "3"]],
        [["0", "-12"], ["1", "7"]],
        [["5", "0"], ["0", "6"]],
    ],
}

# transposed companions of (1, 2), (3, 4), (5, 6): their difference
# kernels differ, their images share one line, so the frame shares rows
ROWS_TRIPLE = {
    "n": 2,
    "matrices": [
        [["0", "1"], ["-2", "3"]],
        [["0", "1"], ["-12", "7"]],
        [["0", "1"], ["-30", "11"]],
    ],
}

GOLDEN_RIGIDITY_NOT_PSEUDO = (
    '{"algebra_dimension":4,"certificate":null,"common_frame":null,"commo'
    'n_frame_reason":"ratio of members 1 and 3 is not a pseudo-reflection'
    '","irreducible":null,"normal_form":null,"normal_form_reason":"ratio '
    'of members 1 and 3 is not a pseudo-reflection","pseudo_reflection_pa'
    'irs":[{"pair":[1,2],"value":true},{"pair":[1,3],"value":false},{"pai'
    'r":[2,3],"value":false}]}\n'
)

GOLDEN_RIGIDITY_NOT_PSEUDO_PRETTY = (
    '{\n  "algebra_dimension": 4,\n  "certificate": null,\n  "common_fram'
    'e": null,\n  "common_frame_reason": "ratio of members 1 and 3 is not'
    ' a pseudo-reflection",\n  "irreducible": null,\n  "normal_form": nul'
    'l,\n  "normal_form_reason": "ratio of members 1 and 3 is not a pseud'
    'o-reflection",\n  "pseudo_reflection_pairs": [\n    {\n      "pair":'
    ' [\n        1,\n        2\n      ],\n      "value": true\n    },\n  '
    '  {\n      "pair": [\n        1,\n        3\n      ],\n      "value"'
    ': false\n    },\n    {\n      "pair": [\n        2,\n        3\n    '
    '  ],\n      "value": false\n    }\n  ]\n}\n'
)

GOLDEN_RIGIDITY_ROWS = (
    '{"algebra_dimension":4,"certificate":null,"common_frame":{"basis_cha'
    'nge":[["0","1"],["1","0"]],"shared_indices":[2],"side":"rows"},"comm'
    'on_frame_reason":null,"irreducible":null,"normal_form":null,"normal_'
    'form_reason":"frame lies on the rows side; the companion form applie'
    's to the transposed tuple","pseudo_reflection_pairs":[{"pair":[1,2],'
    '"value":true},{"pair":[1,3],"value":true},{"pair":[2,3],"value":true'
    '}]}\n'
)

GOLDEN_RIGIDITY_ROWS_PRETTY = (
    '{\n  "algebra_dimension": 4,\n  "certificate": null,\n  "common_fram'
    'e": {\n    "basis_change": [\n      [\n        "0",\n        "1"\n  '
    '    ],\n      [\n        "1",\n        "0"\n      ]\n    ],\n    "sh'
    'ared_indices": [\n      2\n    ],\n    "side": "rows"\n  },\n  "comm'
    'on_frame_reason": null,\n  "irreducible": null,\n  "normal_form": nu'
    'll,\n  "normal_form_reason": "frame lies on the rows side; the compa'
    'nion form applies to the transposed tuple",\n  "pseudo_reflection_pa'
    'irs": [\n    {\n      "pair": [\n        1,\n        2\n      ],\n  '
    '    "value": true\n    },\n    {\n      "pair": [\n        1,\n     '
    '   3\n      ],\n      "value": true\n    },\n    {\n      "pair": [\n'
    '        2,\n        3\n      ],\n      "value": true\n    }\n  ]\n}\n'
)

GOLDEN_COUNTS_3 = (
    '{"entries":[{"equation":0,"monodromy":0,"n":1,"rigid":true,"s":1},{"'
    'equation":1,"monodromy":1,"n":1,"rigid":true,"s":2},{"equation":2,"m'
    'onodromy":2,"n":1,"rigid":true,"s":3},{"equation":-1,"monodromy":-3,'
    '"n":2,"rigid":false,"s":1},{"equation":2,"monodromy":1,"n":2,"rigid"'
    ':false,"s":2},{"equation":5,"monodromy":5,"n":2,"rigid":true,"s":3},'
    '{"equation":-3,"monodromy":-8,"n":3,"rigid":false,"s":1},{"equation"'
    ':3,"monodromy":1,"n":3,"rigid":false,"s":2},{"equation":9,"monodromy'
    '":10,"n":3,"rigid":false,"s":3}],"equal":[[1,1],[1,2],[1,3],[2,3]],"'
    'grid":3}\n'
)


def test_golden_analyze_factorization_steps(capsys, tmp_path):
    path = write_json(tmp_path, "gap3.json", GAP_3_PARAMS)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    assert out == GOLDEN_ANALYZE_GAP_3


def test_golden_verify_identities(capsys):
    argv = ["verify-identities", "--seed", "42", "--count", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == GOLDEN_VERIFY_IDENTITIES_42_5


def test_golden_rigidity_triple(capsys, tmp_path):
    path = write_json(tmp_path, "triple.json", RIGIDITY_TRIPLE)
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    assert code == 0
    assert out == GOLDEN_RIGIDITY_TRIPLE


@pytest.mark.parametrize(
    "payload, flags, golden",
    [
        (NOT_PSEUDO_TRIPLE, [], GOLDEN_RIGIDITY_NOT_PSEUDO),
        (NOT_PSEUDO_TRIPLE, ["--pretty"], GOLDEN_RIGIDITY_NOT_PSEUDO_PRETTY),
        (ROWS_TRIPLE, [], GOLDEN_RIGIDITY_ROWS),
        (ROWS_TRIPLE, ["--pretty"], GOLDEN_RIGIDITY_ROWS_PRETTY),
    ],
    ids=["not-pseudo", "not-pseudo-pretty", "rows", "rows-pretty"],
)
def test_golden_rigidity_without_normal_form(capsys, tmp_path, payload, flags, golden):
    path = write_json(tmp_path, "tuple.json", payload)
    code, out, _ = run(capsys, ["rigidity", "--input", path] + flags)
    assert code == 0
    assert out == golden


def test_golden_normal_form_n5(capsys, tmp_path):
    path = write_json(tmp_path, "n5.json", NORMAL_FORM_N5)
    code, out, _ = run(capsys, ["normal-form", "--input", path])
    assert code == 0
    assert out == GOLDEN_NORMAL_FORM_N5


@pytest.mark.parametrize(
    "flags, golden",
    [([], GOLDEN_MONODROMY_N3), (["--pretty"], GOLDEN_MONODROMY_N3_PRETTY)],
)
def test_golden_monodromy_n3(capsys, tmp_path, flags, golden):
    path = write_json(tmp_path, "m3.json", MONODROMY_N3)
    code, out, _ = run(capsys, ["monodromy", "--input", path] + flags)
    assert code == 0
    assert out == golden


def test_golden_counts(capsys):
    code, out, _ = run(capsys, ["counts", "--count", "3"])
    assert code == 0
    assert out == GOLDEN_COUNTS_3


# stdout md5 of runs at the work bounds: analyze with every gap 100 at
# n = 8 (alpha_k = (1100 + k)/11, beta_k = k/11) and at n = 32
# (alpha_k = (3300 + k)/33, beta_k = k/33), and verify-identities at its
# bound count with the default seed
@pytest.mark.parametrize(
    "n, den, digest",
    [(8, 11, "0bb00a1db9dd710aabd3694376b02ad4"), (32, 33, "c646780869a49298d5368fcc33c4955a")],
    ids=["n8", "n32"],
)
def test_digest_analyze_every_gap_100(capsys, tmp_path, n, den, digest):
    payload = {"alpha": ["%d/%d" % (100 * den + k, den) for k in range(1, n + 1)],
               "beta": ["%d/%d" % (k, den) for k in range(1, n + 1)]}
    path = write_json(tmp_path, "gaps.json", payload)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_digest_verify_identities_at_the_bound(capsys):
    code, out, _ = run(capsys, ["verify-identities", "--count", "1000"])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "539d74d2e15420ba0f30cffb1c93678b"


def test_random_scalar_matches_the_division_formula():
    # the sweep's scalars, built from the same draws in the same order
    from thetakit.cli import _random_scalar

    def divided(rng):
        re = Q(rng.randrange(-8, 9), 0) / Q(rng.randrange(1, 5))
        if rng.random() < 0.25:
            return re + Q(0, rng.randrange(-3, 4)) / Q(rng.randrange(1, 4))
        return re

    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            x, y = _random_scalar(new), divided(old)
            assert (x, str(x), hash(x), type(x.im)) == (y, str(y), hash(y), type(y.im))
        assert new.getstate() == old.getstate()


# the CLI in a fresh interpreter where `import numpy` raises ImportError
NUMPY_BLOCKED = (
    "import sys; sys.modules['numpy'] = None; "
    "from thetakit.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_without_numpy(argv, payload=None):
    return subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED] + argv,
        input=None if payload is None else json.dumps(payload).encode(),
        capture_output=True,
        env=env_with_src(),
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, payload, golden",
    [
        (["analyze", "--input", "-"], GAP_3_PARAMS, GOLDEN_ANALYZE_GAP_3),
        (["rigidity", "--input", "-"], RIGIDITY_TRIPLE, GOLDEN_RIGIDITY_TRIPLE),
        (["normal-form", "--input", "-"], NORMAL_FORM_N5, GOLDEN_NORMAL_FORM_N5),
        (["counts", "--count", "3"], None, GOLDEN_COUNTS_3),
        (
            ["verify-identities", "--seed", "42", "--count", "5"],
            None,
            GOLDEN_VERIFY_IDENTITIES_42_5,
        ),
    ],
    ids=["analyze", "rigidity", "normal-form", "counts", "verify-identities"],
)
def test_exact_subcommands_never_load_numpy(argv, payload, golden):
    proc = run_without_numpy(argv, payload)
    assert proc.stderr == b""
    assert proc.returncode == 0
    assert proc.stdout == golden.encode()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_tolerance_refused_before_the_numeric_layer(tol):
    # reducible input too: the tolerance is checked first, without numpy
    payload = {"alpha": ["1/4", "3/4"], "beta": ["1/4", "1"]}
    proc = run_without_numpy(["monodromy", "--input", "-", "--tol", tol], payload)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: tolerance must be nonnegative\n"


# The CLI in a fresh interpreter, then one more stdout line naming the
# layers it executed: `import thetakit` registers each layer as a lazy
# module, which becomes a plain module once its body has run.  The line
# ends in `dataclasses` if that was imported, which no layer needs.
LAYER_PROBE = (
    "import sys, types; from thetakit.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join([name for name in %r "
    "if type(sys.modules['thetakit.' + name]) is types.ModuleType] "
    "+ [name for name in ('dataclasses',) if name in sys.modules]), end=''); "
    "sys.exit(code)" % (LAYERS,)
)

EXACT_LAYERS = "scalars polynomials theta hypergeometric"
TUPLE_LAYERS = "scalars polynomials linalg rigidity"


@pytest.mark.parametrize(
    "argv, payload, golden, layers",
    [
        (["analyze", "--input", "-"], GAP_3_PARAMS, GOLDEN_ANALYZE_GAP_3, EXACT_LAYERS),
        (
            ["verify-identities", "--seed", "42", "--count", "5"],
            None,
            GOLDEN_VERIFY_IDENTITIES_42_5,
            EXACT_LAYERS,
        ),
        (
            ["monodromy", "--input", "-"],
            MONODROMY_N3,
            GOLDEN_MONODROMY_N3,
            EXACT_LAYERS + " monodromy",
        ),
        (["rigidity", "--input", "-"], RIGIDITY_TRIPLE, GOLDEN_RIGIDITY_TRIPLE, TUPLE_LAYERS),
        (["normal-form", "--input", "-"], NORMAL_FORM_N5, GOLDEN_NORMAL_FORM_N5, TUPLE_LAYERS),
        (
            ["counts", "--count", "3"],
            None,
            GOLDEN_COUNTS_3,
            "scalars polynomials linalg extension",
        ),
    ],
    ids=["analyze", "verify-identities", "monodromy", "rigidity", "normal-form", "counts"],
)
def test_subcommand_executes_only_its_layers(argv, payload, golden, layers):
    proc = run_layer_probe(argv, payload)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == golden + layers


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["counts", "--count", "101"], 2),
        (["verify-identities", "--count", "1001"], 2),
        (["monodromy", "--input", "-", "--tol", "nan"], 2),
    ],
    ids=["help", "counts-bound", "verify-identities-bound", "monodromy-tol"],
)
def test_help_and_refusals_execute_no_layer(argv, code):
    proc = run_layer_probe(argv, GAP_3_PARAMS)
    assert proc.returncode == code
    # the help text ends in a newline and a refusal prints nothing, so an
    # executed layer would show after the last newline
    assert proc.stdout.rpartition("\n")[2] == ""
    assert code == 0 or (proc.stdout == "" and proc.stderr.startswith("error: "))


def run_layer_probe(argv, payload):
    return subprocess.run(
        [sys.executable, "-c", LAYER_PROBE] + argv,
        input="" if payload is None else json.dumps(payload),
        capture_output=True,
        text=True,
        env=env_with_src(),
        timeout=120,
    )


def unit_gap_params(n):
    """beta_k = (k+1)/(2n+3), alpha_k = beta_k + 1: a chain of n unit gaps."""
    d = 2 * n + 3
    return {
        "alpha": ["%d/%d" % (k + 1 + d, d) for k in range(n)],
        "beta": ["%d/%d" % (k + 1, d) for k in range(n)],
    }


def test_order_above_the_bound(capsys, tmp_path, monkeypatch):
    import thetakit.cli

    bound = thetakit.cli.MAX_ORDER
    chain = count_calls(monkeypatch, thetakit.hypergeometric, "factorization_certificate")
    calls = count_calls(monkeypatch, thetakit.hypergeometric, "exponents")
    path = write_json(tmp_path, "order.json", unit_gap_params(bound + 1))
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert code == 2 and out == ""
    assert err == "error: n = %d parameters per list exceed the bound %d\n" % (
        bound + 1,
        bound,
    )
    assert chain == calls == []  # refused before any work


def test_order_at_the_bound(capsys, tmp_path):
    import thetakit.cli

    bound = thetakit.cli.MAX_ORDER
    d = 2 * bound + 3  # alpha_i - beta_j = (2(i - j) - d)/2d is never an integer
    payload = {
        "alpha": ["%d/%d" % (k + 1, d) for k in range(bound)],
        "beta": ["%d/%d" % (2 * k + 2 + d, 2 * d) for k in range(bound)],
    }
    path = write_json(tmp_path, "order.json", payload)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["reducible"] is False and len(report["parameters"]["alpha"]) == bound


def count_calls(monkeypatch, module, name):
    """Wrap module.name; the returned list gets one entry per call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_rigidity_builds_the_ratio_table_once(capsys, tmp_path, monkeypatch):
    import thetakit.rigidity
    from thetakit.linalg import _matrix
    from thetakit.rigidity import MatrixTuple

    t = MatrixTuple.from_dict(RIGIDITY_TRIPLE)
    differences = {t[i] - t[j] for i in range(t.p) for j in range(i + 1, t.p)}
    calls = count_calls(monkeypatch, thetakit.rigidity, "_rank_one_row")
    path = write_json(tmp_path, "triple.json", RIGIDITY_TRIPLE)
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    assert code == 0 and out == GOLDEN_RIGIDITY_TRIPLE
    read = [m for m in (_matrix(*args) for args in calls) if m in differences]  # (den, re, im)
    assert len(differences) == 3
    assert len(read) == 3 and set(read) == differences  # one per pair


def test_rigidity_folds_the_char_poly_gcd_once(capsys, tmp_path, monkeypatch):
    import thetakit.rigidity

    # char_poly_gcd folds with the module's poly_gcd, whoever holds it
    calls = count_calls(monkeypatch, thetakit.rigidity, "poly_gcd")
    path = write_json(tmp_path, "levelt.json", levelt_payload(4, 2))
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    report = json.loads(out)
    assert code == 0 and report["irreducible"] and report["normal_form"]
    assert len(calls) == 1  # certificate, irreducible and normal form share it


def test_rigidity_checks_the_frame_once(capsys, tmp_path, monkeypatch):
    from thetakit.rigidity import CommonFrame

    # common_frame builds its frame without checking it; the normal form
    # checks the frame it is given
    calls = count_calls(monkeypatch, CommonFrame, "verify")
    path = write_json(tmp_path, "levelt.json", levelt_payload(4, 2))
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    assert code == 0 and json.loads(out)["normal_form"]
    assert len(calls) == 1


def test_analyze_builds_the_factorization_chain_once(capsys, tmp_path, monkeypatch):
    import thetakit.hypergeometric

    calls = count_calls(monkeypatch, thetakit.hypergeometric, "_factor_chain")
    path = write_json(tmp_path, "gap3.json", GAP_3_PARAMS)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0 and out == GOLDEN_ANALYZE_GAP_3
    assert len(calls) == 1


def test_analyze_builds_the_gap_table_once(capsys, tmp_path, monkeypatch):
    import thetakit.hypergeometric

    # reducibility, its witness, the partition, the matching and the chain
    # read one table of the integer differences
    calls = count_calls(monkeypatch, thetakit.hypergeometric, "_gaps")
    path = write_json(tmp_path, "gap3.json", GAP_3_PARAMS)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0 and out == GOLDEN_ANALYZE_GAP_3
    assert len(calls) == 1


def test_byte_identical_determinism(capsys):
    argv = ["verify-identities", "--seed", "42", "--count", "5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_pretty_flag(capsys, gauss_file):
    _, compact, _ = run(capsys, ["analyze", "--input", gauss_file])
    _, pretty, _ = run(capsys, ["analyze", "--input", gauss_file, "--pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


def test_json_and_pretty_conflict(capsys, gauss_file):
    code, _, _ = run(
        capsys, ["analyze", "--input", gauss_file, "--json", "--pretty"]
    )
    assert code == 2


def test_counts_grid(capsys):
    code, out, _ = run(capsys, ["counts", "--count", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["grid"] == 10
    assert len(report["entries"]) == 100
    expected_equal = [[1, s] for s in range(1, 11)] + [[2, 3]]
    assert sorted(report["equal"]) == sorted(expected_equal)


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"alpha": ["1/2", "1/2"], "beta": ["1", "1"]}')
    )
    code, out, _ = run(capsys, ["analyze", "--input", "-"])
    assert code == 0
    assert json.loads(out)["reducible"] is False


def test_missing_subcommand(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


@pytest.mark.parametrize(
    "name, content",
    [
        # json.load raises a plain ValueError past the int-string digit limit
        ("long_int.json", '{"alpha": [%s, "1/2"], "beta": ["1", "2"]}' % ("7" * 5001)),
        ("utf16.json", b'\xff\xfe{"alpha": ["1/2", "1/3"], "beta": ["1", "2"]}'),
        ("deep.json", "[" * 100000),
    ],
    ids=["int-digit-limit", "not-utf8", "deep-nesting"],
)
def test_undecodable_json_exits_2(capsys, tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed JSON in %s: " % path)
    assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
def test_exponent_past_the_print_limit_exits_2(capsys, tmp_path):
    # every literal is under the int-string digit limit, but the at_one
    # exponent's denominator, the product of the two long ones, is over it;
    # the default limit is set here, as PYTHONINTMAXSTRDIGITS may lift it
    payload = {
        "alpha": ["1/" + "7" * 3000, "1/3"],
        "beta": ["1/" + "3" * 3000 + "1", "2/7"],
    }
    path = write_json(tmp_path, "long_exponent.json", payload)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, ["analyze", "--input", path])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == "error: exponents.at_one[2] is too long to print (over 4300 digits)\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
@pytest.mark.parametrize(
    "sign, message",
    [
        (1, "alpha_1 - beta_1 exceeds the factorization gap bound 100"),
        (-1, "no admissible matching: alpha_1 - beta_1 is a negative integer"),
    ],
    ids=["gap-over-the-bound", "negative-gap"],
)
def test_gap_past_the_print_limit_names_the_pair(capsys, tmp_path, sign, message):
    # each literal has 4,300 digits, so it is read; alpha_1 - beta_1 has
    # 4,301, past the default limit set here, so its value is left out
    big = 10**4300 - 1
    payload = {"alpha": [str(sign * big), "1/3"], "beta": [str(-sign * big), "1/5"]}
    path = write_json(tmp_path, "long_gap.json", payload)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, ["analyze", "--input", path])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def triangular_pair(n, digits, changed_rows, lower):
    """Two triangular members with diagonal entries of the given length,
    equal but for a small change of the last column in changed_rows."""
    diag = [10**digits + 7 * k + 1 for k in range(n)]
    off = (lambda i, j: i == j + 1) if lower else (lambda i, j: j == i + 1)
    a0 = [[diag[i] if i == j else int(off(i, j)) for j in range(n)] for i in range(n)]
    a1 = [row[:] for row in a0]
    for i in changed_rows:
        a1[i][n - 1] += i + 2
    return {"matrices": [[[str(x) for x in row] for row in m] for m in (a0, a1)]}


def long_gap_params(digits):
    """beta = (b, 1/5) and alpha = (b + 2, 1/3) with b = 1/77...7: the
    gap-2 step's left operator (t+b-1)(t+b)(t+b+1) has a constant term
    with three times the digits of b's denominator, its right operator
    one with twice as many."""
    s = int("7" * digits)
    return {"alpha": ["%d/%d" % (2 * s + 1, s), "1/3"], "beta": ["1/%d" % s, "1/5"]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
@pytest.mark.parametrize(
    "command, payload, field",
    [
        # 250-digit eigenvalues: the companion coefficients and the
        # conjugator have about 1,000 digits
        ("rigidity", triangular_pair(4, 249, range(4), True),
         "normal_form.basis_change[1][2]"),
        ("normal-form", triangular_pair(4, 249, range(4), True),
         "basis_change[1][2]"),
        # the shared upper block leaves three 331-digit eigenvalues in the gcd
        ("rigidity", triangular_pair(4, 330, (2, 3), False), "certificate"),
        ("analyze", long_gap_params(300), "factorization.steps[1].left"),
    ],
    ids=["rigidity-normal-form", "normal-form", "rigidity-certificate", "analyze-left"],
)
def test_entry_past_the_print_limit_exits_2(capsys, tmp_path, command, payload, field):
    path = write_json(tmp_path, "long_entries.json", payload)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit Python allows
    try:
        code, out, err = run(capsys, [command, "--input", path])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == "error: %s is too long to print (over 640 digits)\n" % (field,)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
def test_shared_factor_past_the_print_limit_is_named_by_degree(capsys, tmp_path):
    # the rigidity-certificate payload: normal-form reports the shared
    # factor by its degree, which prints whatever the factor's size
    path = write_json(tmp_path, "long_factor.json", triangular_pair(4, 330, (2, 3), False))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, ["normal-form", "--input", path])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err == (
        "error: spectrum-intersection hypothesis violated:"
        " common characteristic factor of degree 3\n"
    )


def test_monodromy_order_refused_before_the_numeric_layer():
    from thetakit.cli import MAX_ORDER

    proc = run_without_numpy(["monodromy", "--input", "-"], unit_gap_params(MAX_ORDER + 1))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: n = %d parameters per list exceed the bound %d\n" % (
        MAX_ORDER + 1,
        MAX_ORDER,
    )


def levelt_payload(n, p, seed=8):
    _, _, t = conjugated_levelt(random.Random(seed), p, n)
    return to_dict(t)


@pytest.mark.parametrize("command", ["rigidity", "normal-form"])
@pytest.mark.parametrize(
    "grow, message",
    [
        ("n", "error: members of size n = %d exceed the bound %d\n"),
        ("p", "error: p = %d members exceed the bound %d\n"),
    ],
    ids=["n", "p"],
)
def test_tuple_above_the_bound(capsys, tmp_path, monkeypatch, command, grow, message):
    import thetakit.cli

    bounds = {"n": thetakit.cli.MAX_TUPLE_ORDER, "p": thetakit.cli.MAX_MEMBERS}
    sizes = dict(bounds, **{grow: bounds[grow] + 1})
    calls = count_calls(monkeypatch, thetakit.rigidity, "_check_invertible")
    path = write_json(tmp_path, "big.json", levelt_payload(sizes["n"], sizes["p"]))
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 2 and out == ""
    assert err == message % (sizes[grow], bounds[grow])
    assert calls == []  # refused before any characteristic polynomial


def test_normal_form_at_the_tuple_bounds(capsys, tmp_path):
    import thetakit.cli

    n, p = thetakit.cli.MAX_TUPLE_ORDER, thetakit.cli.MAX_MEMBERS
    path = write_json(tmp_path, "corner.json", levelt_payload(n, p))
    code, out, _ = run(capsys, ["normal-form", "--input", path])
    assert code == 0
    assert len(json.loads(out)["members"]) == p


# The scalar grammar, through Q and through the two loaders: an accepted
# literal reads as one canonical value everywhere, a refused one is exit 2.
ACCEPTED_LITERALS = [
    ("3/4", "3/4"),
    ("-7/3", "-7/3"),
    (" 3/2 ", "3/2"),
    ("1/2-1/3*i", "1/2-1/3*i"),
    ("i", "1*i"),
]
REFUSED_LITERALS = ["1.5", "1e5000", "1_000", "1.5+i", "1/0"]


def literal_inputs(literal):
    """analyze and rigidity payloads that hold the literal."""
    params = {"alpha": [literal, "1/7"], "beta": ["1/5", "1"]}
    # both members have the eigenvalue `literal`: the certificate is X - it
    tuple_ = {
        "matrices": [
            [[literal, "0"], ["0", "1"]],
            [[literal, "0"], ["0", "2"]],
        ]
    }
    return params, tuple_


@pytest.mark.parametrize("literal, canonical", ACCEPTED_LITERALS)
def test_grammar_accepts(capsys, tmp_path, literal, canonical):
    from thetakit.polynomials import Poly

    assert str(Q(literal)) == canonical
    params, tuple_ = literal_inputs(literal)
    code, out, _ = run(capsys, ["analyze", "--input", write_json(tmp_path, "p.json", params)])
    assert code == 0
    assert json.loads(out)["parameters"]["alpha"][0] == canonical
    code, out, _ = run(capsys, ["rigidity", "--input", write_json(tmp_path, "t.json", tuple_)])
    assert code == 0
    assert json.loads(out)["certificate"] == str(Poly.from_roots([Q(canonical)]))


@pytest.mark.parametrize("literal", REFUSED_LITERALS)
def test_grammar_refuses(capsys, tmp_path, literal):
    with pytest.raises(ValueError, match=re.escape(repr(literal))):
        Q(literal)
    params, tuple_ = literal_inputs(literal)
    for command, payload in (("analyze", params), ("rigidity", tuple_)):
        path = write_json(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, [command, "--input", path])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(literal) in err


# Fuzz of the exit-code contract: any JSON value, and near-valid inputs
# whose scalars are drawn from the grammar's alphabet, on every subcommand.
SCALAR_TOKENS = ["0", "1", "2", "3", "/", "+", "-", "*", "i", " ", ".", "e", "_"]
near_scalars = st.one_of(
    st.tuples(
        st.sampled_from(["", "-", " "]),
        st.integers(0, 9).map(str),
        st.sampled_from(["", "/2", "/3", "/7", "/0", ".5"]),
        st.sampled_from(["", "", "+i", "-1/2*i", "*i", "e3"]),
    ).map("".join),
    st.integers(-3, 3),
)
fuzz_scalars = near_scalars | st.lists(st.sampled_from(SCALAR_TOKENS), max_size=5).map("".join)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | fuzz_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["alpha", "beta", "matrices", "n"]), inner, max_size=3),
    max_leaves=8,
)
near_params = st.integers(2, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "alpha": st.lists(near_scalars, min_size=n, max_size=n),
            "beta": st.lists(near_scalars, min_size=n, max_size=n),
        }
    )
)
near_tuples = st.integers(2, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "matrices": st.lists(
                st.lists(st.lists(near_scalars, min_size=n, max_size=n), min_size=n, max_size=n),
                min_size=2,
                max_size=3,
            )
        },
        optional={"n": st.integers(0, 3)},
    )
)
# (argv, stdin value); counts and verify-identities read no input
cli_cases = st.one_of(
    st.tuples(st.sampled_from(["analyze", "monodromy"]), near_params | json_values),
    st.tuples(st.sampled_from(["rigidity", "normal-form"]), near_tuples | json_values),
).map(lambda c: ([c[0], "--input", "-"], c[1])) | st.tuples(
    st.sampled_from(["counts", "verify-identities"]), st.integers(-1, 3)
).map(lambda c: ([c[0], "--count", str(c[1])], None))


def run_in_process(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), redirect_stdout(
        out
    ), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(cli_cases)
def test_fuzz_exit_code_contract(case):
    argv, value = case
    code, _, err = run_in_process(argv, json.dumps(value))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
