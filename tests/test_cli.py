import json

import pytest

from thetakit.cli import main


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
    calls = count_calls(monkeypatch, thetakit.cli, worker)
    code, out, err = run(capsys, [command, "--count", str(bound + 1)])
    assert code == 2 and out == ""
    assert err == "error: --count must be at most %d\n" % bound
    assert calls == []  # refused before any work


def test_gap_above_the_bound(capsys, tmp_path, monkeypatch):
    import thetakit.cli

    bound = thetakit.cli.MAX_GAP
    calls = count_calls(monkeypatch, thetakit.cli, "factorization_certificate")
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


def test_golden_normal_form_n5(capsys, tmp_path):
    path = write_json(tmp_path, "n5.json", NORMAL_FORM_N5)
    code, out, _ = run(capsys, ["normal-form", "--input", path])
    assert code == 0
    assert out == GOLDEN_NORMAL_FORM_N5


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

    calls = count_calls(monkeypatch, thetakit.rigidity, "_difference_kernel")
    path = write_json(tmp_path, "triple.json", RIGIDITY_TRIPLE)
    code, out, _ = run(capsys, ["rigidity", "--input", path])
    assert code == 0 and out == GOLDEN_RIGIDITY_TRIPLE
    assert len(calls) == 3  # one per pair of members


def test_analyze_builds_the_factorization_chain_once(capsys, tmp_path, monkeypatch):
    import thetakit.cli
    import thetakit.hypergeometric

    hg = thetakit.hypergeometric
    calls = count_calls(monkeypatch, hg, "factorization_certificate")
    # cli holds its own reference; point it at the counting wrapper too
    monkeypatch.setattr(thetakit.cli, "factorization_certificate", hg.factorization_certificate)
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
