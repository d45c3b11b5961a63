import thetakit


def test_all_names_resolve_once():
    names = thetakit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thetakit, name)]
    assert missing == []
