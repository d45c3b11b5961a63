import subprocess
import sys

import pytest

import thetakit
from util import env_with_src


def test_all_names_resolve_once():
    names = thetakit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thetakit, name)]
    assert missing == []


def test_import_leaves_numpy_unloaded():
    probe = "import sys, thetakit; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env_with_src(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_numeric_names_are_the_monodromy_objects():
    assert thetakit.build_monodromy is thetakit.monodromy.build_monodromy
    assert thetakit.MonodromyTriple is thetakit.monodromy.MonodromyTriple


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from thetakit import *", namespace)
    assert [n for n in thetakit.__all__ if n not in namespace] == []
    assert namespace["rigidity_check_numeric"] is thetakit.monodromy.rigidity_check_numeric


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thetakit.no_such_name
