import ast
import copy
import doctest
import os
import pickle
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import thetakit
import util
from thetakit.scalars import Q
from util import LAYERS, env_with_src

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
BENCHMARK = os.path.join(ROOT, "benchmark")


def test_all_names_resolve_once():
    names = thetakit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thetakit, name)]
    assert missing == []


def _package_trees():
    """(file name, syntax tree) of each module of the package."""
    package = os.path.dirname(thetakit.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read())


def test_every_module_level_definition_is_used_or_exported():
    # no code that nothing calls: each function, class and assigned name
    # at module level in the package, and each private method or property
    # (_x, not a dunder) of its classes, is loaded by name outside its own
    # definition, or exported
    trees = list(_package_trees())

    def references(node):
        found = Counter()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found[n.id] += 1
            elif isinstance(n, ast.Attribute):
                found[n.attr] += 1
            elif isinstance(n, ast.ImportFrom):
                found.update(alias.name for alias in n.names)
        return found

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return []

    def definitions(tree):
        for node in tree.body:
            for name in defined(node):
                yield node, name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name.startswith("_"):
                        yield member, member.name

    everywhere = sum((references(tree) for _, tree in trees), Counter())
    unused = [
        "%s:%s" % (module, name)
        for module, tree in trees
        for node, name in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in thetakit.__all__
        and everywhere[name] == references(node)[name]
    ]
    assert unused == []


def test_cli_reads_no_private_name():
    # the CLI turns the library's public reports into JSON: it reads no
    # _-prefixed attribute but a dunder, and imports no _ name from thetakit
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    (tree,) = [tree for name, tree in _package_trees() if name == "cli.py"]
    read = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and private(n.attr)]
    imported = [alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                and (n.level or (n.module or "").split(".")[0] == "thetakit")
                for alias in n.names if private(alias.name)]
    assert read == imported == []


def _attribute_loads(tree, owner=None):
    """(names, qualified): a Counter of the attribute names loaded in tree
    and one of the (qualifier, name) pairs, the qualifier being the name
    or attribute the attribute is read from, and cls meaning owner."""
    names, qualified = Counter(), Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names[n.attr] += 1
            base = getattr(n.value, "id", None) or getattr(n.value, "attr", None)
            qualified[owner if base == "cls" else base, n.attr] += 1
    return names, qualified


def _readme_examples():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```pycon\n(.*?)```", f.read(), re.S)
    return ast.parse("\n".join(line[4:] for block in blocks for line in block.splitlines()
                               if line.startswith((">>> ", "... "))))


def _benchmark_loads():
    """(names, qualified) of every tk. attribute chain in the benchmark's
    code and of each SPAN_POINTS entry."""
    names, qualified = Counter(), Counter()
    for name in sorted(os.listdir(BENCHMARK)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCHMARK, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "SPAN_POINTS":
                for _, _, path in ast.literal_eval(node.value):
                    chain = [None] + path.split(".")
                    names[chain[-1]] += 1
                    qualified[chain[-2], chain[-1]] += 1
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and getattr(node, "id", "") == "tk":
                names.update(chain)
                qualified.update(zip(["tk"] + chain, chain))
    return names, qualified


def test_every_public_member_is_reached_outside_the_tests():
    # no code that nothing calls, for class members: each public method or
    # property of a package class is loaded as an attribute in the package
    # outside its own body, in a README example, or by the benchmark (a tk.
    # attribute chain or a SPAN_POINTS entry).  A classmethod or
    # staticmethod counts only when read through its class: Poly.variable,
    # rigidity.MatrixTuple.from_dict, cls.z.
    names, qualified = _attribute_loads(_readme_examples())
    for counts, more in zip((names, qualified), _benchmark_loads()):
        counts.update(more)
    members = []
    for module, tree in _package_trees():
        for node in tree.body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for counts, more in zip((names, qualified), _attribute_loads(node, owner)):
                counts.update(more)
            if owner:
                members += [(module, owner, m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]

    def reached(owner, member):
        own_names, own_qualified = _attribute_loads(member, owner)
        if {"classmethod", "staticmethod"} & {getattr(d, "id", "") for d in member.decorator_list}:
            return qualified[owner, member.name] > own_qualified[owner, member.name]
        return names[member.name] > own_names[member.name]

    unreached = ["%s:%s.%s" % (module, owner, member.name)
                 for module, owner, member in members if not reached(owner, member)]
    assert unreached == []


def test_readme_examples_run():
    # pytest's --doctest-modules reads no markdown
    result = doctest.testfile(README, module_relative=False, encoding="utf-8")
    assert result.attempted >= 13 and result.failed == 0


def test_every_exported_name_is_backticked_in_readme():
    with open(README, encoding="utf-8") as f:
        spans = re.findall(r"`([^`\n]+)`", f.read())
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    assert [name for name in thetakit.__all__ if name not in named] == []


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


def test_import_registers_every_layer_unexecuted():
    probe = (
        "import sys, types, thetakit; "
        "print(sorted(n for n in sys.modules if n.startswith('thetakit.'))); "
        "print([n for n in %r if sys.modules['thetakit.' + n] is not getattr(thetakit, n)]); "
        "print([n for n, m in sys.modules.items() "
        "if n.startswith('thetakit.') and type(m) is types.ModuleType])" % (LAYERS,)
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env_with_src(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    registered, unbound, executed = proc.stdout.splitlines()
    assert registered == str(sorted("thetakit." + n for n in LAYERS))
    assert unbound == executed == "[]"


def test_names_resolve_from_their_home_layer():
    assert set(thetakit.__all__) <= set(dir(thetakit))
    assert thetakit.companion_of_operator is thetakit.linalg.companion_of_operator
    assert thetakit.companion_of_operator is thetakit.extension.companion_of_operator
    assert thetakit.companion_of_operator is thetakit.rigidity.companion_of_operator


def test_numeric_names_are_the_monodromy_objects():
    assert thetakit.build_monodromy is thetakit.monodromy.build_monodromy
    assert thetakit.MonodromyTriple is thetakit.monodromy.MonodromyTriple


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from thetakit import *", namespace)
    assert [n for n in thetakit.__all__ if n not in namespace] == []
    assert namespace["rigidity_margins"] is thetakit.monodromy.rigidity_margins


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thetakit.no_such_name


def _params():
    return thetakit.HGParams((2, "1/3"), (1, "1/4"))


def _pair():
    return thetakit.levelt_tuple([thetakit.Spectrum((1, 2)), thetakit.Spectrum((3, 4))])


# each record, built on use, and its field names.  MatrixTuple and
# Spectrum have none, their items being their members; they refuse
# assignment to n instead.
RECORDS = {
    "HGParams": (_params, ("alpha", "beta")),
    "LocalExponents": (
        lambda: thetakit.exponents(_params()), ("at_zero", "at_one", "at_infinity")
    ),
    "ReducibilityPartition": (
        lambda: thetakit.partition(_params()), ("zero", "positive", "negative")
    ),
    "FactorStep": (
        lambda: thetakit.factorization_certificate(_params())[0],
        ("pair", "gap", "linear_factor", "left", "right", "params_after"),
    ),
    "CommonFrame": (
        lambda: thetakit.common_frame(_pair()),
        ("basis_change", "side", "shared_indices", "inverse"),
    ),
    "LocalSpectra": (  # the test-side reference in util
        lambda: util.local_spectra(_params()), ("at_zero", "at_one", "at_infinity")
    ),
    "ExtensionBlock": (
        lambda: thetakit.extension_block([Q("-1/3"), 1], [Q("-1/2"), 1]),
        ("a_L", "a_Lp", "a_M", "section"),
    ),
    "MatrixTuple": (_pair, ()),
    "Spectrum": (lambda: thetakit.Spectrum((2, 1)), ()),
    "MonodromyTriple": (
        lambda: thetakit.build_monodromy(thetakit.HGParams(("1/4", "3/4"), ("1/2", 1))),
        ("m0", "m1", "minf", "tolerance"),
    ),
    "RoundTripMargins": (
        lambda: thetakit.rigidity_margins(
            thetakit.build_monodromy(thetakit.HGParams(("1/4", "3/4"), ("1/2", 1)))
        ),
        ("difference", "normals", "condition", "companion", "error"),
    ),
}


def _params_with_facts():
    """_params() with the facts HGParams caches in its instance dict computed."""
    p = _params()
    assert thetakit.verify_certificate(p) and vars(p)
    return p


# records that cache derived facts, built with those facts computed: the
# record and copy tests take them as a second input
WITH_FACTS = {"HGParams": _params_with_facts}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields = RECORDS[name]
    for build in filter(None, (make, WITH_FACTS.get(name))):
        record = build()
        assert type(record) is (getattr(thetakit, name, None) or getattr(util, name))
        for field in fields or ("n",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        if not fields:
            assert record == tuple(record[k] for k in range(len(record)))
            continue
        values = tuple(getattr(record, field) for field in fields)
        if name == "MonodromyTriple":  # float arrays: equal only to itself
            assert record == record
            assert record != values and record != type(record)(*values)
        else:
            assert record == values


# a field value each checking constructor refuses; every record refuses a
# missing field
BAD_FIELDS = {
    "HGParams": {"alpha": (1,), "beta": ()},
    "CommonFrame": {
        "side": "diagonal",
        "shared_indices": (0, 0),
        "inverse": thetakit.ExactMatrix.identity(2) * 2,
    },
}


@pytest.mark.parametrize(
    "name",
    ["HGParams", "LocalExponents", "ReducibilityPartition", "FactorStep",
     "CommonFrame", "LocalSpectra", "ExtensionBlock"],
)
def test_make_and_replace_check_as_the_constructor(name):
    make, fields = RECORDS[name]
    record = make()
    cls = type(record)
    with pytest.raises(TypeError):
        cls(*record[:-1])
    with pytest.raises(TypeError):
        cls._make(record[:-1])
    for field, bad in BAD_FIELDS.get(name, {}).items():
        values = dict(zip(fields, record), **{field: bad})
        with pytest.raises(ValueError):
            cls(**values)
        with pytest.raises(ValueError):
            cls._make(values.values())
        with pytest.raises(ValueError):
            record._replace(**{field: bad})
    same = record._replace(**{fields[0]: record[0]})
    assert type(same) is cls and same == record and cls._make(record) == record


# the value types the records hold, built on use
VALUES = {
    "GaussianRational": lambda: Q("1/2-1/3*i"),
    "Poly": lambda: thetakit.Poly([Q("1/2"), Q(0, 1), 3]),
    "ThetaOperator": lambda: thetakit.build_D(_params()),
    "ExactMatrix": lambda: thetakit.ExactMatrix([[Q("1/2"), Q(0, 1)], [3, 4]]),
    "Subspace": lambda: thetakit.Subspace([(1, 2, 0), (0, Q(0, 1), 1)]),
}

# each binary operator, by its method, applied with a string on the side
# that the method serves
STRING_OPERANDS = {
    "__add__": lambda x: x + "s", "__radd__": lambda x: "s" + x,
    "__sub__": lambda x: x - "s", "__rsub__": lambda x: "s" - x,
    "__mul__": lambda x: x * "s", "__rmul__": lambda x: "s" * x,
    "__truediv__": lambda x: x / "s", "__rtruediv__": lambda x: "s" / x,
    "__floordiv__": lambda x: x // "s", "__mod__": lambda x: x % "s",
    "__divmod__": lambda x: divmod(x, "s"), "__pow__": lambda x: x ** "s",
}


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_assignment_and_string_operands(name):
    value = VALUES[name]()
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        value.anything = 1
    defined = [op for op in STRING_OPERANDS if hasattr(type(value), op)]
    assert defined or name == "Subspace"
    for op in defined:
        with pytest.raises(TypeError):
            STRING_OPERANDS[op](value)
    assert (value == "s") is False and (value != "s") is True


@pytest.mark.parametrize("name", [*RECORDS, *VALUES])
def test_copy_deepcopy_and_pickle_rebuild_an_equal_object(name):
    make = VALUES[name] if name in VALUES else RECORDS[name][0]
    for build in filter(None, (make, WITH_FACTS.get(name))):
        original = build()
        for again in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert type(again) is type(original)
            if name == "MonodromyTriple":  # float arrays: compare them
                for field in ("m0", "m1", "minf"):
                    assert np.array_equal(getattr(again, field), getattr(original, field))
                assert again.tolerance == original.tolerance
            else:
                assert again == original
            if build is not make:  # the copy reads the same facts, cached or not
                assert thetakit.factorization_certificate(again) == \
                    thetakit.factorization_certificate(original)
