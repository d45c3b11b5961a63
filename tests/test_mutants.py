"""The mutant generator of tests/mutants.py, with no test run."""

import ast

import pytest

from mutants import mutants

SOURCE = '''\
def f(a, b):
    """1 + 2 and 3 == 4 in a docstring."""
    c = (a  # a comment: + and -
         + b) - 2 * a // 3
    c += 1
    if not (a == b and b != c or a in (b, c) and b not in (a,)):
        return -c
    return [x for x in range(a) if x < b <= c > a >= 0]


class K:
    def m(self, a):
        return a * 4


def g(a):
    return a + 1
'''


def test_each_mutant_compiles_and_differs_from_the_source():
    found = mutants(SOURCE, ["f", "K.m"])
    assert [(line, change) for line, change, _ in found] == [
        (4, "+ -> -"), (4, "- -> +"), (4, "2 -> 3"), (4, "* -> +"), (4, "// -> *"),
        (4, "3 -> 4"), (5, "+= -> -="), (5, "1 -> 2"), (6, "drop not"),
        (6, "== -> !="), (6, "and -> or"), (6, "!= -> =="), (6, "or -> and"),
        (6, "in -> not in"), (6, "and -> or"), (6, "not in -> in"), (7, "drop -"),
        (8, "< -> <="), (8, "<= -> <"), (8, "> -> >="), (8, ">= -> >"), (8, "0 -> 1"),
        (13, "* -> +"), (13, "4 -> 5"),
    ]
    source = ast.parse(SOURCE)
    for line, change, text in found:
        compile(text, "<mutant>", "exec")
        tree = ast.parse(text)
        assert ast.dump(tree) != ast.dump(source)
        # the mutant differs on its line only, and g, outside the names, not at all
        rows, mutated = SOURCE.splitlines(), text.splitlines()
        assert [k + 1 for k, (a, b) in enumerate(zip(rows, mutated)) if a != b] == [line]
        assert ast.dump(tree.body[-1]) == ast.dump(source.body[-1])


def test_an_unknown_name_is_refused():
    with pytest.raises(ValueError, match="no function h, K.n in the module"):
        mutants(SOURCE, ["f", "h", "K.n"])
