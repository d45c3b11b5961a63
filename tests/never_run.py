"""List the statements of ``src/thetakit`` that a pytest run never executes.

Run from the repository root, with thetakit importable (for example
``PYTHONPATH=src``):

    python tests/never_run.py [pytest arguments]

The arguments default to ``tests src``.  pytest runs in this process
under a ``sys.settrace`` line tracer; CLI subprocesses that the tests
start are not traced.  A statement is one ``ast`` statement node that
compiles to code, and it ran when a line event fired on one of its own
lines (its span less the spans of the statements nested in it).  The
report gives, per module, the count and line numbers of the statements
that never ran, then the total.  Only the standard library is used.

pytest collects no test from this file, and ``--doctest-modules`` only
imports it, so the tracer runs under the ``__main__`` guard alone.
"""

import ast
import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "thetakit")


def _code_lines(code) -> set:
    """Every line number the instructions of code and its nested code carry."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: str) -> dict:
    """{first line: own lines} of every statement in path that compiles to code."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    compiled = _code_lines(compile(source, path, "exec"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if own & compiled:
            found[first] = own
    return found


def main(argv) -> int:
    import pytest

    ran = {}  # module path -> executed line numbers
    paths = {}  # code filename -> its module path, None outside the package

    def local(frame, event, arg):
        if event == "line":
            ran[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if os.path.dirname(path) == PACKAGE else None
            if paths[name]:
                ran.setdefault(path, set())
        return local if paths[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "src"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for entry in sorted(os.listdir(PACKAGE)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, entry)
        missed = sorted(first for first, own in statements(path).items()
                        if not own & ran.get(path, set()))
        total += len(missed)
        if missed:
            lines = ", ".join(map(str, missed))
            print("%s: %d never run: %s" % (entry, len(missed), lines))
    print("never run: %d statements" % total)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
