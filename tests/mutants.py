"""Run operator mutants of chosen functions against chosen test files.

Run from the repository root:

    python tests/mutants.py src/thetakit/rigidity.py levelt_normal_form \\
        MatrixTuple._char_polys --tests tests/test_rigidity.py tests/test_cli.py

The module is a file under ``src/``, and each function is named as it is
defined there, ``Class.method`` for a method.  Every site in those
functions gets one mutant: + and - swapped, * to +, // to * (in augmented
assignments too), == and != swapped, < and <=, > and >=, and and or
(every connective of one ``and`` or ``or`` chain at once), in and not in;
1 added to an int constant; a unary minus or ``not`` dropped.  Each
mutant is spliced into a temporary copy of ``src/``, never into the
checkout, and the test files run against that copy with ``pytest -x``.
A mutant is killed when pytest fails, or runs past ten times the
unmutated run (at least 60 s).  The report gives each mutant with its
line and the mutated line's text, killed or surviving, then the counts;
the exit status is 1 when a mutant survives.  Only the standard library
is used.

pytest collects no test from this file, and ``--doctest-modules`` only
imports it, so the run happens under the ``__main__`` guard alone.
"""

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# operator type -> (its token, the token of its mutant)
BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+"),
          ast.FloorDiv: ("//", "*")}
COMPARE = {ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", "<="),
           ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
           ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
UNARY = {ast.USub: "-", ast.Not: "not"}


def _functions(tree, names):
    """The definitions of names in tree, ``Class.method`` for a method."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found["%s.%s" % (node.name, item.name)] = item
    missing = [name for name in names if name not in found]
    if missing:
        raise ValueError("no function %s in the module" % ", ".join(missing))
    return [found[name] for name in names]


def _sites(fn):
    """(kind, node, (token, its mutant)) for each site of fn; a constant has no token."""
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            yield "binary", node, BINARY[type(node.op)]
        elif isinstance(node, ast.AugAssign) and type(node.op) in BINARY:
            yield "augmented", node, tuple(op + "=" for op in BINARY[type(node.op)])
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    yield "compare", (node, k), COMPARE[type(op)]
        elif isinstance(node, ast.BoolOp):
            yield "boolean", node, BOOLEAN[type(node.op)]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in UNARY:
            yield "unary", node, (UNARY[type(node.op)], "")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield "constant", node, (None, str(node.value + 1))


def mutants(source: str, names) -> list:
    """(line, change, mutated source) for each site of the functions names
    of source, in the order of the sites in the text."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def at(line, col):  # an ast position (line, UTF-8 byte column) -> an index of source
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    tokens = [(starts[t.start[0] - 1] + t.start[1], starts[t.end[0] - 1] + t.end[1], t.string)
              for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER)]

    def span(lo, hi, text):
        """(start, end) of the first run of tokens in [lo, hi) spelling text."""
        words = text.split()
        for k, (start, _, _) in enumerate(tokens):
            run = tokens[k:k + len(words)]
            if lo <= start and run[-1][1] <= hi and [t[2] for t in run] == words:
                return start, run[-1][1]
        return None

    def begin(node):
        return at(node.lineno, node.col_offset)

    def end(node):
        return at(node.end_lineno, node.end_col_offset)

    found = []
    for fn in _functions(ast.parse(source), names):
        for kind, node, (old, new) in _sites(fn):
            if kind == "binary":
                spans = [span(end(node.left), begin(node.right), old)]
            elif kind == "augmented":
                spans = [span(end(node.target), begin(node.value), old)]
            elif kind == "compare":
                node, k = node
                operands = [node.left, *node.comparators]
                spans = [span(end(operands[k]), begin(operands[k + 1]), old)]
            elif kind == "boolean":
                spans = [span(end(a), begin(b), old) for a, b in zip(node.values, node.values[1:])]
            elif kind == "unary":  # the operator and the space up to the operand's first token
                first = span(begin(node), end(node), old)
                spans = [first and (first[0], next(t[0] for t in tokens if t[0] >= first[1]))]
            else:
                number = next((t for t in tokens if t[0] == begin(node)), None)
                spans = [number and number[:2]]
                old = number and number[2]
            if None in spans:  # no token spells it, as in an f-string before Python 3.12
                continue
            text = source
            for start, stop in reversed(spans):
                text = text[:start] + new + text[stop:]
            line = source.count("\n", 0, spans[0][0]) + 1
            change = "drop %s" % old if kind == "unary" else "%s -> %s" % (old, new)
            found.append((spans[0][0], line, change, text))
    return [entry[1:] for entry in sorted(found, key=lambda entry: entry[0])]


def _pytest(command, env, timeout=None):
    """(killed, the first failing test id or a reason) of one pytest run."""
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return True, "timed out"
    failed = [row.split()[1] for row in done.stdout.splitlines()
              if row.startswith(("FAILED ", "ERROR ")) and len(row.split()) > 1]
    return done.returncode != 0, failed[0] if failed else "exit %d" % done.returncode


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module file under src/")
    parser.add_argument("functions", nargs="+", help="function names, Class.method for a method")
    parser.add_argument("--tests", nargs="+", required=True, help="the test files to run")
    args = parser.parse_args(argv)
    path = os.path.relpath(os.path.abspath(args.module), ROOT)
    if path.split(os.sep)[0] != "src":
        parser.error("the module must lie under src/")
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        found = mutants(f.read(), args.functions)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *args.tests]
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(scratch, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(scratch, path)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(scratch, "src"), os.environ.get("PYTHONPATH")])))
        began = time.monotonic()
        failed, reason = _pytest(command, env)
        if failed:
            print("the tests fail on the unmutated copy (%s); no mutant run" % reason)
            return 2
        limit = max(60.0, 10 * (time.monotonic() - began))
        survivors = 0
        for line, change, text in found:
            with open(target, "w", encoding="utf-8") as f:
                f.write(text)
            killed, reason = _pytest(command, env, limit)
            survivors += not killed
            print("%s line %d: %s: %s%s" % ("killed" if killed else "SURVIVED", line, change,
                                           text.splitlines()[line - 1].strip(),
                                           "  [%s]" % reason if killed else ""), flush=True)
    print("%d mutants, %d killed, %d survived" % (len(found), len(found) - survivors, survivors))
    return int(survivors > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
