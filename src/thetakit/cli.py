"""Command-line front-end with deterministic JSON reports.

Subcommands
-----------
analyze            exponents, reducibility, shift class, factorization
monodromy          numeric triple (m0, m1, minf) with product residual
rigidity           pseudo-reflection table, frame, certificate/normal form
normal-form        companion normal form of a matrix tuple
verify-identities  seeded sweep over the five contiguity identities
counts             equation vs monodromy parameter counts over a grid

Each command builds its report from exact values (scalars, Poly,
ThetaOperator, matrix rows), analyze and rigidity from the record of one
public call each (hypergeometric.analysis_report, rigidity.rigidity_report),
whose pairs and indices they make 1-based; _emit makes each value its
canonical string in one walk and writes the report with sorted keys, so
identical invocations are byte-identical.  A value past Python's int-string digit
limit cannot be printed, an input error naming its JSON path.  Exit
status: 0 when all requested verifications pass, 1 when a verification
fails on valid input, 2 for malformed input or usage errors.

The layers are bound as modules and their names read at call time, so a
command executes only the layers it reaches (see the package docstring).
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import extension, hypergeometric, monodromy, rigidity, scalars
from .serialization import canonical_dumps, load_input, triple_report

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

# work bounds: counts builds count² entries, verify-identities count sets
# (0.45 s at 1000), analyze up to n chain steps, one of gap m at
# theta-degree n + m (0.31 s at n = 32, every gap 100, but only for small
# denominators such as beta_k = k/33: their digits are not bounded), and
# monodromy an O(n²) exact reducibility test and 3·n² number pairs.
# rigidity's algebra span is an O(p·n⁶) search: three 8×8 one-digit
# members took 0.14 s real and 1.35 s 30 % Gaussian, but the bounds do not
# limit the digits of the entries: a three-digit 8×8 pair took 77.2 s.
# Whole runs (2-vCPU Xeon VM, Python 3.11.7), the one-digit ones medians of five.
MAX_COUNT = {"counts": 100, "verify-identities": 1000}
MAX_GAP = 100
MAX_ORDER = 32
MAX_TUPLE_ORDER = 8
MAX_MEMBERS = 3


class InputError(Exception):
    """Malformed or out-of-domain input; maps to exit status 2."""


def _emit(report: dict, pretty: bool) -> None:
    sys.stdout.write(canonical_dumps(_as_json(report, ""), pretty=pretty))


_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))


def _as_json(value, field: str):
    """value with each exact leaf (a scalar, Poly, ThetaOperator) made its
    canonical string by _string, which names it by its JSON path: keys
    joined by dots, list positions 1-based in brackets.  Leaves of an
    exact JSON type are passed over without a call, as most are."""
    if isinstance(value, dict):
        dot = field + "." if field else ""
        return {
            k: v if type(v) in _JSON_LEAVES else _as_json(v, dot + k)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            v if type(v) in _JSON_LEAVES else _as_json(v, "%s[%d]" % (field, k))
            for k, v in enumerate(value, 1)
        ]
    return _string(field, value)


def _load_json(path: str) -> dict:
    try:
        data = load_input(path)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an integer literal over the
        # int-string digit limit, or nesting deeper than the stack
        raise InputError("malformed JSON in %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise InputError("%s must hold a JSON object" % (path,))
    return data


def _load_params(path: str) -> hypergeometric.HGParams:
    data = _load_json(path)
    try:
        p = hypergeometric.HGParams.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("invalid parameter file: %s" % (exc,)) from exc
    if p.n < 2:
        raise InputError(
            "at least two parameters per list are required (got n=%d)" % p.n
        )
    if p.n > MAX_ORDER:
        raise InputError(
            "n = %d parameters per list exceed the bound %d" % (p.n, MAX_ORDER)
        )
    return p


def _load_tuple(path: str) -> rigidity.MatrixTuple:
    """A tuple of invertible matrices read from path."""
    data = _load_json(path)
    try:
        t = rigidity.MatrixTuple.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("invalid matrix tuple file: %s" % (exc,)) from exc
    if t.n > MAX_TUPLE_ORDER:
        raise InputError(
            "members of size n = %d exceed the bound %d" % (t.n, MAX_TUPLE_ORDER)
        )
    if t.p > MAX_MEMBERS:
        raise InputError("p = %d members exceed the bound %d" % (t.p, MAX_MEMBERS))
    try:
        rigidity.pseudo_reflection_pairs(t)  # names a singular member; the table is cached
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return t


def _string(field: str, value) -> str:
    """The canonical string of a computed value; one over Python's
    int-string digit limit cannot be printed, an input error naming the
    field."""
    try:
        return str(value)
    except ValueError:
        raise InputError("%s is too long to print (over %d digits)"
                         % (field, sys.get_int_max_str_digits())) from None


def _pair_1based(pair) -> list:
    return [pair[0] + 1, pair[1] + 1]


def _pairs_1based(pairs) -> list:
    return sorted(_pair_1based(p) for p in pairs)


def cmd_analyze(args) -> int:
    p = _load_params(args.input)
    try:
        r = hypergeometric.analysis_report(p, MAX_GAP)
    except ValueError as exc:
        # a gap over the bound, or every integer difference negative
        raise InputError(str(exc)) from exc
    ex, part, steps = r.exponents, r.partition, r.factorization
    report = {
        "canonical_class": r.canonical_class and r.canonical_class.to_dict(),
        "canonical_class_reason": r.canonical_class_reason,
        "exponents": {
            "at_infinity": ex.at_infinity,
            "at_one": ex.at_one,
            "at_zero": ex.at_zero,
        },
        "factorization": steps and {
            "reduced": steps[-1].params_after.to_dict(),
            "removed_alphas": [s.linear_factor for s in steps],
            "steps": [
                {
                    "gap": s.gap,
                    "left": s.left,
                    "pair": _pair_1based(s.pair),
                    "params_after": s.params_after.to_dict(),
                    "right": s.right,
                }
                for s in steps
            ],
            "verified": r.verified,
        },
        "parameters": p.to_dict(),
        "partition": {
            "negative": _pairs_1based(part.negative),
            "positive": _pairs_1based(part.positive),
            "zero": _pairs_1based(part.zero),
        },
        "reducible": r.reducible,
        "witness": r.witness and _pair_1based(r.witness),
    }
    _emit(report, args.pretty)
    return VERIFICATION_FAILURE if r.verified is False else 0


def cmd_monodromy(args) -> int:
    if not args.tol >= 0:  # NaN too; checked before numpy is loaded
        raise InputError("tolerance must be nonnegative")
    p = _load_params(args.input)
    try:
        t = monodromy.build_monodromy(p, tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(triple_report(t), args.pretty)
    return 0


def _normal_form_report(u, canon) -> dict:
    return {"basis_change": u.rows, "members": [m.rows for m in canon]}


def cmd_rigidity(args) -> int:
    r = rigidity.rigidity_report(_load_tuple(args.input))
    report = {
        "algebra_dimension": r.algebra_dimension,
        "certificate": r.certificate,
        "common_frame": r.frame and {
            "basis_change": r.frame.basis_change.rows,
            "shared_indices": [k + 1 for k in r.frame.shared_indices],
            "side": r.frame.side,
        },
        "common_frame_reason": r.frame_reason,
        "irreducible": r.irreducible,
        "normal_form": r.normal_form and _normal_form_report(*r.normal_form),
        "normal_form_reason": r.normal_form_reason,
        "pseudo_reflection_pairs": [
            {"pair": _pair_1based(pair), "value": value}
            for pair, value in r.pairs.items()
        ],
    }
    _emit(report, args.pretty)
    return 0


def cmd_normal_form(args) -> int:
    t = _load_tuple(args.input)
    try:
        frame = rigidity.common_frame(t)
        u, canon = rigidity.levelt_normal_form(t, frame)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return VERIFICATION_FAILURE
    _emit(_normal_form_report(u, canon), args.pretty)
    return 0


def _random_scalar(rng: random.Random) -> scalars.GaussianRational:
    re = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
    im = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) if rng.random() < 0.25 else 0
    return scalars.Q(re, im)


def _random_params(rng: random.Random, n: int) -> hypergeometric.HGParams:
    return hypergeometric.HGParams(
        tuple(_random_scalar(rng) for _ in range(n)),
        tuple(_random_scalar(rng) for _ in range(n)),
    )


def cmd_verify_identities(args) -> int:
    rng = random.Random(args.seed)
    kinds = {kind: {"fail": 0, "pass": 0} for kind in hypergeometric.CONTIGUITY_KINDS}
    for _ in range(args.count):
        n = rng.randrange(2, 6)
        p = _random_params(rng, n)
        extras = {
            "left_append": _random_scalar(rng),
            "right_append": _random_scalar(rng),
            "alpha_lower": rng.randrange(0, n),
            "beta_raise": rng.randrange(0, n),
            "power_shift": rng.randrange(-3, 4),
        }
        for kind in hypergeometric.CONTIGUITY_KINDS:
            ok = hypergeometric.contiguity_check(kind, p, extras[kind])
            kinds[kind]["pass" if ok else "fail"] += 1
    ok_all = all(v["fail"] == 0 for v in kinds.values())
    report = {
        "count": args.count,
        "kinds": kinds,
        "ok": ok_all,
        "seed": args.seed,
    }
    _emit(report, args.pretty)
    return 0 if ok_all else VERIFICATION_FAILURE


def cmd_counts(args) -> int:
    entries = []
    equal = []
    for n in range(1, args.count + 1):
        for s in range(1, args.count + 1):
            eq, mono, rigid = extension.parameter_counts(n, s)
            entries.append(
                {
                    "equation": eq,
                    "monodromy": mono,
                    "n": n,
                    "rigid": rigid,
                    "s": s,
                }
            )
            if rigid:
                equal.append([n, s])
    _emit({"entries": entries, "equal": equal, "grid": args.count}, args.pretty)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetakit",
        description="Hypergeometric operator analysis with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_input=False):
        if needs_input:
            sp.add_argument(
                "--input",
                required=True,
                help="JSON input file, or '-' for standard input",
            )
        style = sp.add_mutually_exclusive_group()
        style.add_argument(
            "--json",
            action="store_true",
            help="compact single-line JSON (default)",
        )
        style.add_argument(
            "--pretty", action="store_true", help="indented JSON"
        )

    sp = sub.add_parser("analyze", help="reducibility and exponent report")
    add_common(sp, needs_input=True)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("monodromy", help="numeric monodromy triple")
    add_common(sp, needs_input=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_monodromy)

    sp = sub.add_parser("rigidity", help="frame/certificate/normal-form report")
    add_common(sp, needs_input=True)
    sp.set_defaults(func=cmd_rigidity)

    sp = sub.add_parser("normal-form", help="companion normal form")
    add_common(sp, needs_input=True)
    sp.set_defaults(func=cmd_normal_form)

    sp = sub.add_parser(
        "verify-identities", help="seeded contiguity identity sweep"
    )
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=20)
    sp.set_defaults(func=cmd_verify_identities)

    sp = sub.add_parser("counts", help="parameter-count table over a grid")
    add_common(sp)
    sp.add_argument("--count", type=int, default=10, help="grid bound")
    sp.set_defaults(func=cmd_counts)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if getattr(args, "count", 1) < 1:
        sys.stderr.write("error: --count must be at least 1\n")
        return USAGE_ERROR
    bound = MAX_COUNT.get(args.command)
    if bound is not None and args.count > bound:
        sys.stderr.write("error: --count must be at most %d\n" % bound)
        return USAGE_ERROR
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
