"""Command-line front-end with deterministic JSON reports.

Subcommands
-----------
analyze            exponents, reducibility, shift class, factorization
monodromy          numeric triple (m0, m1, minf) with product residual
rigidity           pseudo-reflection table, frame, certificate/normal form
normal-form        companion normal form of a matrix tuple
verify-identities  seeded sweep over the five contiguity identities
counts             equation vs monodromy parameter counts over a grid

Every report is emitted with sorted keys and canonical scalar strings,
so identical invocations are byte-identical.  Exit status: 0 when all
requested verifications pass, 1 when a verification fails on valid
input, 2 for malformed input or usage errors.
"""

import argparse
import json
import random
import sys

from .extension import parameter_counts
from .hypergeometric import (
    CONTIGUITY_KINDS,
    HGParams,
    _verify_steps,
    canonical_shift_class,
    contiguity_check,
    exponents,
    factorization_certificate,
    greedy_matching,
    is_reducible,
    partition,
)
from .monodromy import build_monodromy
from .rigidity import (
    MatrixTuple,
    _check_invertible,
    _irreducible_pair,
    algebra_span_dimension,
    char_poly_gcd,
    common_frame,
    levelt_normal_form,
    pseudo_reflection_pairs,
)
from .scalars import Q
from .serialization import (
    canonical_dumps,
    load_input,
    scalar_matrix_to_lists,
    triple_report,
)

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

# work bounds: counts builds count² entries, verify-identities count sets,
# and a factorization step of gap m expands operators of theta-degree n + m
MAX_COUNT = {"counts": 100, "verify-identities": 1000}
MAX_GAP = 100


class InputError(Exception):
    """Malformed or out-of-domain input; maps to exit status 2."""


def _emit(report: dict, pretty: bool) -> None:
    sys.stdout.write(canonical_dumps(report, pretty=pretty))


def _load_json(path: str) -> dict:
    try:
        data = load_input(path)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise InputError("%s must hold a JSON object" % (path,))
    return data


def _load_params(path: str) -> HGParams:
    data = _load_json(path)
    try:
        p = HGParams.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("invalid parameter file: %s" % (exc,)) from exc
    if p.n < 2:
        raise InputError(
            "at least two parameters per list are required (got n=%d)" % p.n
        )
    return p


def _load_tuple(path: str) -> MatrixTuple:
    """A tuple of invertible matrices read from path."""
    data = _load_json(path)
    try:
        t = MatrixTuple.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("invalid matrix tuple file: %s" % (exc,)) from exc
    try:
        _check_invertible(t)  # from the char polys, which the commands reuse
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return t


def _pair_1based(pair) -> list:
    return [pair[0] + 1, pair[1] + 1]


def _pairs_1based(pairs) -> list:
    return sorted(_pair_1based(p) for p in pairs)


def cmd_analyze(args) -> int:
    p = _load_params(args.input)
    ex = exponents(p)
    reducible, witness = is_reducible(p)
    part = partition(p)

    try:
        canonical = canonical_shift_class(p).to_dict()
        reason = None
    except ValueError as exc:
        canonical, reason = None, str(exc)

    status = 0
    factorization = None
    if reducible:
        for i, j, m in greedy_matching(p):
            if m > MAX_GAP:
                raise InputError(
                    "alpha_%d - beta_%d = %d exceeds the factorization gap"
                    " bound %d" % (i + 1, j + 1, m, MAX_GAP)
                )
        try:
            steps = factorization_certificate(p)
        except ValueError as exc:
            # every integer difference is negative: out of the chain's domain
            raise InputError(str(exc)) from exc
        verified = _verify_steps(p, steps)
        if not verified:
            status = VERIFICATION_FAILURE
        factorization = {
            "reduced": steps[-1].params_after.to_dict(),
            "removed_alphas": [str(s.linear_factor) for s in steps],
            "steps": [
                {
                    "gap": s.gap,
                    "left": str(s.left),
                    "pair": _pair_1based(s.pair),
                    "params_after": s.params_after.to_dict(),
                    "right": str(s.right),
                }
                for s in steps
            ],
            "verified": verified,
        }

    report = {
        "canonical_class": canonical,
        "canonical_class_reason": reason,
        "exponents": {
            "at_infinity": [str(e) for e in ex.at_infinity],
            "at_one": [str(e) for e in ex.at_one],
            "at_zero": [str(e) for e in ex.at_zero],
        },
        "factorization": factorization,
        "parameters": p.to_dict(),
        "partition": {
            "negative": _pairs_1based(part.negative),
            "positive": _pairs_1based(part.positive),
            "zero": _pairs_1based(part.zero),
        },
        "reducible": reducible,
        "witness": _pair_1based(witness) if witness is not None else None,
    }
    _emit(report, args.pretty)
    return status


def cmd_monodromy(args) -> int:
    p = _load_params(args.input)
    try:
        t = build_monodromy(p, tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(triple_report(t), args.pretty)
    return 0


def _frame_report(frame) -> dict:
    return {
        "basis_change": scalar_matrix_to_lists(frame.basis_change),
        "shared_indices": [k + 1 for k in frame.shared_indices],
        "side": frame.side,
    }


def _normal_form_report(u, canon) -> dict:
    return {
        "basis_change": scalar_matrix_to_lists(u),
        "members": [scalar_matrix_to_lists(m) for m in canon],
    }


def cmd_rigidity(args) -> int:
    t = _load_tuple(args.input)
    table = pseudo_reflection_pairs(t)

    frame_rep = frame = None
    frame_reason = None
    try:
        frame = common_frame(t)
        frame_rep = _frame_report(frame)
    except ValueError as exc:
        frame_reason = str(exc)

    gcd = char_poly_gcd(t.char_polys())
    certificate = str(gcd) if gcd.degree >= 1 else None

    normal_form = None
    normal_form_reason = None
    if certificate is not None:
        normal_form_reason = "members share the characteristic factor %s" % (
            certificate,
        )
    elif frame is None:
        normal_form_reason = frame_reason
    elif frame.side != "columns":
        normal_form_reason = (
            "frame lies on the rows side; the companion form applies to the"
            " transposed tuple"
        )
    else:
        u, canon = levelt_normal_form(t, frame)
        normal_form = _normal_form_report(u, canon)

    report = {
        "algebra_dimension": algebra_span_dimension(t),
        "certificate": certificate,
        "common_frame": frame_rep,
        "common_frame_reason": frame_reason,
        "irreducible": (
            _irreducible_pair(t) if t.p == 2 and table[(0, 1)] else None
        ),
        "normal_form": normal_form,
        "normal_form_reason": normal_form_reason,
        "pseudo_reflection_pairs": [
            {"pair": _pair_1based(pair), "value": value}
            for pair, value in table.items()
        ],
    }
    _emit(report, args.pretty)
    return 0


def cmd_normal_form(args) -> int:
    t = _load_tuple(args.input)
    try:
        frame = common_frame(t)
        u, canon = levelt_normal_form(t, frame)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return VERIFICATION_FAILURE
    _emit(_normal_form_report(u, canon), args.pretty)
    return 0


def _random_scalar(rng: random.Random) -> "Q":
    re = Q(rng.randrange(-8, 9), 0) / Q(rng.randrange(1, 5))
    if rng.random() < 0.25:
        return re + Q(0, rng.randrange(-3, 4)) / Q(rng.randrange(1, 4))
    return re


def _random_params(rng: random.Random, n: int) -> HGParams:
    return HGParams(
        tuple(_random_scalar(rng) for _ in range(n)),
        tuple(_random_scalar(rng) for _ in range(n)),
    )


def cmd_verify_identities(args) -> int:
    rng = random.Random(args.seed)
    kinds = {kind: {"fail": 0, "pass": 0} for kind in CONTIGUITY_KINDS}
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
        for kind in CONTIGUITY_KINDS:
            ok = contiguity_check(kind, p, extras[kind])
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
            eq, mono, rigid = parameter_counts(n, s)
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
