"""Correctness checks made apart from the program.

Exact checks use the benchmark's own arithmetic: Gaussian rationals as
pairs of ``fractions.Fraction`` and matrices as lists of Fraction rows.
Float checks use numpy.  No check compares against a stored copy of an
earlier output; each one tests a property the answer must have.

Every check returns True or False and never raises on a wrong answer.
"""

import re
from fractions import Fraction

import numpy as np

from inputs import companion, is_integer, matmul, sub

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gprod(factors):
    out = ONE
    for f in factors:
        out = gmul(out, f)
    return out


def from_scalar(c) -> tuple:
    """A thetakit scalar as a pair of Fractions, read from its public parts."""
    return (Fraction(c.re), Fraction(c.im))


_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_scalar(text):
    """Parse thetakit's canonical '3/2', '-1/3*i' or '1/2+1/3*i'.

    Returns a pair of Fractions, or None for any other text.
    """
    if not isinstance(text, str):
        return None
    if not text.endswith("*i"):
        return (Fraction(text), Fraction(0)) if _RATIONAL.fullmatch(text) else None
    body = text[:-2]
    k = max(body.rfind("+"), body.rfind("-"))
    re_text, im_text = (body[:k], body[k:]) if k > 0 else ("0", body)
    if not (_RATIONAL.fullmatch(re_text) and _RATIONAL.fullmatch(im_text)):
        return None
    return (Fraction(re_text), Fraction(im_text))


# -- operators: action on monomials ---------------------------------------------
#
# An operator sum c_jk z^j t^k (t = z d/dz) sends z^s to
# sum_jk c_jk s^k z^(j+s).  For fixed j that coefficient is a polynomial
# of degree <= max k in s, so agreement at more values of s than that
# degree proves two operators equal.


def operator_terms(op) -> dict:
    """{(j, k): (re, im)} from a thetakit operator's public term map."""
    return {key: from_scalar(c) for key, c in op.terms().items()}


def theta_degree(terms) -> int:
    return max((k for _, k in terms), default=0)


def apply_to(terms, laurent) -> dict:
    """Image of a Laurent polynomial {power: coeff} under the operator."""
    out = {}
    for power, f in laurent.items():
        for (j, k), c in terms.items():
            v = gmul(gmul(c, (Fraction(power) ** k, Fraction(0))), f)
            out[j + power] = gadd(out.get(j + power, ZERO), v)
    return {p: v for p, v in out.items() if v != ZERO}


def hypergeometric_image(alpha, beta, s) -> dict:
    """D(alpha; beta) z^s = prod(s + b - 1) z^s - prod(s + a) z^(s+1)."""
    s_ = (Fraction(s), Fraction(0))
    lower = gprod(gadd(gadd(s_, b), (Fraction(-1), Fraction(0))) for b in beta)
    upper = gprod(gadd(s_, a) for a in alpha)
    out = {s: lower, s + 1: (-upper[0], -upper[1])}
    return {p: v for p, v in out.items() if v != ZERO}


def check_build_D(alpha, beta, terms) -> bool:
    """terms is the operator D(alpha; beta), by its action on z^s."""
    points = max(theta_degree(terms), len(alpha)) + 2
    return all(
        apply_to(terms, {s: ONE}) == hypergeometric_image(alpha, beta, s)
        for s in range(points)
    )


def check_product(left, right, product) -> bool:
    """product = left * right, by composing the two actions on z^s."""
    points = max(theta_degree(left) + theta_degree(right), theta_degree(product)) + 2
    return all(
        apply_to(product, {s: ONE}) == apply_to(left, apply_to(right, {s: ONE}))
        for s in range(points)
    )


# -- normal form --------------------------------------------------------------------


def real_matrix(m):
    """An ExactMatrix as Fraction rows; None when an entry is not real."""
    rows = []
    for row in m.rows:
        vals = [from_scalar(x) for x in row]
        if any(v[1] for v in vals):
            return None
        rows.append([v[0] for v in vals])
    return rows


def rank(m) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in m]
    rank_ = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank_, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for r in range(len(rows)):
            if r != rank_ and rows[r][col]:
                f = rows[r][col] / rows[rank_][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank_])]
        rank_ += 1
    return rank_


def check_normal_form(spectra, members, u, canon) -> bool:
    """u (n x n) and canon (p members) solve the Levelt normal form.

    canon[k] is the companion of prod (X - v) over spectrum k, u is
    nonsingular, and u A_k = canon[k] u holds for every member.  The
    check never inverts u, so the program's inverse is not trusted.
    """
    n = len(members[0])
    if u is None or len(u) != n or any(len(r) != n for r in u):
        return False
    if len(canon) != len(members):
        return False
    if rank(u) != n:
        return False
    for spectrum, a, c in zip(spectra, members, canon):
        if c != companion(spectrum):
            return False
        if matmul(u, a) != matmul(c, u):
            return False
    return True


def fraction_rows(rows):
    """JSON matrix of scalar strings as Fraction rows; None if not real."""
    out = []
    for row in rows:
        vals = [parse_scalar(x) for x in row]
        if any(v is None or v[1] for v in vals):
            return None
        out.append([v[0] for v in vals])
    return out


def check_normal_form_report(spectra, members, report) -> bool:
    if not isinstance(report, dict):
        return False
    u = fraction_rows(report.get("basis_change", []))
    canon = [fraction_rows(m) for m in report.get("members", [])]
    if any(c is None for c in canon):
        return False
    return check_normal_form(spectra, members, u, canon)


def check_rigidity_report(spectra, members, report) -> bool:
    """A pair with disjoint spectra: irreducible, full algebra, normal form."""
    n, p = len(members[0]), len(members)
    pairs = report.get("pseudo_reflection_pairs")
    expected_pairs = [[i + 1, j + 1] for i in range(p) for j in range(i + 1, p)]
    if [e.get("pair") for e in pairs or []] != expected_pairs:
        return False
    if not all(e.get("value") is True for e in pairs):
        return False
    if report.get("certificate") is not None or report.get("common_frame") is None:
        return False
    if p == 2 and report.get("irreducible") is not True:
        return False
    if report.get("algebra_dimension") != n * n:
        return False
    return check_normal_form_report(spectra, members, report.get("normal_form"))


# -- analyze --------------------------------------------------------------------------


def check_analyze_report(alpha, beta, report) -> bool:
    reducible = any(is_integer(sub(a, b)) for a in alpha for b in beta)
    if report.get("reducible") is not reducible:
        return False
    at_zero = [parse_scalar(x) for x in report.get("exponents", {}).get("at_zero", [])]
    if at_zero != [sub(ONE, b) for b in beta]:
        return False
    factorization = report.get("factorization")
    if reducible:
        return isinstance(factorization, dict) and factorization.get("verified") is True
    return factorization is None


# -- monodromy ------------------------------------------------------------------------


def complex_matrix(rows):
    return np.array([[complex(v[0], v[1]) for v in row] for row in rows], dtype=complex)


def check_monodromy_report(n, tol, report) -> bool:
    """minf m1 m0 = I within tol, and m1 - I has numeric rank one."""
    try:
        m0, m1, minf = (complex_matrix(report[k]) for k in ("m0", "m1", "minf"))
    except (KeyError, TypeError, IndexError):
        return False
    if any(m.shape != (n, n) for m in (m0, m1, minf)):
        return False
    return residual_and_rank_ok(m0, m1, minf, tol)


def residual_and_rank_ok(m0, m1, minf, tol, rank_tol=1e-8) -> bool:
    """The product relation within tol; one singular value of m1 - I
    above rank_tol."""
    n = m0.shape[0]
    residual = float(np.max(np.abs(minf @ m1 @ m0 - np.eye(n))))
    if not residual <= tol:
        return False
    s = np.linalg.svd(m1 - np.eye(n), compute_uv=False)
    return int(np.sum(s > rank_tol)) == 1


# -- counts and verify-identities ---------------------------------------------------


def check_counts_report(grid, report) -> bool:
    if report.get("grid") != grid:
        return False
    entries, equal = [], []
    for n in range(1, grid + 1):
        for s in range(1, grid + 1):
            eq = n * (n * (s - 2) + s) // 2
            mono = n * n * (s - 2) + 1
            rigid = n == 1 or (n, s) == (2, 3)
            if (eq == mono) != rigid:
                raise AssertionError("count formulas disagree with the rigid cases")
            entries.append({"equation": eq, "monodromy": mono, "n": n, "rigid": rigid, "s": s})
            if rigid:
                equal.append([n, s])
    return report.get("entries") == entries and report.get("equal") == equal


def check_identities_report(seed, count, report, kinds) -> bool:
    """The five identities hold for every parameter set."""
    expected = {kind: {"fail": 0, "pass": count} for kind in kinds}
    return (
        report.get("ok") is True
        and report.get("count") == count
        and report.get("seed") == seed
        and report.get("kinds") == expected
    )
