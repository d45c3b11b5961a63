"""Generalized hypergeometric operators over the theta ring.

The operator attached to parameter lists alpha = (a_1,..,a_n) and
beta = (b_1,..,b_n) is

    D(alpha; beta) = (t + b_1 - 1)···(t + b_n - 1) - z·(t + a_1)···(t + a_n),

an element of theta-degree n and z-degree 1.  This module computes its
local exponents at 0, 1 and infinity, decides reducibility (some
a_i - b_j an integer), verifies the contiguity identities that move
parameters by integer steps, reduces parameters to a canonical shift
class, and peels first-order left factors off reducible operators with
an exactly checkable certificate chain.  What these read off a parameter
set, its integers over one denominator, the table of the integer
differences a_i - b_j and the chain, is cached on the HGParams.

Index pairs are 0-based throughout this module; presentation layers
that print pairs 1-based do their own conversion.
"""

import operator
from collections import namedtuple
from functools import cached_property

from .polynomials import _int_roots
from .scalars import Q, integer_row
from .theta import ThetaOperator, _from_grid


class HGParams(namedtuple("HGParams", "alpha beta")):
    """Parameter lists (alpha; beta) of equal length n >= 1.

    Callers working with the two-list operator family proper use n >= 2;
    length 1 (and the empty pair) arise internally as the residue of
    factoring first-order pieces off a reducible operator, where
    D(a; b) = (t+b-1) - z(t+a) and D(;) = 1 - z.
    """

    def __new__(cls, alpha, beta):
        alpha, beta = tuple(map(Q, alpha)), tuple(map(Q, beta))
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have the same length")
        return super().__new__(cls, alpha, beta)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: both check
        return cls(*iterable)

    def __reduce__(self):  # copies and pickles carry the fields, not the facts
        return HGParams, tuple(self)

    @property
    def n(self) -> int:
        return len(self.alpha)

    # Facts derived from the (immutable) parameters are kept in the instance
    # dict, so that one run asks each of them once, whatever asks first.

    @cached_property
    def _cleared(self):
        s, re, im = _cleared(self.alpha + self.beta)
        return s, tuple(re), tuple(im)

    @cached_property
    def _gaps(self):
        return _gaps(*self._cleared)

    @cached_property
    def _chain(self):
        return tuple(_factor_chain(self))

    def to_dict(self) -> dict:
        return {
            "alpha": [str(a) for a in self.alpha],
            "beta": [str(b) for b in self.beta],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HGParams":
        lists = {name: data[name] for name in ("alpha", "beta")}
        for name, values in lists.items():
            if not isinstance(values, list):
                raise TypeError("%s must be a JSON array" % name)
        return cls(*(tuple(Q(x) for x in values) for values in lists.values()))

    def __str__(self):
        return "D(%s; %s)" % (
            ",".join(str(a) for a in self.alpha),
            ",".join(str(b) for b in self.beta),
        )


class LocalExponents(namedtuple("LocalExponents", "at_zero at_one at_infinity")):
    """Exponent lists at the three singular points, each of length n."""

    __slots__ = ()


class ReducibilityPartition(
    namedtuple("ReducibilityPartition", "zero positive negative")
):
    """Index pairs (i, j) with alpha_i - beta_j an integer, split by sign.

    zero: difference 0; positive: difference a positive integer;
    negative: difference a negative integer.  Pairs are 0-based.
    """

    __slots__ = ()


def build_D(p: HGParams) -> ThetaOperator:
    """Expanded normal form of D(alpha; beta).

    >>> from thetakit.theta import parse
    >>> build_D(HGParams((0, 0, -2), (1, 1, -1))) == parse("(1-z)*t^2*(t-2)")
    True
    """
    return _D(*p._cleared)


def _cleared(values):
    """integer_row(values), with im a list of zeros when every value is real."""
    s, re, im = integer_row(values)
    return s, re, im or [0] * len(re)


def _D(s, re, im):
    """D(alpha; beta) from _cleared(alpha + beta) = (s, re, im): the roots
    1 - b_j are (s - u - v*i)/s and the roots -a_i (-u - v*i)/s, u + v*i
    the integers of a parameter, and both z-parts are written on the
    operator's integer grid over s^n."""
    n = len(re) // 2
    return _from_grid(s ** n, {
        0: _int_roots(s, [s - u for u in re[n:]], [-v for v in im[n:]]),
        1: _int_roots(s, [-u for u in re[:n]], [-v for v in im[:n]], -1),
    })


def exponents(p: HGParams) -> LocalExponents:
    """Local exponents: 1-b_j at 0; a_i at infinity; 0..n-2 and
    -1 + sum(b_j - a_j) at 1.

    >>> e = exponents(HGParams((0, 0), (1, 1)))
    >>> [str(x) for x in e.at_one]
    ['0', '1']
    """
    shift_sum = Q(-1)
    for a, b in zip(p.alpha, p.beta):
        shift_sum = shift_sum + (b - a)
    at_one = tuple(Q(k) for k in range(p.n - 1)) + (shift_sum,)
    return LocalExponents(
        at_zero=tuple(1 - b for b in p.beta),
        at_one=at_one,
        at_infinity=tuple(p.alpha),
    )


def is_reducible(p: HGParams):
    """(True, (i, j)) for the lexicographically first integer difference
    alpha_i - beta_j, else (False, None).

    >>> is_reducible(HGParams(("5/2", "1/3"), ("1/2", "1/4")))
    (True, (0, 0))
    """
    return (True, min(p._gaps)) if p._gaps else (False, None)


def partition(p: HGParams) -> ReducibilityPartition:
    """Split the integer-difference pairs by the sign of alpha_i - beta_j.

    >>> part = partition(HGParams((1, 2), (1, 5)))
    >>> sorted(part.zero), sorted(part.positive), sorted(part.negative)
    ([(0, 0)], [(1, 0)], [(0, 1), (1, 1)])
    """
    zero, positive, negative = set(), set(), set()
    for pair, d in p._gaps.items():
        (negative if d < 0 else positive if d else zero).add(pair)
    return ReducibilityPartition(frozenset(zero), frozenset(positive), frozenset(negative))


def _gaps(s, re, im):
    """{(i, j): alpha_i - beta_j} over the pairs whose difference is an
    integer, from _cleared(alpha + beta) = (s, re, im): the difference of
    (u + v*i)/s and (u' + v'*i)/s is an integer iff v == v' and s divides
    u - u', and it is then (u - u') // s."""
    n = len(re) // 2
    return {(i, j): (re[i] - re[n + j]) // s
            for i in range(n) for j in range(n)
            if im[i] == im[n + j] and not (re[i] - re[n + j]) % s}


CONTIGUITY_KINDS = (
    "left_append",
    "right_append",
    "alpha_lower",
    "beta_raise",
    "power_shift",
)


def contiguity_check(kind: str, p: HGParams, extra) -> bool:
    """Exact normal-form equality of one contiguity identity.

    kind selects the identity; extra is its datum:

    - left_append, delta:  (t+d-1)·D(a; b) = D(a,d; b,d)
    - right_append, delta: D(a; b)·(t+d) = D(a,d; b,d+1)
    - alpha_lower, index j: D(a; b)·(t+a_j-1) = (t+a_j-1)·D(..a_j-1..; b)
    - beta_raise, index j:  D(a; b)·(t+b_j) = (t+b_j-1)·D(a; ..b_j+1..)
    - power_shift, integer s: D(a; b)·z^s = z^s·D(a+s; b+s)

    An index or shift that is not an int (2.5, Fraction(2), True) is a
    TypeError, and an index outside 0..n-1 an IndexError.  A False return
    signals an implementation bug, not a property of the parameters: the
    identities hold for every parameter set.

    The parameters, with delta, are cleared once to integers u + v*i over
    one denominator (_cleared).  A parameter moves by an integer k as u
    plus k times that denominator, and every operator of the identity is
    built from these integers.

    >>> contiguity_check("power_shift", HGParams(("1/2",), ("1/3",)), -2)
    True
    """
    if kind not in CONTIGUITY_KINDS:
        raise ValueError("unknown contiguity kind %r" % (kind,))
    n, append = p.n, kind.endswith("_append")
    if not append:
        if isinstance(extra, bool):
            raise TypeError("%s takes an int, not %r" % (kind, extra))
        k = operator.index(extra)
        if kind != "power_shift" and not 0 <= k < n:
            raise IndexError("%s index %d is out of range for n = %d" % (kind, k, n))
    s, re, im = _cleared(p.alpha + p.beta + ((Q(extra),) if append else ()))
    D = _D(s, re[:2 * n], im[:2 * n])

    def theta_plus(u, v):  # t + (u + v*i)/s
        return _from_grid(s, {0: ((u, s), (v, 0) if v else None)})

    if kind == "left_append":
        u, v = re.pop(), im.pop()
        lhs = theta_plus(u - s, v) * D
        rhs = _D(s, re[:n] + [u] + re[n:] + [u], im[:n] + [v] + im[n:] + [v])
    elif kind == "right_append":
        u, v = re.pop(), im.pop()
        lhs = D * theta_plus(u, v)
        rhs = _D(s, re[:n] + [u] + re[n:] + [u + s], im[:n] + [v] + im[n:] + [v])
    elif kind == "alpha_lower":
        u, v = re[k], im[k]
        re[k] = u - s
        lhs, rhs = D * theta_plus(u - s, v), theta_plus(u - s, v) * _D(s, re, im)
    elif kind == "beta_raise":
        u, v = re[n + k], im[n + k]
        re[n + k] = u + s
        lhs, rhs = D * theta_plus(u, v), theta_plus(u - s, v) * _D(s, re, im)
    else:  # power_shift
        z = _from_grid(1, {k: ((1,), None)})
        lhs, rhs = D * z, z * _D(s, [u + k * s for u in re], im)
    return lhs == rhs


def canonical_shift_class(p: HGParams) -> HGParams:
    """Representative with every real part reduced to [0, 1) by integer
    shifts.  Defined only when no alpha_i - beta_j is an integer (the
    irreducible case, where integer shifts do not change the operator's
    equivalence class); otherwise raises naming the offending pair
    1-based.

    >>> canonical_shift_class(HGParams(("5/2", "7/3"), ("1/5", "1/7")))
    HGParams(alpha=(1/2, 1/3), beta=(1/5, 1/7))
    """
    reducible, witness = is_reducible(p)
    if reducible:
        raise ValueError("shift class undefined: alpha_%d - beta_%d is an integer"
                         % (witness[0] + 1, witness[1] + 1))
    return HGParams(*((x - x.floor_real() for x in xs) for xs in p))


def greedy_matching(p: HGParams):
    """Disjoint pairs (i, j, m) with m = alpha_i - beta_j a nonnegative
    integer, chosen greedily by increasing m (ties by index order).

    Each alpha index and each beta index is used at most once; later
    candidates touching a used index are skipped rather than re-matched.
    """
    used_i, used_j, chosen = set(), set(), []
    for m, i, j in sorted((m, i, j) for (i, j), m in p._gaps.items() if m >= 0):
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        chosen.append((i, j, m))
    return chosen


def _pair_gap(i: int, j: int, gap: int) -> str:
    """'alpha_i - beta_j = gap', 1-based; the gap is left out past the digit limit."""
    pair = "alpha_%d - beta_%d" % (i + 1, j + 1)
    try:
        return pair + " = %d" % gap
    except ValueError:
        return pair


class FactorStep(
    namedtuple("FactorStep", "pair gap linear_factor left right params_after")
):
    """One link of the factorization chain.

    With P the parameters before the step and P' = params_after, the
    exact identity is

        build_D(P) * right == left * build_D(P'),

    where right = (t+b)(t+b+1)···(t+b+m-1) raises beta_j up to alpha_i
    and left = (t+b-1)···(t+b+m-2) · (t+alpha_i-1).  The recorded
    linear_factor is alpha_i: the rightmost factor of `left` is
    (t + linear_factor - 1).
    """

    __slots__ = ()


def factorization_certificate(p: HGParams):
    """The chain of FactorSteps realizing the greedy factorization: a new
    list of the chain p caches, which verify_certificate(p) checks.

    Raises ValueError starting "no admissible matching" when no
    alpha_i - beta_j is a nonnegative integer; when some difference is a
    negative integer, the message names the first such pair 1-based.
    """
    return list(p._chain)


def _factor_chain(p: HGParams):
    """The chain of factorization_certificate, built on p's cleared integers."""
    (s, re, im), chosen = p._cleared, greedy_matching(p)
    if not chosen:
        if not p._gaps:
            raise ValueError("no admissible matching: no integer difference")
        (i, j), gap = min(p._gaps.items())  # every gap is negative
        raise ValueError("no admissible matching: %s is a negative integer"
                         % _pair_gap(i, j, gap))
    steps = []
    removed_i, removed_j = set(), set()
    for i, j, m in chosen:
        (ua, va), (ub, vb) = (re[i], im[i]), (re[p.n + j], im[p.n + j])
        right = _int_roots(s, [-ub - l * s for l in range(m)], [-vb] * m)
        left = _int_roots(s, [s - ub - l * s for l in range(m)] + [s - ua],
                          [-vb] * m + [-va])
        removed_i.add(i)
        removed_j.add(j)
        after = HGParams(
            tuple(x for k, x in enumerate(p.alpha) if k not in removed_i),
            tuple(x for k, x in enumerate(p.beta) if k not in removed_j),
        )
        steps.append(
            FactorStep(
                pair=(i, j),
                gap=m,
                linear_factor=p.alpha[i],
                left=_from_grid(s ** (m + 1), {0: left}),
                right=_from_grid(s ** m, {0: right}),
                params_after=after,
            )
        )
    return steps


def verify_certificate(p: HGParams) -> bool:
    """Exact expansion check of every link of the factorization chain."""
    D = build_D(p)
    for step in p._chain:  # each step's right-hand D is the next step's left-hand one
        after = build_D(step.params_after)
        if D * step.right != step.left * after:
            return False
        D = after
    return True


AnalysisReport = namedtuple("AnalysisReport", "exponents reducible witness partition"
                            " canonical_class canonical_class_reason factorization verified")


def analysis_report(p: HGParams, max_gap: int) -> AnalysisReport:
    """exponents(p) and what the differences alpha_i - beta_j decide, each
    from its public function on the facts p caches: is_reducible; the
    partition; the canonical shift class, or the reason it is undefined;
    and, for reducible p, the factorization chain with whether its check
    passes (else None).  A gap of the greedy matching past max_gap is a
    ValueError naming its pair, raised before the chain is built; so is a
    reducible p whose integer differences are all negative.
    """
    reducible, witness = is_reducible(p)
    try:
        canonical, reason = canonical_shift_class(p), None
    except ValueError as exc:
        canonical, reason = None, str(exc)
    steps = verified = None
    if reducible:
        for i, j, m in greedy_matching(p):
            if m > max_gap:
                raise ValueError("%s exceeds the factorization gap bound %d"
                                 % (_pair_gap(i, j, m), max_gap))
        steps, verified = factorization_certificate(p), verify_certificate(p)
    return AnalysisReport(exponents(p), reducible, witness, partition(p), canonical,
                          reason, steps, verified)
