"""Generalized hypergeometric operators over the theta ring.

The operator attached to parameter lists alpha = (a_1,..,a_n) and
beta = (b_1,..,b_n) is

    D(alpha; beta) = (t + b_1 - 1)···(t + b_n - 1) - z·(t + a_1)···(t + a_n),

an element of theta-degree n and z-degree 1.  This module computes its
local exponents at 0, 1 and infinity, decides reducibility (some
a_i - b_j an integer), verifies the contiguity identities that move
parameters by integer steps, reduces parameters to a canonical shift
class, and peels first-order left factors off reducible operators with
an exactly checkable certificate chain.

Index pairs are 0-based throughout this module; presentation layers
that print pairs 1-based do their own conversion.
"""

from dataclasses import dataclass, field

from .polynomials import Poly
from .scalars import Q, GaussianRational
from .theta import ThetaOperator


def _scalar_tuple(values) -> tuple:
    return tuple(v if isinstance(v, GaussianRational) else Q(v) for v in values)


@dataclass(frozen=True)
class HGParams:
    """Parameter lists (alpha; beta) of equal length n >= 1.

    Callers working with the two-list operator family proper use n >= 2;
    length 1 (and the empty pair) arise internally as the residue of
    factoring first-order pieces off a reducible operator, where
    D(a; b) = (t+b-1) - z(t+a) and D(;) = 1 - z.
    """

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", _scalar_tuple(self.alpha))
        object.__setattr__(self, "beta", _scalar_tuple(self.beta))
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")

    @property
    def n(self) -> int:
        return len(self.alpha)

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


@dataclass(frozen=True)
class LocalExponents:
    """Exponent lists at the three singular points, each of length n."""

    at_zero: tuple
    at_one: tuple
    at_infinity: tuple


@dataclass(frozen=True)
class ReducibilityPartition:
    """Index pairs (i, j) with alpha_i - beta_j an integer, split by sign.

    zero: difference 0; positive: difference a positive integer;
    negative: difference a negative integer.  Pairs are 0-based.
    """

    zero: frozenset = field(default_factory=frozenset)
    positive: frozenset = field(default_factory=frozenset)
    negative: frozenset = field(default_factory=frozenset)


def build_D(p: HGParams) -> ThetaOperator:
    """Expanded normal form of D(alpha; beta).

    >>> D = build_D(HGParams((0, 0, -2), (1, 1, -1)))
    >>> D == ThetaOperator.parse("(1-z)*t^2*(t-2)")
    True
    """
    return ThetaOperator.from_parts(
        {
            0: Poly.from_roots([1 - b for b in p.beta]),
            1: -Poly.from_roots([-a for a in p.alpha]),
        }
    )


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
    for i, a in enumerate(p.alpha):
        for j, b in enumerate(p.beta):
            if (a - b).is_integer():
                return True, (i, j)
    return False, None


def partition(p: HGParams) -> ReducibilityPartition:
    """Split the integer-difference pairs by the sign of alpha_i - beta_j.

    >>> part = partition(HGParams((1, 2), (1, 5)))
    >>> sorted(part.zero), sorted(part.positive), sorted(part.negative)
    ([(0, 0)], [(1, 0)], [(0, 1), (1, 1)])
    """
    zero, positive, negative = set(), set(), set()
    for i, a in enumerate(p.alpha):
        for j, b in enumerate(p.beta):
            d = a - b
            if not d.is_integer():
                continue
            if not d:
                zero.add((i, j))
            elif d.re > 0:
                positive.add((i, j))
            else:
                negative.add((i, j))
    return ReducibilityPartition(
        frozenset(zero), frozenset(positive), frozenset(negative)
    )


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

    A False return signals an implementation bug, not a property of the
    parameters: the identities hold for every parameter set.

    >>> contiguity_check("power_shift", HGParams(("1/2",), ("1/3",)), -2)
    True
    """
    D = build_D(p)
    if kind == "left_append":
        delta = Q(extra)
        lhs = ThetaOperator.theta_plus(delta - 1) * D
        rhs = build_D(HGParams(p.alpha + (delta,), p.beta + (delta,)))
    elif kind == "right_append":
        delta = Q(extra)
        lhs = D * ThetaOperator.theta_plus(delta)
        rhs = build_D(HGParams(p.alpha + (delta,), p.beta + (delta + 1,)))
    elif kind == "alpha_lower":
        j = int(extra)
        a_j = p.alpha[j]
        lowered = p.alpha[:j] + (a_j - 1,) + p.alpha[j + 1:]
        lhs = D * ThetaOperator.theta_plus(a_j - 1)
        rhs = ThetaOperator.theta_plus(a_j - 1) * build_D(HGParams(lowered, p.beta))
    elif kind == "beta_raise":
        j = int(extra)
        b_j = p.beta[j]
        raised = p.beta[:j] + (b_j + 1,) + p.beta[j + 1:]
        lhs = D * ThetaOperator.theta_plus(b_j)
        rhs = ThetaOperator.theta_plus(b_j - 1) * build_D(HGParams(p.alpha, raised))
    elif kind == "power_shift":
        s = int(extra)
        shifted = HGParams(
            tuple(a + s for a in p.alpha), tuple(b + s for b in p.beta)
        )
        lhs = D * ThetaOperator.z(s)
        rhs = ThetaOperator.z(s) * build_D(shifted)
    else:
        raise ValueError("unknown contiguity kind %r" % (kind,))
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
    red, pair = is_reducible(p)
    if red:
        i, j = pair
        raise ValueError(
            "shift class undefined: alpha_%d - beta_%d is an integer"
            % (i + 1, j + 1)
        )

    def reduce(x):
        return x - x.floor_real()

    return HGParams(
        tuple(reduce(a) for a in p.alpha), tuple(reduce(b) for b in p.beta)
    )


def greedy_matching(p: HGParams):
    """Disjoint pairs (i, j, m) with m = alpha_i - beta_j a nonnegative
    integer, chosen greedily by increasing m (ties by index order).

    Each alpha index and each beta index is used at most once; later
    candidates touching a used index are skipped rather than re-matched.
    """
    part = partition(p)
    candidates = []
    for (i, j) in part.zero | part.positive:
        m = (p.alpha[i] - p.beta[j]).as_int()
        candidates.append((m, i, j))
    candidates.sort()
    used_i, used_j, chosen = set(), set(), []
    for m, i, j in candidates:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        chosen.append((i, j, m))
    return chosen


@dataclass(frozen=True)
class FactorStep:
    """One link of the factorization chain.

    With P the parameters before the step and P' = params_after, the
    exact identity is

        build_D(P) * right == left * build_D(P'),

    where right = (t+b)(t+b+1)···(t+b+m-1) raises beta_j up to alpha_i
    and left = (t+b-1)···(t+b+m-2) · (t+alpha_i-1).  The recorded
    linear_factor is alpha_i: the rightmost factor of `left` is
    (t + linear_factor - 1).
    """

    pair: tuple
    gap: int
    linear_factor: GaussianRational
    left: ThetaOperator
    right: ThetaOperator
    params_after: HGParams


def factorization_certificate(p: HGParams):
    """The chain of FactorSteps realizing the greedy factorization.

    Raises ValueError starting "no admissible matching" when no
    alpha_i - beta_j is a nonnegative integer; when some difference is a
    negative integer, the message names the first such pair 1-based.
    """
    chosen = greedy_matching(p)
    if not chosen:
        negative = sorted(partition(p).negative)
        if not negative:
            raise ValueError("no admissible matching: no integer difference")
        i, j = negative[0]
        raise ValueError(
            "no admissible matching: alpha_%d - beta_%d = %s is a negative "
            "integer" % (i + 1, j + 1, p.alpha[i] - p.beta[j])
        )
    steps = []
    removed_i, removed_j = set(), set()
    for i, j, m in chosen:
        a, b = p.alpha[i], p.beta[j]
        right = Poly.from_roots([-(b + l) for l in range(m)])
        left = Poly.from_roots([1 - b - l for l in range(m)] + [1 - a])
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
                linear_factor=a,
                left=ThetaOperator.from_parts({0: left}),
                right=ThetaOperator.from_parts({0: right}),
                params_after=after,
            )
        )
    return steps


def factor_reducible(p: HGParams):
    """Peel first-order factors off a reducible operator.

    Returns (linear_factors, reduced): parameters a'_k with the left
    factors (t + a'_k - 1) in chain order, and the reduced parameter
    lists with the matched pairs removed.  The exact content of the
    claim is the per-step identity recorded by factorization_certificate.

    >>> factors, reduced = factor_reducible(HGParams(("1/2", "1/3"), (1, "1/3")))
    >>> [str(f) for f in factors], str(reduced)
    (['1/3'], 'D(1/2; 1)')
    """
    steps = factorization_certificate(p)
    return [s.linear_factor for s in steps], steps[-1].params_after


def verify_certificate(p: HGParams) -> bool:
    """Exact expansion check of every link of the factorization chain."""
    return _verify_steps(p, factorization_certificate(p))


def _verify_steps(p: HGParams, steps) -> bool:
    """verify_certificate on a chain already built for p."""
    current = p
    for step in steps:
        lhs = build_D(current) * step.right
        rhs = step.left * build_D(step.params_after)
        if lhs != rhs:
            return False
        current = step.params_after
    return True
