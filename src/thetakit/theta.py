"""The Ore ring of differential operators in theta = z*d/dz.

Elements are kept in the canonical normal form sum_j z^j p_j(t) (t is the
textual name of theta), with z-powers to the left of theta-polynomials p_j.
The ring multiplication is determined by the rewrite rule

    t * z = z*t + z,   equivalently   p(t) z^j = z^j p(t + j),

so the product of normal forms is again a normal form.  Negative z-powers
are allowed (Laurent coefficients); they are what the integer-shift
conjugation z^s needs for s < 0.

An operator is stored as polynomials.Poly is, one level up: one
denominator for the whole operator and integer coefficients per z-power.
That grid is its only representation.  Products and sums run on these
integers, with Poly's kernels, and leave them unreduced; an operator is
reduced once, when it is first hashed, read, or compared with an
operator over another denominator (see ThetaOperator), and is read as
scalars, not Polys.  Only the division routines build Polys, in z.

The ring is therefore C[z, 1/z][t], and division stays in it, with no
linear system to solve: right_divide is a pseudo-division, c*p = q*d + r
with c a power of d's leading theta-coefficient; right_gcd runs Euclid on
primitive pseudo-remainders; left_factor_check divides on the left, the
leading theta-coefficient of each quotient term an exact quotient of
Laurent polynomials in z.

Textual grammar (parse/render): z, t, +, -, *, ^, rational literals and i,
e.g. "(1-z)*t^2*(t-2)".
"""

import operator
import re
from functools import reduce
from math import gcd, inf, lcm

from .polynomials import (Poly, _convolve, _lincomb, _taylor, _trim, poly_gcd, power_text,
                          render_terms)
from .scalars import Q, GaussianRational, _power, integer_row, rational_row


class ThetaOperator:
    """Normal-form operator sum_j z^j p_j(t), stored on one integer grid.

    den is one positive integer for the whole operator; grid maps each
    z-power j to (re, im), the ascending integer coefficients of the real
    and imaginary parts of den*p_j, im None when p_j is real.  Products and
    sums leave the grid unreduced, in lists.  The first hash or read, or a
    comparison with an operator over another denominator, reduces it once,
    in place: zero parts and trailing zeros dropped, a zero im made None,
    den and the entries divided by their gcd, lists made tuples.  Equality
    and hashing are then structural.  Two operators over one denominator
    are equal exactly when their grids are, trailing zeros and zero parts
    aside, so that comparison reduces neither.  The grid is the only
    state: terms and coefficients are read off it as scalars.

    The ring rule z^j p(t) · z^l q(t) = z^(j+l) p(t+l) q(t) makes the
    product one Taylor shift and one convolution per pair of z-parts,
    summed per z-power over the product of the two denominators.

    >>> t, z = ThetaOperator.theta(), ThetaOperator.z()
    >>> t * z
    z*t + z
    >>> (t + 4) * z
    z*t + 5*z
    >>> parse("(1-z)*t^2*(t-2)") == t**2*(t-2) - z*t**2*(t-2)
    True
    """

    __slots__ = ("den", "grid", "_reduced")

    def __init__(self, terms=None):
        terms, keys, width = terms or {}, [], {}
        for j, k in terms:
            if isinstance(j, bool) or isinstance(k, bool):
                raise TypeError("a power is an int, not a bool")
            j, k = operator.index(j), operator.index(k)  # 1.5 is not a power
            if k < 0:
                raise ValueError("negative theta powers are not operators")
            keys.append((j, k))
            width[j] = max(width.get(j, 0), k + 1)
        den, re, im = integer_row([Q(c) for c in terms.values()])  # cleared once
        grid = {j: ([0] * n, im and [0] * n) for j, n in width.items()}
        for (j, k), x, y in zip(keys, re, im or re):
            grid[j][0][k] = x
            if im:
                grid[j][1][k] = y
        _set(self, den, grid)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaOperator is immutable")

    def __reduce__(self):
        return _from_grid, (self.den, self.grid)

    def _reduce(self):
        """The operator itself, its grid reduced in place on the first call."""
        if not self._reduced:
            grid, g = _trimmed(self.grid), self.den
            for re, im in grid.values():
                g = gcd(g, *re, *(im or ()))
            if g != 1:
                grid = {j: (tuple([x // g for x in re]), im and tuple([x // g for x in im]))
                        for j, (re, im) in grid.items()}
            _set(self, self.den // g, grid, True)
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): Q(1)})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): Q(c)})

    @classmethod
    def z(cls, power=1):
        return cls({(power, 0): Q(1)})

    @classmethod
    def theta(cls, power=1):
        return cls({(0, power): Q(1)})

    @classmethod
    def theta_plus(cls, c):
        """The first-order factor t + c."""
        return cls({(0, 1): Q(1), (0, 0): Q(c)})

    # -- structure -----------------------------------------------------------

    def terms(self):
        """Copy of the term map {(z_degree, theta_degree): coefficient}."""
        op = self._reduce()
        return {(j, k): c for j, (re, im) in op.grid.items()
                for k, c in enumerate(rational_row(re, op.den, im)) if c}

    def is_zero(self):
        return not self

    def __bool__(self):
        return bool(self._reduce().grid)

    @property
    def theta_degree(self):
        """Largest theta power; -inf for the zero operator."""
        return max((len(re) - 1 for re, _ in self._reduce().grid.values()), default=-inf)

    @property
    def z_degree(self):
        """Largest z power; -inf for the zero operator."""
        return max(self._reduce().grid, default=-inf)

    @property
    def z_order(self):
        """Smallest z power; +inf for the zero operator."""
        return min(self._reduce().grid, default=inf)

    def coefficient(self, z_power, theta_power):
        re, im = self._reduce().grid.get(z_power, ((), None))
        if not 0 <= theta_power < len(re):
            return Q(0)
        return rational_row([re[theta_power]], self.den, im and [im[theta_power]])[0]

    def __eq__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:  # over one denominator the trimmed grids decide
            return _trimmed(self.grid) == _trimmed(o.grid)
        a, b = self._reduce(), o._reduce()
        return a.den == b.den and a.grid == b.grid

    def __hash__(self):
        if self._reduce().grid.keys() <= {0} and self.theta_degree <= 0:  # as the equal scalar
            return hash(self.coefficient(0, 0))
        return hash((self.den, frozenset(self.grid.items())))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other, sign=1):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        a, b, zero = den // self.den, sign * (den // o.den), ((), None)
        return _from_grid(den, {j: _lincomb(self.grid.get(j, zero), o.grid.get(j, zero), a, b)
                                for j in self.grid.keys() | o.grid.keys()})

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _from_grid(self.den, {j: ([-x for x in re], im and [-x for x in im])
                                     for j, (re, im) in self.grid.items()})

    def __mul__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        grid = {}
        for l, (qr, qi) in o.grid.items():
            for j, (pr, pi) in self.grid.items():
                if l:  # p(t + l)
                    pr, pi = _taylor(pr, l), pi and _taylor(pi, l)
                part = _convolve(pr, pi, qr, qi)
                grid[j + l] = _lincomb(grid[j + l], part) if j + l in grid else part
        return _from_grid(self.den * o.den, grid)

    def __rmul__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, e):
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError("operator exponent must be an int")
        if e < 0:
            # only single-term z-monomials are invertible in the Laurent ring
            j = self.z_order
            if j == self.z_degree and self.theta_degree == 0:  # one theta-free z-part
                return ThetaOperator({(j * e, 0): self.coefficient(j, 0) ** e})
            raise ValueError("negative power of a non-invertible operator")
        return _power(self, e, ThetaOperator.one())

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render(self)

    __repr__ = __str__


_new = object.__new__
_set_den, _set_grid, _set_reduced = (
    getattr(ThetaOperator, name).__set__ for name in ThetaOperator.__slots__)


def _set(op, den, grid, reduced=False):
    _set_den(op, den)
    _set_grid(op, grid)
    _set_reduced(op, reduced)


def _from_grid(den, grid):
    """The operator of the grid {z_power: (re, im)} over den > 0, taken as
    it is: its lists are never changed, and it is reduced when first read."""
    op = _new(ThetaOperator)
    _set(op, den, grid)
    return op


def _trimmed(grid):
    """The grid with each part trimmed as polynomials._trim does and the
    zero parts dropped."""
    parts = ((j, _trim(re, im)) for j, (re, im) in grid.items())
    return {j: part for j, part in parts if part[0]}


def _coerce_theta(x):
    if isinstance(x, ThetaOperator):
        return x
    if isinstance(x, (int, GaussianRational)):
        return ThetaOperator.constant(int(x) if isinstance(x, bool) else x)
    return None


# ---------------------------------------------------------------------------
# rendering / parsing
# ---------------------------------------------------------------------------


def render(op):
    """Canonical text form: terms by falling theta power, then rising z power."""
    terms = op.terms()
    return render_terms(
        ((terms[jk], "*".join(power_text(s, e) for s, e in zip("zt", jk) if e))
         for jk in sorted(terms, key=lambda jk: (-jk[1], jk[0]))),
        " ",
    )


_LITERAL = re.compile(r"\d+(?:/\d+)?")  # an unsigned rational, as in scalars
MAX_NESTING = 100  # parentheses; each level takes four parser frames


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        literal = _LITERAL.match(self.text, self.pos)
        if literal:
            return ("number", literal.group())
        ch = self.text[self.pos]
        if ch in "+-*^()zti":
            return (ch, ch)
        raise ValueError("unexpected character %r at position %d" % (ch, self.pos))

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += len(tok[1])
        return tok


def parse(text):
    """Parse the operator grammar: z, t, +, -, *, ^, rational literals, i.
    Parentheses nested deeper than MAX_NESTING are a ValueError.

    >>> parse("t*z") == ThetaOperator.z() * (ThetaOperator.theta() + 1)
    True
    >>> parse("(1-z)*t^2*(t-2)").theta_degree
    3
    """
    tk = _Tokenizer(text)

    def parse_expr():
        node = parse_term()
        while True:
            tok = tk.peek()
            if tok and tok[0] in "+-":
                tk.next()
                rhs = parse_term()
                node = node + rhs if tok[0] == "+" else node - rhs
            else:
                return node

    def parse_term():
        negate = False
        while True:
            tok = tk.peek()
            if tok and tok[0] == "-":
                tk.next()
                negate = not negate
            elif tok and tok[0] == "+":
                tk.next()
            else:
                break
        node = parse_factor()
        while True:
            tok = tk.peek()
            if tok and tok[0] == "*":
                tk.next()
                node = node * parse_factor()
            else:
                break
        return -node if negate else node

    def parse_factor():
        base = parse_atom()
        tok = tk.peek()
        if tok and tok[0] == "^":
            tk.next()
            sign = 1
            tok = tk.peek()
            if tok and tok[0] == "-":
                tk.next()
                sign = -1
            tok = tk.next()
            if tok[0] != "number" or "/" in tok[1]:
                raise ValueError("exponent must be an integer")
            return base ** (sign * int(tok[1]))
        return base

    def parse_atom():
        tok = tk.next()
        if tok[0] == "number":
            return ThetaOperator.constant(Q(tok[1]))
        if tok[0] == "i":
            return ThetaOperator.constant(Q(0, 1))
        if tok[0] == "z":
            return ThetaOperator.z()
        if tok[0] == "t":
            return ThetaOperator.theta()
        if tok[0] == "(":
            tk.depth += 1
            if tk.depth > MAX_NESTING:
                raise ValueError("parentheses nested deeper than %d at position %d"
                                 % (MAX_NESTING, tk.pos - 1))
            node = parse_expr()
            closing = tk.next()
            if closing[0] != ")":
                raise ValueError("expected ')'")
            tk.depth -= 1
            return node
        raise ValueError("unexpected token %r" % (tok[1],))

    node = parse_expr()
    if tk.peek() is not None:
        raise ValueError("trailing input at position %d" % tk.pos)
    return node


# ---------------------------------------------------------------------------
# division: fraction-free, in the ring itself
# ---------------------------------------------------------------------------


def _as_operator(x):
    o = _coerce_theta(x)
    if o is None:
        raise TypeError("expected a theta operator, got %r" % (x,))
    return o


def _leading(op):
    """The theta-free leading coefficient sum_j z^j c_(j, k), k = theta_degree."""
    k = op.theta_degree
    return ThetaOperator({(j, 0): c for (j, kk), c in op.terms().items() if kk == k})


def _in_z(op):
    """{k: the theta^k coefficient of op over z^z_order, as a Poly in z}."""
    rows, low = {}, op.z_order
    for (j, k), c in op.terms().items():
        rows.setdefault(k, {})[j - low] = c
    return {k: Poly([row.get(j, 0) for j in range(max(row) + 1)]) for k, row in rows.items()}


def _primitive(op):
    """op divided on the left by the gcd of its theta-coefficients, taken
    as polynomials in z: z-order 0 and a monic leading theta-coefficient."""
    if not op:
        return op
    coeffs = _in_z(op)
    g = reduce(poly_gcd, coeffs.values())
    g = g * (coeffs[max(coeffs)] // g).leading()
    return ThetaOperator({(j, k): c for k, f in coeffs.items()
                          for j, c in enumerate((f // g).coeffs)})


def right_divide(p, d):
    """Right pseudo-division: (c, q, r) with c*p == q*d + r.

    c is theta-free, a power of d's leading theta-coefficient (1 when d is
    monic in theta), and r has smaller theta-degree than d.  Each step
    multiplies through by that coefficient instead of dividing by it, so
    everything stays in C[z, 1/z][t].

    >>> t, z = ThetaOperator.theta(), ThetaOperator.z()
    >>> right_divide(t**2, t)
    (1, t, 0)
    >>> c, q, r = right_divide(t**2, z*t + 1)
    >>> c, c*t**2 == q*(z*t + 1) + r
    (z^2, True)
    """
    p, d = _as_operator(p), _as_operator(d)
    if d.is_zero():
        raise ZeroDivisionError("right division by the zero operator")
    lead = _leading(d)
    c, q, r = ThetaOperator.one(), ThetaOperator.zero(), p
    while r.theta_degree >= d.theta_degree:
        term = _leading(r) * ThetaOperator.theta(r.theta_degree - d.theta_degree)
        c, q, r = lead * c, lead * q + term, lead * r - term * d
    return c, q, r


def right_gcd(p, q):
    """Primitive right gcd: Euclid on pseudo-remainders, each reduced to
    its primitive part.  The result has z-order 0 and a monic leading
    theta-coefficient, which makes it unique.

    >>> t = ThetaOperator.theta()
    >>> right_gcd(t*(t-1), t-1) == t-1
    True
    >>> right_gcd(t**2, t+1) == ThetaOperator.one()
    True
    """
    a, b = _as_operator(p), _as_operator(q)
    if a.is_zero() and b.is_zero():
        raise ValueError("right gcd of two zero operators is undefined")
    if a.theta_degree < b.theta_degree:
        a, b = b, a
    while b:
        a, b = b, _primitive(right_divide(a, b)[2])
    return _primitive(a)


def _laurent_quotient(a, b):
    """a/b for theta-free a and nonzero b when it is a Laurent polynomial
    in z, else None."""
    q, r = divmod(_in_z(a)[0], _in_z(b)[0])
    if r:
        return None
    low = a.z_order - b.z_order
    return ThetaOperator({(low + j, 0): c for j, c in enumerate(q.coeffs)})


def left_factor_check(p, f):
    """Return q with p = f*q when f left-divides p in C[z][t], else None.

    Exact left division in C[z, 1/z][t], the mirror of right_divide: the
    leading theta-coefficient of f*q is lead(f)*lead(q), so each step takes
    the next term of q as lead(r)/lead(f), a quotient of Laurent
    polynomials in z, times a power of theta.  No such quotient, a
    negative z-power in q (divisibility is meant in C[z][t], so e.g. z
    does not left-divide t) or a nonzero remainder gives None.

    >>> t, z = ThetaOperator.theta(), ThetaOperator.z()
    >>> left_factor_check((1 - z) * t**2, 1 - z) == t**2
    True
    >>> left_factor_check(t, z) is None
    True
    """
    r, f = _as_operator(p), _as_operator(f)
    if f.is_zero():
        raise ValueError("left factor must be a nonzero operator")
    lead = _leading(f)
    q = ThetaOperator.zero()
    while r.theta_degree >= f.theta_degree:
        c = _laurent_quotient(_leading(r), lead)
        if c is None or c.z_order < 0:
            return None
        term = c * ThetaOperator.theta(r.theta_degree - f.theta_degree)
        q, r = q + term, r - f * term
    return None if r else q
