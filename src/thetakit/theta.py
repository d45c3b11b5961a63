"""The Ore ring of differential operators in theta = z*d/dz.

Elements are kept in the canonical normal form sum_j z^j p_j(t) (t is the
textual name of theta), with z-powers to the left of theta-polynomials p_j.
The ring multiplication is determined by the rewrite rule

    t * z = z*t + z,   equivalently   p(t) z^j = z^j p(t + j),

so the product of normal forms is again a normal form.  Negative z-powers
are allowed (Laurent coefficients); they are what the integer-shift
conjugation z^s needs for s < 0.

The ring is therefore C[z, 1/z][t], and division stays in it, with no
linear system to solve: right_divide is a pseudo-division, c*p = q*d + r
with c a power of d's leading theta-coefficient; right_gcd runs Euclid on
primitive pseudo-remainders; left_factor_check divides on the left, the
leading theta-coefficient of each quotient term an exact quotient of
Laurent polynomials in z.

Textual grammar (parse/render): z, t, +, -, *, ^, rational literals and i,
e.g. "(1-z)*t^2*(t-2)".
"""

from functools import reduce
from math import inf

from .polynomials import Poly, poly_gcd
from .scalars import Q, GaussianRational


class ThetaOperator:
    """Normal-form operator sum_j z^j p_j(t), each p_j a Poly in theta.

    The ring rule z^j p(t) · z^l q(t) = z^(j+l) p(t+l) q(t) makes the
    product one Taylor shift and one polynomial product per pair of
    z-parts.

    >>> t, z = ThetaOperator.theta(), ThetaOperator.z()
    >>> t * z
    z*t + z
    >>> (t + 4) * z
    z*t + 5*z
    >>> ThetaOperator.parse("(1-z)*t^2*(t-2)") == t**2*(t-2) - z*t**2*(t-2)
    True
    """

    __slots__ = ("_parts",)

    def __init__(self, terms=None):
        rows = {}
        for (j, k), c in (terms or {}).items():
            if k < 0:
                raise ValueError("negative theta powers are not operators")
            rows.setdefault(int(j), {})[int(k)] = c
        parts = {
            j: Poly([row.get(k, 0) for k in range(max(row) + 1)])
            for j, row in rows.items()
        }
        object.__setattr__(self, "_parts", {j: p for j, p in parts.items() if p})

    def __setattr__(self, name, value):
        raise AttributeError("ThetaOperator is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_parts(cls, parts):
        """The operator sum_j z^j parts[j](t) from {z_power: Poly in theta}.

        >>> ThetaOperator.from_parts({0: Poly([0, 1]), 1: Poly([1])})
        t + z
        """
        op = object.__new__(cls)
        object.__setattr__(op, "_parts", {j: p for j, p in parts.items() if p})
        return op

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
        return cls({(int(power), 0): Q(1)})

    @classmethod
    def theta(cls, power=1):
        return cls({(0, int(power)): Q(1)})

    @classmethod
    def theta_plus(cls, c):
        """The first-order factor t + c."""
        return cls({(0, 1): Q(1), (0, 0): Q(c)})

    @classmethod
    def monomial(cls, coefficient, z_power=0, theta_power=0):
        return cls({(int(z_power), int(theta_power)): Q(coefficient)})

    # -- structure -----------------------------------------------------------

    def terms(self):
        """Copy of the term map {(z_degree, theta_degree): coefficient}."""
        return {
            (j, k): c
            for j, p in self._parts.items()
            for k, c in enumerate(p.coeffs)
            if c
        }

    def is_zero(self):
        return not self._parts

    def __bool__(self):
        return bool(self._parts)

    @property
    def theta_degree(self):
        """Largest theta power; -inf for the zero operator."""
        return max((p.degree for p in self._parts.values()), default=-inf)

    @property
    def z_degree(self):
        """Largest z power; -inf for the zero operator."""
        return max(self._parts, default=-inf)

    @property
    def z_order(self):
        """Smallest z power; +inf for the zero operator."""
        return min(self._parts, default=inf)

    def coefficient(self, z_power, theta_power):
        p = self._parts.get(z_power)
        return p.coefficient(theta_power) if p is not None else Q(0)

    def __eq__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return self._parts == o._parts

    def __hash__(self):
        return hash(frozenset(self._parts.items()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        parts = dict(self._parts)
        for j, p in o._parts.items():
            parts[j] = parts[j] + p if j in parts else p
        return ThetaOperator.from_parts(parts)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return ThetaOperator.from_parts({j: -p for j, p in self._parts.items()})

    def __mul__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        parts = {}
        for j, p in self._parts.items():
            for l, q in o._parts.items():
                term = p.shift(l) * q
                parts[j + l] = parts[j + l] + term if j + l in parts else term
        return ThetaOperator.from_parts(parts)

    def __rmul__(self, other):
        o = _coerce_theta(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("operator exponent must be an int")
        if e < 0:
            # only single-term z-monomials are invertible in the Laurent ring
            if len(self._parts) == 1:
                (j, p), = self._parts.items()
                if p.degree == 0:
                    return ThetaOperator({(j * e, 0): p.leading() ** e})
            raise ValueError("negative power of a non-invertible operator")
        result = ThetaOperator.one()
        for _ in range(e):
            result = result * self
        return result

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render(self)

    __repr__ = __str__

    @classmethod
    def parse(cls, text):
        return parse(text)


def _coerce_theta(x):
    if isinstance(x, ThetaOperator):
        return x
    if isinstance(x, (int, GaussianRational)):
        return ThetaOperator.constant(x)
    return None


# ---------------------------------------------------------------------------
# rendering / parsing
# ---------------------------------------------------------------------------


def _power_text(sym, e):
    if e == 1:
        return sym
    return "%s^%d" % (sym, e)


def render(op):
    """Canonical text form: terms by falling theta power, then rising z power."""
    terms = op.terms()
    if not terms:
        return "0"
    pieces = []
    for (j, k) in sorted(terms, key=lambda jk: (-jk[1], jk[0])):
        c = terms[(j, k)]
        factors = []
        if j != 0:
            factors.append(_power_text("z", j))
        if k != 0:
            factors.append(_power_text("t", k))
        if not c.is_real():
            sign, coef = "+", "(%s)" % c
        elif c.re < 0:
            sign, coef = "-", str(-c)
        else:
            sign, coef = "+", str(c)
        if factors and coef == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([coef] + factors)
        else:
            body = coef
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append("%s %s" % (sign, body))
    return " ".join(pieces)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isdigit():
            end = self.pos
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            if end < len(self.text) and self.text[end] == "/":
                end += 1
                if end >= len(self.text) or not self.text[end].isdigit():
                    raise ValueError("malformed rational literal")
                while end < len(self.text) and self.text[end].isdigit():
                    end += 1
            return ("number", self.text[self.pos:end])
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
            node = parse_expr()
            closing = tk.next()
            if closing[0] != ")":
                raise ValueError("expected ')'")
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
    return {
        k: Poly([row.get(j, 0) for j in range(max(row) + 1)])
        for k, row in rows.items()
    }


def _primitive(op):
    """op divided on the left by the gcd of its theta-coefficients, taken
    as polynomials in z: z-order 0 and a monic leading theta-coefficient."""
    if not op:
        return op
    coeffs = _in_z(op)
    g = reduce(poly_gcd, coeffs.values())
    g = g * (coeffs[max(coeffs)] // g).leading()
    return ThetaOperator(
        {(j, k): c for k, f in coeffs.items() for j, c in enumerate((f // g).coeffs)}
    )


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
    f = _coerce_theta(f)
    if f is None or f.is_zero():
        raise ValueError("left factor must be a nonzero operator")
    lead = _leading(f)
    q, r = ThetaOperator.zero(), _as_operator(p)
    while r.theta_degree >= f.theta_degree:
        c = _laurent_quotient(_leading(r), lead)
        if c is None or c.z_order < 0:
            return None
        term = c * ThetaOperator.theta(r.theta_degree - f.theta_degree)
        q, r = q + term, r - f * term
    return None if r else q
