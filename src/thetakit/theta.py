"""The Ore ring of differential operators in theta = z*d/dz.

Elements are kept in the canonical normal form sum_j z^j p_j(t) (t is the
textual name of theta), with z-powers to the left of theta-polynomials p_j.
The ring multiplication is determined by the rewrite rule

    t * z = z*t + z,   equivalently   p(t) z^j = z^j p(t + j),

so the product of normal forms is again a normal form.  Negative z-powers
are allowed (Laurent coefficients); they are what the integer-shift
conjugation z^s needs for s < 0.

Right Euclidean division requires a coefficient *field*, so the division
helpers lift operators to FracThetaOperator, whose theta-coefficients are
rational functions of z and which multiplies by

    t * c(z) = c(z)*t + z*c'(z).

Textual grammar (parse/render): z, t, +, -, *, ^, rational literals and i,
e.g. "(1-z)*t^2*(t-2)".
"""

from math import comb, inf

from .polynomials import Poly, RationalFunction
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

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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

    # -- conversions ---------------------------------------------------------

    def to_frac(self):
        """Lift to rational-function theta-coefficients (for division)."""
        low = min(0, self.z_order)
        nums = {}
        for (j, k), c in self.terms().items():
            nums.setdefault(k, [Q(0)] * (self.z_degree - low + 1))[j - low] = c
        den = Poly([Q(0)] * -low + [Q(1)])
        return FracThetaOperator(
            {k: RationalFunction(Poly(num), den) for k, num in nums.items()}
        )

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
# rational-function coefficients: the division layer
# ---------------------------------------------------------------------------

_Z_POLY = Poly([0, 1])


def _delta(c):
    """The derivation c(z) -> z*c'(z) that theta induces on coefficients."""
    return RationalFunction(_Z_POLY) * c.derivative()


class FracThetaOperator:
    """Operator sum c_k(z) t^k with rational-function coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, RationalFunction):
                    c = RationalFunction(Poly([Q(c)]))
                if k < 0:
                    raise ValueError("negative theta powers are not operators")
                if c:
                    data[int(k)] = c
        object.__setattr__(self, "_coeffs", data)

    def __setattr__(self, name, value):
        raise AttributeError("FracThetaOperator is immutable")

    @classmethod
    def lift(cls, op):
        if isinstance(op, FracThetaOperator):
            return op
        o = _coerce_theta(op)
        if o is None:
            raise TypeError("cannot lift %r" % (op,))
        return o.to_frac()

    def coefficients(self):
        return dict(self._coeffs)

    def is_zero(self):
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    @property
    def theta_degree(self):
        return max(self._coeffs, default=-inf)

    def leading(self):
        if not self._coeffs:
            raise ValueError("zero operator has no leading coefficient")
        return self._coeffs[max(self._coeffs)]

    def __eq__(self, other):
        try:
            o = FracThetaOperator.lift(other)
        except TypeError:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __add__(self, other):
        o = FracThetaOperator.lift(other)
        data = dict(self._coeffs)
        for k, c in o._coeffs.items():
            s = data.get(k, RationalFunction(Poly())) + c
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        return FracThetaOperator(data)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-FracThetaOperator.lift(other))

    def __rsub__(self, other):
        return FracThetaOperator.lift(other) + (-self)

    def __neg__(self):
        return FracThetaOperator({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        o = FracThetaOperator.lift(other)
        data = {}
        for k, a in self._coeffs.items():
            for l, b in o._coeffs.items():
                # t^k b(z) = sum_i C(k,i) delta^(k-i)(b) t^i
                derived = b
                contributions = [(k, derived)]
                for step in range(1, k + 1):
                    derived = _delta(derived)
                    contributions.append((k - step, derived))
                for i, d in contributions:
                    if not d:
                        continue
                    c = a * d * comb(k, i)
                    key = i + l
                    s = data.get(key, RationalFunction(Poly())) + c
                    if s:
                        data[key] = s
                    else:
                        data.pop(key, None)
        return FracThetaOperator(data)

    def __rmul__(self, other):
        return FracThetaOperator.lift(other) * self

    def scale(self, c):
        """Left multiplication by a rational function (coefficient-wise)."""
        if not isinstance(c, RationalFunction):
            c = RationalFunction(Poly([Q(c)]))
        return FracThetaOperator({k: c * v for k, v in self._coeffs.items()})

    def monic(self):
        return self.scale(self.leading().inverse())

    def as_theta(self):
        """Convert back to Laurent-polynomial form.

        Only possible when every denominator is a power of z; raises
        ValueError otherwise.
        """
        terms = {}
        for k, c in self._coeffs.items():
            den = c.den
            # denominator must be exactly z^m
            m = den.degree
            if den != Poly([Q(0)] * m + [Q(1)]):
                raise ValueError("coefficient %s is not Laurent in z" % (c,))
            for j, coef in enumerate(c.num.coeffs):
                if coef:
                    terms[(j - m, k)] = terms.get((j - m, k), Q(0)) + coef
        return ThetaOperator(terms)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs, reverse=True):
            parts.append("[%s]*%s" % (self._coeffs[k], _power_text("t", k) if k else "1"))
        return " + ".join(parts)

    __repr__ = __str__


def right_divide(p, d):
    """Right Euclidean division: p = quotient*d + remainder.

    The remainder has strictly smaller theta-degree than d.  Inputs may be
    ThetaOperator or FracThetaOperator; results are FracThetaOperator (use
    .as_theta() when the coefficients are Laurent).

    >>> t = ThetaOperator.theta()
    >>> q, r = right_divide(t**2, t)
    >>> q == t and r.is_zero()
    True
    """
    dd = FracThetaOperator.lift(d)
    if dd.is_zero():
        raise ZeroDivisionError("right division by the zero operator")
    r = FracThetaOperator.lift(p)
    q = FracThetaOperator()
    lead_inv = dd.leading().inverse()
    deg_d = dd.theta_degree
    while not r.is_zero() and r.theta_degree >= deg_d:
        shift = r.theta_degree - deg_d
        c = r.leading() * lead_inv
        term = FracThetaOperator({shift: c})
        q = q + term
        r = r - term * dd
    return q, r


def right_gcd(p, q):
    """Monic right gcd via Euclidean iteration of right_divide.

    >>> t = ThetaOperator.theta()
    >>> right_gcd(t*(t-1), t-1) == t-1
    True
    >>> right_gcd(t**2, t+1) == ThetaOperator.one()
    True
    """
    a = FracThetaOperator.lift(p)
    b = FracThetaOperator.lift(q)
    if a.is_zero() and b.is_zero():
        raise ValueError("right gcd of two zero operators is undefined")
    if a.theta_degree < b.theta_degree:
        a, b = b, a
    while not b.is_zero():
        _, r = right_divide(a, b)
        a, b = b, r
    return a.monic()


def left_factor_check(p, f):
    """Return q with p = f*q when f left-divides p in the polynomial ring.

    Decision by an exact linear solve on coefficients: the z-support of a
    product is the sumset of the factors' supports, so the quotient's
    degrees are forced.  Quotients with negative z-powers are rejected
    (divisibility is meant in C[z][t]), so e.g. z does not left-divide t.
    Returns None when no quotient exists.

    >>> t, z = ThetaOperator.theta(), ThetaOperator.z()
    >>> left_factor_check((1 - z) * t**2, 1 - z) == t**2
    True
    >>> left_factor_check(t, z) is None
    True
    """
    f = _coerce_theta(f)
    if f is None or f.is_zero():
        raise ValueError("left factor must be a nonzero operator")
    p = _coerce_theta(p)
    if p is None:
        raise TypeError("expected a theta operator")
    if p.is_zero():
        return ThetaOperator.zero()
    kq = p.theta_degree - f.theta_degree
    j_lo = p.z_order - f.z_order
    j_hi = p.z_degree - f.z_degree
    if kq < 0 or j_lo < 0 or j_hi < j_lo:
        return None
    unknowns = [(j, k) for j in range(j_lo, j_hi + 1) for k in range(kq + 1)]
    # column for each unknown monomial, rows over the union of positions
    images = [f * ThetaOperator({u: Q(1)}) for u in unknowns]
    positions = set(p.terms())
    for img in images:
        positions.update(img.terms())
    positions = sorted(positions)
    from .linalg import ExactMatrix

    matrix = ExactMatrix(
        [[img.coefficient(*pos) for img in images] for pos in positions]
    )
    rhs = [p.coefficient(*pos) for pos in positions]
    solution = matrix.solve(rhs)
    if solution is None:
        return None
    q = ThetaOperator({u: c for u, c in zip(unknowns, solution)})
    return q if f * q == p else None
