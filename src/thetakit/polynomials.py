"""Univariate polynomials and rational functions over the Gaussian rationals.

Polynomials are stored as ascending coefficient tuples with no trailing
zeros (the zero polynomial is the empty tuple), so equality is structural.
The formal variable is rendered as X.  Rational functions keep a monic
denominator and cancel the gcd on construction.
"""

from .scalars import Q, GaussianRational


def _coeffs(values):
    out = [v if isinstance(v, GaussianRational) else Q(v) for v in values]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class Poly:
    """Dense univariate polynomial.

    >>> Poly([2, -3, 1])
    X^2-3*X+2
    >>> Poly.from_roots([Q(1), Q(2)])
    X^2-3*X+2
    >>> divmod(Poly([2, -3, 1]), Poly([-1, 1]))
    (X-2, 0)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients=()):
        object.__setattr__(self, "coeffs", _coeffs(coefficients))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def variable(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        p = cls([1])
        for r in roots:
            p = p * cls([-Q(r), Q(1)])
        return p

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, GaussianRational)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, GaussianRational)):
            return Poly([other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            [self.coefficient(k) + o.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly()
        out = [Q(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for ia, a in enumerate(self.coeffs):
            if not a:
                continue
            for ib, b in enumerate(o.coeffs):
                out[ia + ib] = out[ia + ib] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Poly([1])
        for _ in range(e):
            result = result * self
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly()
        r = self
        inv_lead = o.leading().inverse()
        while not r.is_zero() and r.degree >= o.degree:
            shift = r.degree - o.degree
            c = r.leading() * inv_lead
            term = Poly([Q(0)] * shift + [c])
            q = q + term
            r = r - term * o
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        inv = self.leading().inverse()
        return Poly([c * inv for c in self.coeffs])

    def derivative(self):
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def shift(self, a):
        """The Taylor shift p(X + a), by repeated synthetic division.

        >>> Poly([0, 0, 1]).shift(1)
        X^2+2*X+1
        """
        if not a:
            return self
        a = Q(a)
        out = list(self.coeffs)
        for i in range(len(out) - 1):
            for k in range(len(out) - 2, i - 1, -1):
                out[k] = out[k] + a * out[k + 1]
        return Poly(out)

    def evaluate(self, x):
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * Q(x) + c
        return acc

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = None
            elif k == 1:
                body = "X"
            else:
                body = "X^%d" % k
            if not c.is_real():
                coef, sign = "(%s)" % c, "+"
            elif c.re < 0:
                coef, sign = str(-c), "-"
            else:
                coef, sign = str(c), "+"
            if body is None:
                text = coef
            elif coef == "1":
                text = body
            else:
                text = "%s*%s" % (coef, body)
            if not pieces:
                pieces.append(text if sign == "+" else "-" + text)
            else:
                pieces.append("%s%s" % (sign, text))
        return "".join(pieces)

    __repr__ = __str__


def poly_gcd(p, q):
    """Monic gcd of two polynomials over the Gaussian rationals.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1]))
    X-1
    >>> poly_gcd(Poly([0, 0, 1]), Poly([1, 1]))
    1
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero():
        r = a % b
        # normalizing each remainder keeps coefficient growth down
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


X = Poly.variable()


class RationalFunction:
    """Quotient of two polynomials; denominator monic, gcd cancelled.

    >>> RationalFunction(Poly([0, 1]), Poly([0, 0, 1]))
    (1)/(X)
    >>> RationalFunction(Poly([1]), Poly([2]))
    (1/2)/(1)
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly([num]) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = Poly([1])
        elif not isinstance(den, Poly):
            den = Poly([den]) if not isinstance(den, (list, tuple)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading().inverse()
            num = num * lead
            den = den * lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den == Poly([1])

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, (int, GaussianRational)):
            return RationalFunction(Poly([other]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__
