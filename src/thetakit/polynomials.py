"""Univariate polynomials over the Gaussian rationals.

Polynomials are stored as ascending coefficient tuples with no trailing
zeros (the zero polynomial is the empty tuple), so equality is structural.
The formal variable is rendered as X.

Products, shifts and from_roots clear denominators once: they run on the
integer numerators of the parts over one denominator (scalars.integer_row),
a product through one convolution kernel, and divide by it once at the end
(scalars.rational_row).  poly_gcd of real operands runs on integers too, a
primitive pseudo-remainder sequence; Gaussian ones keep Euclid's loop.
"""

from math import gcd

from .scalars import ZERO, Q, GaussianRational, _product, integer_row, rational_row


def _convolve(a, b):
    """[u*v], u*v the product of the integer coefficient lists in
    a = [u] and b = [v]: one-row lists, the rows that _product combines."""
    (u,), (v,) = a, b
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return [out]


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

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def variable(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        """The product of X - r over the n roots: with s the lcm of their
        denominators and w = s*r, the integer product of s*X - w over s^n."""
        s, us, vs = integer_row([Q(r) for r in roots])
        re, im = [1], ([0] if vs else None)
        for k, u in enumerate(us):
            lo, hi = re + [0], [0] + re
            if vs:  # (a + b*i)(s*X - u - v*i), a + b*i the coefficients so far
                v, lo_im, hi_im = vs[k], im + [0], [0] + im
                im = [s * h - u * b - v * a for h, a, b in zip(hi_im, lo, lo_im)]
                re = [s * h - u * a + v * b for h, a, b in zip(hi, lo, lo_im)]
            else:
                re = [s * h - u * a for h, a in zip(hi, lo)]
        return cls(rational_row(re, s ** len(us), im))

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
        (s, a, ai), (t, b, bi) = integer_row(self.coeffs), integer_row(o.coeffs)
        (re,), im = _product(_convolve, [a], ai and [ai], [b], bi and [bi])
        return Poly(rational_row(re, s * t, im and im[0]))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Poly([1])
        for _ in range(e):
            result = result * self
        return result

    def __divmod__(self, other):
        """The unique (q, r) with self = q*other + r and deg r < deg other,
        by long division on one list of remainder coefficients.

        >>> divmod(Poly([1, 0, 0, 2]), Poly([1, 1]))
        (2*X^2-2*X+2, -1)
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, m = o.coeffs, o.degree
        r = list(self.coeffs)
        q = [ZERO] * max(len(r) - m, 0)
        inv_lead = d[m].inverse()
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = r.pop() * inv_lead  # clears the top term of r
            if c:
                r[k : k + m] = [a - c * b for a, b in zip(r[k : k + m], d)]
        return Poly(q), Poly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        inv = self.leading().inverse()
        return Poly([c * inv for c in self.coeffs])

    def shift(self, l):
        """The Taylor shift p(X + l) by an integer l, by repeated synthetic
        division on the integer numerators over their lcm.

        >>> Poly([0, 0, 1]).shift(1)
        X^2+2*X+1
        """
        if not isinstance(l, int):
            raise TypeError("shift takes an int, not %r" % (l,))
        if not l:
            return self
        s, re, im = integer_row(self.coeffs)
        for part in (re,) if im is None else (re, im):
            for i in range(len(part) - 1):
                for k in range(len(part) - 2, i - 1, -1):
                    part[k] += l * part[k + 1]
        return Poly(rational_row(re, s, im))

    def evaluate(self, x):
        x = Q(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return render_terms(
            (self.coeffs[k], power_text("X", k) if k else "")
            for k in range(self.degree, -1, -1)
            if self.coeffs[k]
        )

    __repr__ = __str__


def power_text(symbol, e):
    return symbol if e == 1 else "%s^%d" % (symbol, e)


def render_terms(terms, gap=""):
    """The text of a sum of (coefficient, monomial) terms, monomial "" for
    a constant: a complex coefficient in parentheses, a negative real as
    the sign between terms, a unit coefficient left out, "0" for no terms.
    gap surrounds each sign after the first term.

    >>> render_terms([(Q(-1), "X^2"), (Q(1, 2), "X"), (Q(-3), "")], " ")
    '-X^2 + (1+2*i)*X - 3'
    """
    pieces = []
    for c, monomial in terms:
        if not c.is_real():
            sign, text = "+", "(%s)" % c
        elif c.re < 0:
            sign, text = "-", str(-c)
        else:
            sign, text = "+", str(c)
        if monomial:
            text = monomial if text == "1" else text + "*" + monomial
        if pieces:
            text = gap + sign + gap + text
        elif sign == "-":
            text = "-" + text
        pieces.append(text)
    return "".join(pieces) or "0"


def poly_gcd(p, q):
    """Monic gcd of two polynomials over the Gaussian rationals.

    Real operands run a primitive pseudo-remainder sequence on integer
    coefficients, made monic by one division at the end; Gaussian ones
    take Euclid's loop on scalars.  Both give the one monic gcd.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1]))
    X-1
    >>> poly_gcd(Poly([0, 0, 1]), Poly([1, 1]))
    1
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    (_, a, ai), (_, b, bi) = integer_row(p.coeffs), integer_row(q.coeffs)
    if ai is None and bi is None:
        while b:  # r = lead(b)^k*a mod b, divided by its content
            r, m = list(a), len(b) - 1
            while len(r) > m:  # clear the top term of r against b
                c, k = r.pop(), len(r) - m
                r = [b[-1] * x for x in r[:k]] + [b[-1] * x - c * y for x, y in zip(r[k:], b)]
            while r and not r[-1]:
                r.pop()
            g = gcd(*r) or 1
            a, b = b, [x // g for x in r]
        return Poly(rational_row(a, a[-1]))
    a, b = p, q
    while not b.is_zero():
        r = a % b
        # normalizing each remainder keeps coefficient growth down
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


X = Poly.variable()
