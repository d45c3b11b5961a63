"""Univariate polynomials over the Gaussian rationals, in the variable X.

A Poly is stored as linalg.ExactMatrix is: one positive denominator den and
the ascending integer coefficients re and im of den times the real and the
imaginary parts, im None when every coefficient is real, with no trailing
zeros (the zero polynomial has re == ()), reduced by the gcd of den and
every entry, so equality and hashing are structural.  Those integers are its
only state: coeffs, coefficient and leading build their scalars on each
read.  Sums, products, from_roots, evaluate, division and monic run on the
stored integers over Q(i) as over Q, a Gaussian leading entry made real by
its integer conjugate, so the gcd (a primitive pseudo-remainder sequence on
real operands, Euclid's loop on Gaussian ones) does no scalar arithmetic.
The sum and product kernels (_lincomb, _convolve) and the trimming rule
(_trim) are the ones the theta operators run on their own integer grid,
with the Taylor shift kernel _taylor that their product needs.
"""

from itertools import zip_longest
from math import gcd, lcm

from .scalars import Q, GaussianRational, _power, integer_row, rational_row


def _convolve(ar, ai, br, bi):
    """(re, im) of the product of (ar + i*ai) and (br + i*bi), ascending
    integer coefficient lists, each im as long as its re or None when
    zero; im is None when both are.  A real factor takes real products
    only; two Gaussian ones take re and im in one double loop."""
    if ai is None:
        return _real_convolve(ar, br), bi and _real_convolve(ar, bi)
    if bi is None:
        return _real_convolve(ar, br), _real_convolve(ai, br)
    re, im = [0] * (len(ar) + len(br) - 1), [0] * (len(ar) + len(br) - 1)
    for i, (x, xi) in enumerate(zip(ar, ai)):
        for k, (y, yi) in enumerate(zip(br, bi), i):
            re[k] += x * y - xi * yi
            im[k] += x * yi + xi * y
    return re, im


def _real_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            out[k] += x * y
    return out


def _lincomb(x, y, a=1, b=1):
    """(re, im) of a*x + b*y for x and y (re, im) pairs of integer
    coefficient lists of any lengths, each im as long as its re or None."""
    (xr, xi), (yr, yi) = x, y
    re = [a * u + b * v for u, v in zip_longest(xr, yr, fillvalue=0)]
    if xi is None and yi is None:
        return re, None
    return re, [a * u + b * v for u, v in
                zip_longest(xi or (0,) * len(xr), yi or (0,) * len(yr), fillvalue=0)]


def _taylor(coefficients, l):
    """The ascending integer coefficients of p(X + l), p given by the
    integer list coefficients, by repeated synthetic division."""
    part = list(coefficients)
    for i in range(len(part) - 1):
        for k in range(len(part) - 2, i - 1, -1):
            part[k] += l * part[k + 1]
    return part


def _int_roots(s, us, vs, sign=1):
    """(re, im) of sign times the integer product of s*X - u - v*i over
    the pairs of us and vs: the product of X - (u + v*i)/s times sign*s^n.
    The real factors go first, on re alone; im is None when vs is None or
    all zero."""
    re, gaussian = [sign], []
    for u, v in zip(us, vs or (0,) * len(us)):
        if v:
            gaussian.append((u, v))
        else:
            re = [s * h - u * a for h, a in zip([0] + re, re + [0])]
    im = [0] * len(re) if gaussian else None
    for u, v in gaussian:  # (a + b*i)(s*X - u - v*i), a + b*i the coefficients so far
        lo, hi, lo_im, hi_im = re + [0], [0] + re, im + [0], [0] + im
        re = [s * h - u * a + v * b for h, a, b in zip(hi, lo, lo_im)]
        im = [s * h - u * b - v * a for h, a, b in zip(hi_im, lo, lo_im)]
    return re, im


class Poly:
    """Dense univariate polynomial, stored as (re + i*im)/den.

    >>> Poly([2, -3, 1])
    X^2-3*X+2
    >>> Poly.from_roots([Q(1), Q(2)])
    X^2-3*X+2
    >>> divmod(Poly([2, -3, 1]), Poly([-1, 1]))
    (X-2, 0)
    """

    __slots__ = ("den", "re", "im")

    def __new__(cls, coefficients=()):
        return _from_ints(*integer_row([c if isinstance(c, GaussianRational) else Q(c)
                                        for c in coefficients]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return _from_ints, (self.den, self.re, self.im)

    @classmethod
    def variable(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        """The product of X - r over the n roots: with s the lcm of their
        denominators and w = s*r, the integer product of s*X - w over s^n."""
        s, us, vs = integer_row([Q(r) for r in roots])
        return _from_ints(s ** len(us), *_int_roots(s, us, vs))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self):
        """The ascending coefficients, canonical scalars built on each read."""
        return tuple(rational_row(self.re, self.den, self.im))

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.re) - 1

    def is_zero(self):
        return not self.re

    def __bool__(self):
        return bool(self.re)

    def leading(self):
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(len(self.re) - 1)

    def coefficient(self, k):
        if not 0 <= k < len(self.re):
            return Q(0)
        return rational_row([self.re[k]], self.den, self.im and [self.im[k]])[0]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.re == o.re and self.im == o.im

    def __hash__(self):
        if len(self.re) > 1:
            return hash((self.den, self.re, self.im))
        return hash(self.coefficient(0))  # a constant hashes as the equal scalar

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):  # a bool as the int it equals
            return _from_ints(1, [int(other)])
        if isinstance(other, GaussianRational):
            return Poly([other])
        return None

    def __add__(self, other, sign=1):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        a, b = den // self.den, sign * (den // o.den)
        return _from_ints(den, *_lincomb((self.re, self.im), (o.re, o.im), a, b))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _from_ints(self.den, [-x for x in self.re], self.im and [-x for x in self.im])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_ints(self.den * o.den, *_convolve(self.re, self.im, o.re, o.im))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError("polynomial exponent must be an int, not %r" % (e,))
        if e < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        return _power(self, e, _from_ints(1, [1]))

    def __divmod__(self, other):
        """The unique (q, r) with self = q*other + r and deg r < deg other.

        With self = P/s, other = D/t and D's leading entry L real, the long
        division of L^k*P by D (k the length of q) is exact on the integers,
        L^k*P = Q*D + R, so q = Q*t/(s*L^k) and r = R/(s*L^k).  A complex
        leading entry a + b*i is made real first: other times a - b*i.

        >>> divmod(Poly([1, 0, 0, 2]), Poly([1, 1]))
        (2*X^2-2*X+2, -1)
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.re:
            raise ZeroDivisionError("polynomial division by zero")
        if o.im and o.im[-1]:
            c = _from_ints(1, [o.re[-1]], [-o.im[-1]])
            q, r = divmod(self, o * c)
            return q * c, r
        m, lead, k = len(o.re) - 1, o.re[-1], max(len(self.re) - len(o.re) + 1, 0)
        dr, di = o.re, o.im or (0,) * len(o.re)
        rr, ri = ([x * lead**k for x in p] for p in (self.re, self.im or (0,) * len(self.re)))
        qr, qi = [0] * k, [0] * k
        for j in range(k - 1, -1, -1):  # clear the top term of r
            a, b = qr[j], qi[j] = rr.pop() // lead, ri.pop() // lead
            rr[j:j + m] = [x - a * u + b * v for x, u, v in zip(rr[j:j + m], dr, di)]
            ri[j:j + m] = [y - a * v - b * u for y, u, v in zip(ri[j:j + m], dr, di)]
        s = self.den * lead**k
        q = _from_ints(s, [x * o.den for x in qr], [y * o.den for y in qi])
        return q, _from_ints(s, rr, ri)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self.re:
            raise ValueError("zero polynomial cannot be made monic")
        a, b = self.re[-1], (self.im or (0,))[-1]
        return _from_ints(a * a + b * b, *_convolve(self.re, self.im, [a], [-b] if b else None))

    def evaluate(self, x):
        """p(x) by Horner's rule on the integers: with x = (u + v*i)/s,
        the sum of (re_k + im_k*i)*(u + v*i)^k*s^(n-k) over den*s^n."""
        s, (u,), v = integer_row([Q(x)])
        v, ar, ai, w = v[0] if v else 0, 0, 0, 1  # w = s^(n-k)
        for a, b in zip(reversed(self.re), reversed(self.im or (0,) * len(self.re))):
            ar, ai, w = ar * u - ai * v + a * w, ar * v + ai * u + b * w, w * s
        return rational_row([ar], self.den * s ** max(self.degree, 0), [ai])[0]

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        coeffs = self.coeffs
        return render_terms((coeffs[k], power_text("X", k) if k else "")
                            for k in range(self.degree, -1, -1) if coeffs[k])

    __repr__ = __str__


_new = object.__new__
_SETTERS = [getattr(Poly, name).__set__ for name in Poly.__slots__]


def _from_ints(den, re, im=None):
    """The Poly (re + i*im)/den of integer sequences, den nonzero and im
    None or no longer than re, stored reduced: im padded to the length of
    re, or None when zero; trailing zeros stripped; den > 0 and coprime to
    the entries."""
    re, im = _trim(re, im and tuple(im) + (0,) * (len(re) - len(im)))
    g = gcd(den, *re, *(im or ()))
    g = -g if den < 0 else g
    if g != 1:
        den, re, im = den // g, tuple(x // g for x in re), im and tuple(x // g for x in im)
    p = _new(Poly)
    for set_slot, value in zip(_SETTERS, (den, re, im)):
        set_slot(p, value)
    return p


def _trim(re, im):
    """(re, im) as tuples, im None when zero, trailing zeros dropped."""
    im = im if im is not None and any(im) else None
    n = len(re)
    while n and not (re[n - 1] or im and im[n - 1]):
        n -= 1
    return tuple(re[:n]), im and tuple(im[:n])


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

    Real operands run a primitive pseudo-remainder sequence on their
    stored integers, made monic by one division at the end; Gaussian ones
    take Euclid's loop.  Both give the one monic gcd.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1]))
    X-1
    >>> poly_gcd(Poly([0, 0, 1]), Poly([1, 1]))
    1
    """
    if not p.re and not q.re:
        raise ValueError("gcd of two zero polynomials is undefined")
    if p.im is None and q.im is None:
        a, b = p.re, q.re
        while b:  # r = lead(b)^k*a mod b, divided by its content
            r, m = list(a), len(b) - 1
            while len(r) > m:  # clear the top term of r against b
                c, k = r.pop(), len(r) - m
                r = [b[-1] * x for x in r[:k]] + [b[-1] * x - c * y for x, y in zip(r[k:], b)]
            while r and not r[-1]:
                r.pop()
            g = gcd(*r) or 1
            a, b = b, [x // g for x in r]
        return _from_ints(a[-1], a)
    a, b = p, q
    while b:
        r = a % b
        # normalizing each remainder keeps coefficient growth down
        a, b = b, (r.monic() if r else r)
    return a.monic()


X = Poly.variable()
