"""Exact Gaussian-rational scalars: numbers a + b*i with rational a and b.

This is the coefficient field for every exact computation in the package.
Values are immutable and canonical (fractions in lowest terms, positive
denominators), so equality is structural and hashing is safe.

Most scalars in the exact algorithms are real, so arithmetic takes a fast
path on a zero imaginary part: real x real is one rational product, real x
complex two, and only complex x complex does the four of the general
formula; sums and differences of reals skip the imaginary sum; the inverse
of a real is 1/re.  Results are built by _make from two backend rationals,
without re-coercion, and the imaginary part of a real is always the
backend's 0, so equality, hashing and printing do not depend on the path.

Two interchangeable rational backends are supported.  gmpy2's mpq is used
when importable because bignum rational arithmetic dominates the runtime of
the exact algorithms; fractions.Fraction is the pure-Python fallback.  Set
THETAKIT_SCALAR_BACKEND=fraction (or =gmpy2) to force a backend; the
benchmark in benchmark/ runs with the scalar backend pinned to fraction.
"""

import os
import re as _re
from fractions import Fraction

_FORCED = os.environ.get("THETAKIT_SCALAR_BACKEND", "").strip().lower()

if _FORCED in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as _rat

        BACKEND = "gmpy2"
    except ImportError:
        if _FORCED == "gmpy2":
            raise
        _rat = Fraction
        BACKEND = "fraction"
elif _FORCED in ("fraction", "fractions", "python"):
    _rat = Fraction
    BACKEND = "fraction"
else:
    raise ValueError("unknown scalar backend %r" % _FORCED)


def _to_rat(x):
    """Coerce x to the backend rational type.

    Accepts ints (not bools), 'p/q' strings and anything with
    numerator/denominator attributes (Fraction, mpq, other rationals).  A
    zero denominator is malformed input and raises ValueError.
    """
    if isinstance(x, _rat):
        return x
    if isinstance(x, bool):
        raise TypeError("a boolean is not a rational number: %r" % (x,))
    if isinstance(x, (int, str)):
        try:
            return _rat(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if num is not None and den is not None:
        return _rat(int(num), int(den))
    raise TypeError("cannot interpret %r as a rational number" % (x,))


_RAT_RE = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = _re.compile(r"^\s*(%s)\s*$" % _RAT_RE)
_IMAG_RE = _re.compile(r"^\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?i\s*$")
_MIXED_RE = _re.compile(
    r"^\s*(%s)\s*([+-])\s*(?:(\d+(?:/\d+)?)\*)?i\s*$" % _RAT_RE
)


class GaussianRational:
    """A Gaussian rational a + b*i.

    >>> GaussianRational(1, 2) * GaussianRational(1, -2)
    5
    >>> Q("1/2") + Q("1/3")
    5/6
    >>> Q("1/2+1/3*i").conjugate()
    1/2-1/3*i
    >>> Q(1) / Q(0, 1)
    -1*i
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_rat(re))
        object.__setattr__(self, "im", _to_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse the canonical string forms: '3/2', '-1/3*i', '1/2+1/3*i', 'i'.

        >>> GaussianRational.parse("-3/2")
        -3/2
        >>> GaussianRational.parse("1/2-i")
        1/2-1*i
        """
        m = _REAL_RE.match(text)
        if m:
            return cls(m.group(1))
        m = _IMAG_RE.match(text)
        if m:
            sign, coef = m.group(1), m.group(2)
            b = _to_rat(coef) if coef is not None else _rat(1)
            if sign == "-":
                b = -b
            return cls(0, b)
        m = _MIXED_RE.match(text)
        if m:
            a = _to_rat(m.group(1))
            b = _to_rat(m.group(3)) if m.group(3) is not None else _rat(1)
            if m.group(2) == "-":
                b = -b
            return cls(a, b)
        raise ValueError("cannot parse scalar %r" % text)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return not self.im

    def is_integer(self):
        """True when the value lies in Z (zero imaginary part, denominator 1)."""
        return not self.im and self.re.denominator == 1

    def as_int(self):
        if not self.is_integer():
            raise ValueError("%s is not an integer" % self)
        return int(self.re)

    def floor_real(self):
        """Floor of the real part, as a Python int."""
        return int(self.re.numerator) // int(self.re.denominator)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if type(other) is GaussianRational:
            return other
        if isinstance(other, int):
            return _make(_rat(other), _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return _make(self.re + o.re, self.im)
        if not self.im:
            return _make(self.re + o.re, o.im)
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return _make(self.re - o.re, self.im)
        if not self.im:
            return _make(self.re - o.re, -o.im)
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b:
            if not d:
                return _make(a * c, _ZERO)
            return _make(a * c, a * d)
        if not d:
            return _make(a * c, b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero")
            return _make(_ONE / self.re, _ZERO)
        n = self.re * self.re + self.im * self.im
        return _make(self.re / n, -self.im / n)

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

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self):
        return _make(self.re, -self.im)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = "%s*i" % abs(self.im)
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sign, imag)

    __repr__ = __str__


_ZERO = _rat(0)
_ONE = _rat(1)
_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re, im):
    """A GaussianRational from two backend rationals, taken as they are.

    The caller guarantees both are of the backend type; a real result
    passes the backend's 0 (not a Python int) as im.
    """
    x = _new(GaussianRational)
    _set_re(x, re)
    _set_im(x, im)
    return x


def Q(x=0, y=0):
    """Convenience constructor.

    Q(3) -> 3, Q("5/6") -> 5/6, Q("1/2+1/3*i") -> 1/2+1/3*i, Q(1, 2) -> 1+2*i.
    """
    if isinstance(x, GaussianRational):
        if y:
            return x + GaussianRational(0, _to_rat(y))
        return x
    if isinstance(x, str) and ("i" in x):
        if y:
            raise ValueError("cannot combine complex literal with explicit imaginary part")
        return GaussianRational.parse(x)
    return GaussianRational(x, y)


ZERO = Q(0)
ONE = Q(1)
I = Q(0, 1)
