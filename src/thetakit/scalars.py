"""Exact Gaussian-rational scalars: numbers a + b*i with rational a and b.

GaussianRational is the boundary type of the package: parameters, matrix
entries and coefficients come in and go out as scalars, while every
exact algorithm runs on integers.  Both parts are fractions.Fraction, the
one rational type.  Values are immutable and canonical (fractions in
lowest terms, positive denominators, a zero imaginary part Fraction(0)),
so equality is structural and hashing is safe; a real hashes as its
rational part, as the equal int does.  Each operation is its one general
formula on the two parts, built by _make without re-coercion.

linalg.ExactMatrix and polynomials.Poly store integers over one
denominator: integer_row clears a row of scalars to them once, the
integer kernels (_dot, _matmul, _lin and _product, which splits a
Gaussian product into real and imaginary parts) run on them, and
rational_row builds scalars back when read.

A string becomes a scalar only through the canonical grammar, whose
numbers are decimal digits with an optional '/q': a real '3', '-7/3'; an
imaginary 'i', '-2*i', '1/3*i'; or a real, a sign and an imaginary,
'1/2+1/3*i', '3-i'; blanks around the tokens are allowed.  Any other
string ('1.5', '1e3', '1_000', '1.5+i') or a zero denominator is a
ValueError naming the string.
"""

import re as _re
from fractions import Fraction
from math import lcm
from operator import mul

BACKEND = "fraction"  # the one rational type; kept as a name for reports

_RAT_RE = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = _re.compile(r"^\s*(%s)\s*$" % _RAT_RE)
_IMAG_RE = _re.compile(r"^\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?i\s*$")
_MIXED_RE = _re.compile(
    r"^\s*(%s)\s*([+-])\s*(?:(\d+(?:/\d+)?)\*)?i\s*$" % _RAT_RE
)


def _to_rat(x):
    """Coerce x to a Fraction: a Fraction, an int (not a bool) or a real
    string of the grammar ('3', '-7/3').  A string outside the grammar or
    with a zero denominator is a ValueError, any other type a TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("a boolean is not a rational number: %r" % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _REAL_RE.match(x)
        if m is None:
            raise ValueError("cannot parse scalar %r" % (x,))
        try:
            return Fraction(m.group(1))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    raise TypeError("cannot interpret %r as a rational number" % (x,))


class GaussianRational:
    """A Gaussian rational a + b*i.

    >>> GaussianRational(1, 2) * GaussianRational(1, -2)
    5
    >>> Q("1/2") + Q("1/3")
    5/6
    >>> Q(1) / Q(0, 1)
    -1*i
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_rat(re))
        object.__setattr__(self, "im", _to_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _make, (self.re, self.im)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse the canonical string forms: '3/2', '-1/3*i', '1/2+1/3*i', 'i'.

        >>> GaussianRational.parse("-3/2")
        -3/2
        >>> GaussianRational.parse("1/2-i")
        1/2-1*i
        """
        m = _IMAG_RE.match(text)
        if m:
            sign, coef = m.group(1), m.group(2)
            b = _to_rat(coef) if coef is not None else _ONE
            if sign == "-":
                b = -b
            return cls(0, b)
        m = _MIXED_RE.match(text)
        if m:
            a = _to_rat(m.group(1))
            b = _to_rat(m.group(3)) if m.group(3) is not None else _ONE
            if m.group(2) == "-":
                b = -b
            return cls(a, b)
        return cls(text)  # a real, or the grammar's ValueError from _to_rat

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return not self.im

    def floor_real(self):
        """Floor of the real part, as a Python int."""
        return self.re.numerator // self.re.denominator

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if type(other) is GaussianRational:
            return other
        if isinstance(other, int):
            return _make(Fraction(other), _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
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
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, ONE)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):  # a real hashes as its rational part: as the equal int
        return hash((self.re, self.im)) if self.im else hash(self.re)

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


_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re, im):
    """A GaussianRational from two Fractions, taken as they are.

    The caller guarantees both are Fractions; a real result passes
    Fraction(0) (not a Python int) as im.
    """
    x = _new(GaussianRational)
    _set_re(x, re)
    _set_im(x, im)
    return x


def _power(base, e, one):
    """base**e for an int e >= 0 by repeated squaring, one the unit."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _dot(u, v):
    return sum(map(mul, u, v))


def _matmul(rows, columns):
    return [[_dot(r, c) for c in columns] for r in rows]


def _scale(rows, c):
    return [[x * c for x in r] for r in rows]


def _lin(x, y, a=1, b=1):
    """The integer rows a*x + b*y; None stands for zero rows."""
    if x is None or y is None:
        return x and _scale(x, a) or y and _scale(y, b)
    return [[a * u + b * v for u, v in zip(r, s)] for r, s in zip(x, y)]


def _product(f, a, ai, b, bi):
    """(re, im) of f(a + i*ai, b + i*bi) for f bilinear over the integers;
    a None part is zero."""
    if ai is None and bi is None:
        return f(a, b), None

    def g(x, y):
        return None if x is None or y is None else f(x, y)

    return _lin(f(a, b), g(ai, bi), 1, -1), _lin(g(a, bi), g(ai, b))


def integer_row(row):
    """(s, re, im): s the lcm of the denominators of both parts of a row of
    scalars, re and im the integers s*x.re and s*x.im; im is None when
    every entry is real."""
    if not any(x.im for x in row):
        s = lcm(*(x.re.denominator for x in row))
        return s, [x.re.numerator * (s // x.re.denominator) for x in row], None
    s = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
    return (s, [x.re.numerator * (s // x.re.denominator) for x in row],
            [x.im.numerator * (s // x.im.denominator) for x in row])


def rational_row(re, den, im=None):
    """The scalars (n + m*i)/den for n in re and m in im, the inverse of
    integer_row; every scalar is real when im is None."""
    if im is None:
        return [_make(Fraction(n, den), _ZERO) if n else ZERO for n in re]
    return [_make(Fraction(n, den), Fraction(m, den)) if n or m else ZERO
            for n, m in zip(re, im)]


def Q(x=0, y=0):
    """Convenience constructor.

    Q(3) -> 3, Q("5/6") -> 5/6, Q("1/2+1/3*i") -> 1/2+1/3*i, Q(1, 2) -> 1+2*i.
    """
    if isinstance(x, GaussianRational) and not y:
        return x
    if isinstance(x, str) and ("i" in x):
        if y:
            raise ValueError("cannot combine complex literal with explicit imaginary part")
        return GaussianRational.parse(x)
    return GaussianRational(x, y)


ZERO = Q(0)
ONE = Q(1)
I = Q(0, 1)
