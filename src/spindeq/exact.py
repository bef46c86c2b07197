"""Exact complex-rational arithmetic.

The symbolic layer needs identity residuals that are *exactly* zero, so its
coefficients are Gaussian rationals.  A :class:`CRational` stores the value
(a + b·i)/d as three plain ints in normal form: d > 0 and gcd(a, b, d) = 1,
so zero is (0, 0, 1) and equal values have equal triples.  A sum, difference
or product takes one three-way gcd; a sum over a shared denominator
multiplies nothing, a product with an ``int`` k takes only gcd(k, d), a
product with a unit ±1 or ±i (:func:`turn`) takes none, and a quotient by a
real value needs no norm (Knuth, *TAOCP* vol. 2, §4.5.1).
Results already in normal form are built by the trusted constructor
:func:`_make`, which checks nothing.  ``re`` and ``im`` read the parts as
:class:`fractions.Fraction`, and ``normal_form`` the three ints.

One number rule covers every operand: an ``int`` or ``Fraction`` enters
exactly, and a finite float or ``complex`` at its exact binary value, so
mixed arithmetic stays exact, equal values hash alike, and equality is exact
and transitive, as for :class:`fractions.Fraction` (``CRational(Fraction(1,
10)) != 0.1``).  Any other operand, a non-finite float included, gets
``NotImplemented``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

_FLOATS = (float, complex)


class CRational:
    """A Gaussian rational ``(a + b*i)/d`` with ints, d > 0 and
    gcd(a, b, d) = 1.  The constructor takes the real and imaginary parts
    as anything :class:`~fractions.Fraction` accepts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # Both parts are in lowest terms, so over lcm(q, s) no factor is common.
        d = q if q == s else q * s // gcd(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def normal_form(self) -> tuple[int, int, int]:
        """The ints (a, b, d) of the value (a + b*i)/d in normal form."""
        return self._a, self._b, self._d

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _lift(value):
        """The one coercion of a number: an int or Fraction exactly, a finite
        float or complex at its exact binary value, and None for anything
        else.  A binary value's parts have power-of-two denominators, so the
        larger is their lcm and its part's numerator is odd: normal form with
        no gcd."""
        if isinstance(value, CRational):
            return value
        if isinstance(value, int):
            return _make(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator)
        if not isinstance(value, _FLOATS):
            return None
        try:
            (a, p), (b, q) = value.real.as_integer_ratio(), value.imag.as_integer_ratio()
        except (OverflowError, ValueError):
            return None
        d = max(p, q)
        return _make(a * (d // p), b * (d // q), d)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    # -- arithmetic ---------------------------------------------------------
    # None of these eight calls another: ``bench/layers.py`` counts every
    # call as one operation, so shared work goes through module helpers.

    def __add__(self, other):
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _reduced(self._a + o._a, self._b + o._b, d)
        return _reduced(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        return _difference(self, o)

    def __rsub__(self, other):
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        return _difference(o, self)

    def __mul__(self, other):
        if type(other) is int:
            # gcd(a, b, d) = 1, so only gcd(k, d) can cancel: no lift, one gcd.
            d = self._d
            g = gcd(other, d)
            if g == 1:
                return _make(self._a * other, self._b * other, d)
            k = other // g
            return _make(self._a * k, self._b * k, d // g)
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other):
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        o = other if type(other) is CRational else _lift(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # The formula of ``complex``, so values equal to an int, Fraction,
        # float or complex hash like it (purely real ones like ``hash(re)``).
        modulus = 1 << sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % modulus
        if h >= modulus // 2:
            h -= modulus
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __repr__(self) -> str:
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_new = object.__new__
_lift = CRational._lift


def _make(a: int, b: int, d: int) -> CRational:
    """The trusted constructor: (a + b*i)/d, already in normal form."""
    z = _new(CRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> CRational:
    """(a + b*i)/d in normal form, for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _difference(x: CRational, y: CRational) -> CRational:
    """x − y; over a shared denominator it multiplies nothing."""
    d, f = x._d, y._d
    if d == f:
        return _reduced(x._a - y._a, x._b - y._b, d)
    return _reduced(x._a * f - y._a * d, x._b * f - y._b * d, d * f)


def _quotient(x: CRational, y: CRational) -> CRational:
    """x / y, by the conjugate of y: ((a + b*i)/d) / ((c + e*i)/f) is
    (a + b*i)(c - e*i)·f / (d·(c² + e²)); by a real y = c/f it is
    (a + b*i)·f / (d·c), with no norm."""
    a, b, d, c, e, f = x._a, x._b, x._d, y._a, y._b, y._d
    if not e and c:
        if c < 0:
            c, f = -c, -f
        return _reduced(a * f, b * f, d * c)
    norm = c * c + e * e
    if not norm:
        raise ZeroDivisionError("division by zero")
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * norm)


I = _make(0, 1, 1)


def turn(z, k: int) -> CRational:
    """z·i^k for an int k, the product with the unit 1, i, −1 or −i: a
    quarter turn swaps the parts and negates one, and a half turn negates
    both.  Neither changes gcd(a, b, d), so the result is in normal form
    with no gcd taken.  Any other number z is lifted first, as by ``*``."""
    if type(z) is not CRational:
        z = crational(z)
    k &= 3
    if not k:
        return z
    a, b, d = z._a, z._b, z._d
    if k == 2:
        return _make(-a, -b, d)
    return _make(-b, a, d) if k == 1 else _make(b, -a, d)


def crational(value) -> CRational:
    """A number as a :class:`CRational`, by ``_lift``; a float or complex that
    is not finite raises ``ValueError``, and a non-number ``TypeError``."""
    out = _lift(value)
    if out is not None:
        return out
    if isinstance(value, _FLOATS):
        raise ValueError(f"not a finite number: {value}")
    raise TypeError(f"not a number: {value!r}")
