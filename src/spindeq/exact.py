"""Exact complex-rational arithmetic.

The symbolic layer needs identity residuals that are *exactly* zero, so its
coefficients are complex numbers whose real and imaginary parts are
:class:`fractions.Fraction`.  Mixing a :class:`CRational` with a float or a
Python ``complex`` degrades gracefully to ``complex`` arithmetic; mixing with
``int`` or ``Fraction`` stays exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_EXACT_TYPES = (int, Fraction)


class CRational:
    """A Gaussian rational: ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _lift(value):
        """Return a CRational for exact inputs, None for float-like ones."""
        if isinstance(value, CRational):
            return value
        if isinstance(value, _EXACT_TYPES):
            return CRational(value)
        return None

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return CRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return CRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other - complex(self)
            return NotImplemented
        return CRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return CRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return CRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = CRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    def __abs__(self) -> float:
        return abs(complex(self))

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is not None:
            return self.re == o.re and self.im == o.im
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # The formula of ``complex``, so values equal to an int, Fraction,
        # float or complex hash like it (purely real ones like ``hash(re)``).
        modulus = 1 << sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % modulus
        if h >= modulus // 2:
            h -= modulus
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I = CRational(0, 1)


def crational(value) -> CRational:
    """Coerce an exact numeric value to :class:`CRational`."""
    out = CRational._lift(value)
    if out is None:
        raise TypeError(f"not an exact numeric value: {value!r}")
    return out
