"""The graded-algebra kernel under :mod:`spindeq.grassmann` and :mod:`spindeq.symbols`.

One monomial form serves both front ends: a tuple of ``(slot, exponent)``
pairs sorted by slot, every exponent positive, ``()`` for the constant
monomial.  A slot is any hashable, totally ordered label of a generator: the
generator index of a ``GeneratorTable``, or the (declaration index, dot
order) pair of a ``SymbolContext``, so dotted symbols need no declaration of
their own.  An element is a term map ``{monomial: coefficient}`` without zero
coefficients; term maps are never changed once built, so results may share
them.  The functions here take ``odd``, a lookup with ``odd[slot]`` true for
an anticommuting slot.

Only :func:`checked` validates: the public constructors call it, and every
kernel result is wrapped unchecked by ``GradedElement._wrap``.

Sign conventions, fixed here and relied on everywhere above:

* a product is brought into slot order with ``(-1)`` per transposition of
  two odd factors, and vanishes when an odd slot repeats;
* derivatives are left derivatives: the factor is commuted to the front of
  the monomial and then struck.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParityError
from .exact import CRational


def merge(a: tuple, b: tuple, odd) -> tuple[int, tuple]:
    """The product a·b of two monomials as ``(sign, monomial)``; the sign
    is 0 when an odd slot repeats."""
    if not a or not b:
        return 1, a or b
    out = []
    pending = sum(1 for slot, _ in a if odd[slot])  # odd factors of a not yet placed
    swaps = i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa < sb:
            out.append(a[i])
            pending -= odd[sa]
            i += 1
        elif sb < sa:
            out.append(b[j])
            if odd[sb]:
                swaps += pending
            j += 1
        elif odd[sa]:
            return 0, ()
        else:
            out.append((sa, ea + eb))
            i += 1
            j += 1
    out += a[i:]
    out += b[j:]
    return (-1 if swaps & 1 else 1), tuple(out)


def checked(terms, odd, has_slot, lift) -> dict:
    """A public constructor's term map: every monomial sorted by valid slots,
    with positive exponents and odd exponents at most 1; coefficients lifted
    and zeros dropped.  Raises ``ValueError`` on a monomial out of form."""
    out = {}
    for mono, coeff in terms.items():
        last = None
        for slot, exp in mono:
            if not has_slot(slot) or (last is not None and slot <= last):
                raise ValueError(f"monomial {mono!r} is not sorted by valid slots")
            if exp < 1 or exp > 1 and odd[slot]:
                raise ValueError(f"exponent {exp} out of range in monomial {mono!r}")
            last = slot
        coeff = lift(coeff)
        if coeff:
            out[mono] = coeff
    return out


def mul(x: dict, y: dict, odd) -> dict:
    out: dict = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, mono = merge(ma, mb, odd)
            if not sign:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            out[mono] = out[mono] + c if mono in out else c
    return {mono: c for mono, c in out.items() if c}


def power(x: dict, n: int, odd) -> dict:
    """x to the power n >= 1, multiplied out from the left."""
    out = x
    for _ in range(n - 1):
        out = mul(out, x, odd)
    return out


def left_derivative(x: dict, slot, odd) -> dict:
    """Left derivative by one slot: for an odd slot ``(-1)`` per odd factor
    before it, for an even slot the ordinary partial derivative.  Distinct
    monomials keep distinct images, so nothing collects."""
    out = {}
    for mono, c in x.items():
        for k, (s, e) in enumerate(mono):
            if s == slot:
                break
        else:
            continue
        if odd[slot]:
            if sum(1 for s, _ in mono[:k] if odd[s]) & 1:
                c = -c
            out[mono[:k] + mono[k + 1 :]] = c
        else:
            rest = ((slot, e - 1),) if e > 1 else ()
            out[mono[:k] + rest + mono[k + 1 :]] = c * e
    return out


class GradedElement:
    """An element of a graded algebra: a term map over ``algebra``, with the
    ring operations that ``Multivector`` and ``GradedPolynomial`` share.

    The algebra (a ``GeneratorTable`` or a ``SymbolContext``) supplies
    ``is_odd``, the ``odd`` lookup of this module, ``has_slot`` and
    ``lift``, which checks one coefficient.  A subclass sets ``SCALARS``,
    the scalar types it takes, and ``MISMATCH``, the error for operands
    over different algebras.
    """

    __slots__ = ("algebra", "terms")
    SCALARS: tuple = (int, Fraction, CRational)
    MISMATCH: type = ValueError

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = checked(terms, algebra.is_odd, algebra.has_slot, algebra.lift)

    @classmethod
    def _wrap(cls, algebra, terms: dict):
        """The trusted constructor: wraps a kernel result without checking it."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.terms = terms
        return out

    def _new(self, terms: dict):
        return self._wrap(self.algebra, terms)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise self.MISMATCH(f"{type(self).__name__} operands over different algebras")

    def _constant(self, value) -> dict:
        value = self.algebra.lift(value)
        return {(): value} if value else {}

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_part(self):
        return self.terms.get((), 0)

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        odd = self.algebra.is_odd
        seen = {sum(e for slot, e in mono if odd[slot]) & 1 for mono in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.algebra == other.algebra and self.terms == other.terms
        if isinstance(other, self.SCALARS):
            return self.terms == self._constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, self.SCALARS):
            addend = self._constant(other)
        elif isinstance(other, type(self)):
            self._check(other)
            addend = other.terms
        else:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in addend.items():
            c = out.get(mono, 0) + c
            if c:
                out[mono] = c
            else:
                del out[mono]
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return other + (-1) * self

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, self.SCALARS):
            k = self.algebra.lift(other)
            return self._new({mono: v for mono, c in self.terms.items() if (v := c * k)})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._new(mul(self.terms, other.terms, self.algebra.is_odd))

    def __rmul__(self, other):
        if isinstance(other, self.SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        return self._new(power(self.terms, n, self.algebra.is_odd) if n else self._constant(1))

    def _substitute(self, bound):
        """Image under the graded endomorphism that sends each slot of
        ``bound``, ``(key, slot, element)`` triples, to its element and
        every other slot to itself."""
        images = {}
        for key, slot, element in bound:
            if element.algebra != self.algebra:
                raise self.MISMATCH("binding belongs to a different algebra")
            if not element.is_zero() and element.parity() != self.algebra.is_odd[slot]:
                raise ParityError(f"binding for {key!r} has wrong parity")
            images[slot] = element.terms
        odd = self.algebra.is_odd
        out: dict = {}
        for mono, c in self.terms.items():
            term = {(): c}
            for slot, exp in mono:
                image = images[slot] if slot in images else {((slot, 1),): 1}
                term = mul(term, power(image, exp, odd), odd)
            for m, v in term.items():
                out[m] = out[m] + v if m in out else v
        return self._new({mono: c for mono, c in out.items() if c})
