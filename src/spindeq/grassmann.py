"""Graded algebra over a generator table, with Berezin calculus.

A :class:`GeneratorTable` fixes an ordered list of generators, each either
odd (anticommuting, square zero) or even (commuting, any power).  A
:class:`Multivector` is a finite sum of monomials in those generators with
numeric coefficients.  Monomials take the one form of the graded-algebra
kernel :mod:`spindeq._graded`, ``((index, exponent), ...)`` sorted by
generator index, and products, derivatives and substitutions are the
kernel's, with its sign conventions.  They are exact: no power of an even
generator is ever dropped.  This module adds the table, Berezin integration
(``berezin_integral(a, [g1, g2])`` integrates the *rightmost* measure
first, i.e. it equals the iterated left derivative ``d_g1 d_g2 a``) and
operators written as words.

Coefficients may be exact (:class:`~spindeq.exact.CRational`, ``int``,
``Fraction``) or floating (``float``, ``complex``); they may be mixed, in
which case arithmetic degrades to ``complex``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _graded
from .errors import (
    ParityError,
    TableMismatchError,
    UnknownGeneratorError,
)
from .exact import CRational

ODD = "odd"
EVEN = "even"


def _lift_coeff(c):
    # Fraction lacks arithmetic against complex; CRational interoperates.
    if isinstance(c, Fraction):
        return CRational(c)
    return c


class GeneratorTable:
    """Ordered set of generators defining one graded algebra.

    Entries are ``(name, parity)`` pairs.  ``names`` holds the names in
    table order and ``is_odd`` the matching parities, the kernel's odd
    lookup.
    """

    __slots__ = ("names", "is_odd", "_index")

    def __init__(self, entries: Iterable[Sequence]):
        names, is_odd = [], []
        for name, parity in entries:
            if parity not in (ODD, EVEN):
                raise ParityError(f"parity must be 'odd' or 'even', got {parity!r}")
            if name in names:
                raise ValueError(f"duplicate generator name {name!r}")
            names.append(name)
            is_odd.append(parity == ODD)
        self.names = tuple(names)
        self.is_odd = tuple(is_odd)
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def odd(cls, *names: str) -> "GeneratorTable":
        return cls((n, ODD) for n in names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorTable):
            return NotImplemented
        return self.names == other.names and self.is_odd == other.is_odd

    def __hash__(self):
        return hash((self.names, self.is_odd))

    def __repr__(self):
        body = ", ".join(f"{n}:{ODD if o else EVEN}" for n, o in zip(self.names, self.is_odd))
        return f"GeneratorTable({body})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    lift = staticmethod(_lift_coeff)

    def has_slot(self, slot) -> bool:
        return isinstance(slot, int) and 0 <= slot < len(self.names)

    # -- monomials and multivectors -------------------------------------------

    def monomial(self, exps: Sequence[int]) -> tuple:
        """The monomial with exponent ``exps[i]`` on generator i."""
        return tuple((i, e) for i, e in enumerate(exps) if e)

    def named(self, powers: Mapping[str, int]) -> tuple:
        """The monomial with the given exponent on each named generator."""
        return tuple(sorted((self.index(name), e) for name, e in powers.items() if e))

    def zero(self) -> "Multivector":
        return Multivector._wrap(self, {})

    def scalar(self, value) -> "Multivector":
        return Multivector(self, {(): value})

    def gen(self, name: str) -> "Multivector":
        return Multivector._wrap(self, {((self.index(name), 1),): 1})

    def term(self, coeff, **powers: int) -> "Multivector":
        """One monomial, e.g. ``table.term(2, xi=1, xibar=1)``."""
        return Multivector(self, {self.named(powers): coeff})


class Multivector(_graded.GradedElement):
    """Element of the graded algebra over a :class:`GeneratorTable`.

    ``terms`` maps monomials in the kernel's form, ``((index, exponent),
    ...)`` sorted by generator index, to coefficients.  The constructor
    checks that form; results of algebra operations skip the check.
    Immutable by convention: all operations return fresh instances.
    """

    __slots__ = ()
    SCALARS = (int, float, complex, Fraction, CRational)
    MISMATCH = TableMismatchError

    def __init__(self, table: GeneratorTable, terms: Mapping[tuple, object]):
        super().__init__(table, terms)

    @property
    def table(self) -> GeneratorTable:
        return self.algebra

    def coefficient(self, **powers: int):
        return self.terms.get(self.table.named(powers), 0)

    def __repr__(self):
        if not self.terms:
            return "<mv 0>"
        names = self.table.names
        bits = []
        for mono in sorted(self.terms):
            word = "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono)
            bits.append(f"{self.terms[mono]}" + (f"*{word}" if word else ""))
        return "<mv " + " + ".join(bits) + ">"

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return product(self, other)
        return super().__mul__(other)

    def substitute(self, bindings: Mapping[str, "Multivector"]) -> "Multivector":
        """Replace generators by multivectors over the same table.

        Every binding must be parity-homogeneous and match the parity of the
        generator it replaces; unbound generators stay as they are.
        """
        index = self.table.index
        return self._substitute([(name, index(name), mv) for name, mv in bindings.items()])


def product(a: Multivector, b: Multivector) -> Multivector:
    """Graded product; exact, since even generators have no truncation."""
    a._check(b)
    return a._new(_graded.mul(a.terms, b.terms, a.table.is_odd))


def left_derivative(a: Multivector, gen: str) -> Multivector:
    """Left derivative with respect to one generator (see :mod:`spindeq._graded`)."""
    table = a.table
    return a._new(_graded.left_derivative(a.terms, table.index(gen), table.is_odd))


def berezin_integral(a: Multivector, gens: Sequence[str]) -> Multivector:
    """Iterated Berezin integral; the rightmost measure acts first.

    Equal to the iterated left derivative: ``berezin_integral(a, [g1, g2])``
    is ``d_g1 (d_g2 a)``.
    """
    table = a.table
    for g in gens:
        if not table.is_odd[table.index(g)]:
            raise ParityError(f"Berezin integration requires odd generators, got {g!r}")
    out = a
    for g in reversed(list(gens)):
        out = left_derivative(out, g)
    return out


class GrassmannOperator:
    """Linear operator on the algebra, written in normal-ordered words.

    ``terms`` is a sequence of ``(coeff, word)`` pairs; each word is a tuple
    of ``("mul", name)`` and ``("diff", name)`` steps.  Words apply right to
    left, so ``(("mul", "xi"), ("diff", "xi"))`` differentiates first and
    multiplies afterwards.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: Iterable[tuple]):
        self.table = table
        clean = []
        for coeff, word in terms:
            word = tuple((kind, name) for kind, name in word)
            for kind, name in word:
                if kind not in ("mul", "diff"):
                    raise ValueError(f"unknown operator step {kind!r}")
                table.index(name)
            clean.append((_lift_coeff(coeff), word))
        self.terms = tuple(clean)

    def apply(self, mv: Multivector) -> Multivector:
        if mv.table != self.table:
            raise TableMismatchError("operator and argument use different tables")
        out = self.table.zero()
        for coeff, word in self.terms:
            cur = mv
            for kind, name in reversed(word):
                if kind == "mul":
                    cur = product(self.table.gen(name), cur)
                else:
                    cur = left_derivative(cur, name)
            out = out + cur * coeff
        return out

    def commutator_apply(self, other: "GrassmannOperator", mv: Multivector) -> Multivector:
        """Apply [self, other] to a multivector."""
        return self.apply(other.apply(mv)) - other.apply(self.apply(mv))
