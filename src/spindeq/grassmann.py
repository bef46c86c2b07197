"""Numeric elements of a graded algebra, with Berezin calculus.

A :class:`Multivector` is a :class:`~spindeq.symbols.GradedPolynomial`
whose coefficients may also be floating (``float``, ``complex``): exact and
floating coefficients may be mixed, in which case arithmetic degrades to
``complex``.  It lives over a :class:`~spindeq.symbols.SymbolContext`, with
the kernel's monomial form, products, left derivatives
(:func:`~spindeq.symbols.partial_derivative`) and substitutions, and their
sign conventions.  They are exact: no power of an even generator is ever
dropped.  This module adds Berezin integration (``berezin_integral(a, [g1,
g2])`` integrates the *rightmost* measure first, i.e. it equals the
iterated left derivative ``d_g1 d_g2 a``) and operators written as words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _graded
from .errors import ParityError, TableMismatchError
from .exact import CRational
from .symbols import ODD, GradedPolynomial, SymbolContext, partial_derivative


class Multivector(GradedPolynomial):
    """A graded polynomial with numeric coefficients over a context.

    ``terms`` maps monomials in the kernel's form to coefficients.  The
    constructor checks that form; results of algebra operations skip the
    check.  Immutable by convention: all operations return fresh instances.
    A multivector never combines with an exact polynomial.
    """

    __slots__ = ()
    SCALARS = (int, float, complex, Fraction, CRational)
    MISMATCH = TableMismatchError

    @staticmethod
    def lift(c):
        # Fraction lacks arithmetic against complex; CRational interoperates.
        return CRational(c) if isinstance(c, Fraction) else c

    def __init__(self, context: SymbolContext, terms: Mapping[tuple, object]):
        super().__init__(context, terms)

    @classmethod
    def gen(cls, context: SymbolContext, name: str) -> "Multivector":
        """The generator ``name`` of ``context``, with the int coefficient 1."""
        return cls._wrap(context, {((context.slot(name), 1),): 1})

    def __repr__(self):
        key = self.context.key
        bits = [
            str(c) + "".join(f"*{key(slot)[0]}" + (f"^{e}" if e > 1 else "") for slot, e in mono)
            for mono, c in sorted(self.terms.items())
        ]
        return "<mv " + (" + ".join(bits) or "0") + ">"

    __str__ = __repr__

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return product(self, other)
        return _graded.GradedElement.__mul__(self, other)

    def substitute(self, bindings: Mapping[str, "Multivector"]) -> "Multivector":
        """Replace generators by multivectors over the same context.

        Every binding must be parity-homogeneous and match the parity of the
        generator it replaces; unbound generators stay as they are.
        """
        slot = self.context.slot
        return self._substitute([(name, slot(name), mv) for name, mv in bindings.items()])


def product(a: Multivector, b: Multivector) -> Multivector:
    """Graded product; exact, since even generators have no truncation."""
    a._check(b)
    return a._new(_graded.mul(a.terms, b.terms, a.context.is_odd))


def berezin_integral(a: Multivector, gens: Sequence[str]) -> Multivector:
    """Iterated Berezin integral; the rightmost measure acts first.

    Equal to the iterated left derivative: ``berezin_integral(a, [g1, g2])``
    is ``d_g1 (d_g2 a)``.
    """
    ctx = a.context
    for g in gens:
        if ctx.decl(g).parity != ODD:
            raise ParityError(f"Berezin integration requires odd generators, got {g!r}")
    out = a
    for g in reversed(list(gens)):
        out = partial_derivative(out, g)
    return out


class GrassmannOperator:
    """Linear operator on the algebra, written in normal-ordered words.

    ``terms`` is a sequence of ``(coeff, word)`` pairs; each word is a tuple
    of ``("mul", name)`` and ``("diff", name)`` steps.  Words apply right to
    left, so ``(("mul", "xi"), ("diff", "xi"))`` differentiates first and
    multiplies afterwards.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: SymbolContext, terms: Iterable[tuple]):
        self.context = context
        clean = []
        for coeff, word in terms:
            word = tuple((kind, name) for kind, name in word)
            for kind, name in word:
                if kind not in ("mul", "diff"):
                    raise ValueError(f"unknown operator step {kind!r}")
                context.slot(name)
            clean.append((Multivector.lift(coeff), word))
        self.terms = tuple(clean)

    def apply(self, mv: Multivector) -> Multivector:
        if mv.context != self.context:
            raise TableMismatchError("operator and argument use different contexts")
        out = Multivector._wrap(self.context, {})
        for coeff, word in self.terms:
            cur = mv
            for kind, name in reversed(word):
                if kind == "mul":
                    cur = product(Multivector.gen(self.context, name), cur)
                else:
                    cur = partial_derivative(cur, name)
            out = out + cur * coeff
        return out

    def commutator_apply(self, other: "GrassmannOperator", mv: Multivector) -> Multivector:
        """Apply [self, other] to a multivector."""
        return self.apply(other.apply(mv)) - other.apply(self.apply(mv))
