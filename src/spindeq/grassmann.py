"""Berezin calculus and operators given by their symbols.

Elements are :class:`~spindeq.symbols.GradedPolynomial` over a
:class:`~spindeq.symbols.SymbolContext`, with exact coefficients and the
kernel's monomial form, products, left derivatives
(:func:`~spindeq.symbols.partial_derivative`) and substitutions, and their
sign conventions.  They are exact: no power of an even generator is ever
dropped.  This module adds Berezin integration (``berezin_integral(a, [g1,
g2])`` integrates the *rightmost* measure first, i.e. it equals the
iterated left derivative ``d_g1 d_g2 a``) and operators given by their
symbols, each factor lifted by :func:`~spindeq.exact.crational`; an
operator tabulates the image of each monomial it meets, once per instance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import _graded
from .errors import ParityError, TableMismatchError
from .exact import crational
from .symbols import ODD, GradedPolynomial, SymbolContext, partial_derivative

_ONE = crational(1)

# The element class under its former name: the benchmark's per-layer tracer
# (bench/layers.py) reads it, and it goes when that tracer's hooks are renamed.
Multivector = GradedPolynomial


def product(a: GradedPolynomial, b: GradedPolynomial) -> GradedPolynomial:
    """Graded product ``a * b``; exact, since even generators have no truncation."""
    a._check(b)
    return a._new(_graded.mul(a.terms, b.terms, a.context.is_odd))


def berezin_integral(a: GradedPolynomial, gens: Sequence[str]) -> GradedPolynomial:
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
    """Linear operator on the algebra, given by its symbol.

    ``symbol`` is a polynomial over a context.  An entry
    ``name: (generator, factor)`` of ``derivatives`` makes the symbol
    ``name`` act as ``factor`` times the left derivative by ``generator``;
    every other symbol multiplies.  One rule reads a monomial: in the
    context's canonical order it is the composition of its factors read
    left to right, so its rightmost factor acts first.

    The operator is linear, so each instance tabulates its action: the image
    of a monomial is built the first time ``apply`` meets it and reused for
    the life of the operator.  A table entry is never summed into.
    """

    __slots__ = ("symbol", "_terms", "_table")

    def __init__(self, symbol: GradedPolynomial, derivatives: Mapping[str, tuple]):
        ctx = symbol.context
        acts_as = {}
        for name, (generator, factor) in derivatives.items():
            if ctx.decl(name).parity != ctx.decl(generator).parity:
                raise ParityError(f"{name!r} cannot act as the derivative by {generator!r}")
            acts_as[ctx.slot(name)] = (generator, crational(factor))
        terms = []
        for mono in sorted(symbol.terms):  # fixes the order in which apply sums
            coeff, steps = symbol.terms[mono], []
            for slot, exp in mono:
                for _ in range(exp):
                    if slot in acts_as:
                        generator, factor = acts_as[slot]
                        coeff = coeff * factor
                        steps.append((_graded.left_derivative, ctx.slot(generator)))
                    else:
                        steps.append((_graded.left_multiply, slot))
            # Steps in the order they act, each a kernel function and its slot.
            terms.append((coeff, tuple(reversed(steps))))
        self.symbol = symbol
        self._terms = tuple(terms)
        self._table: dict = {}  # monomial -> its image, filled as apply meets it

    @property
    def context(self) -> SymbolContext:
        return self.symbol.context

    def apply(self, psi: GradedPolynomial) -> GradedPolynomial:
        """Σ c·image(m) over the terms c·m of ``psi``, summed into a fresh map."""
        if psi.context != self.context:
            raise TableMismatchError("operator and argument use different contexts")
        table, out = self._table, {}
        for mono, coeff in psi.terms.items():
            image = table.get(mono)
            if image is None:
                image = table[mono] = self._image(mono)
            _graded.add_into(out, image, coeff)
        return psi._new(out)

    def _image(self, mono: tuple) -> dict:
        """The image of one monomial: each symbol term's steps run on it, and
        the results summed in the symbol's monomial order."""
        odd = self.context.is_odd
        out: dict = {}
        for coeff, steps in self._terms:
            cur = {mono: _ONE}
            for step, slot in steps:
                cur = step(cur, slot, odd)
            _graded.add_into(out, cur, coeff)
        return out

    def commutator_apply(self, other: "GrassmannOperator", psi: GradedPolynomial):
        """Apply [self, other] to a polynomial."""
        return self.apply(other.apply(psi)) - other.apply(self.apply(psi))
