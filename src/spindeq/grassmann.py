"""Graded algebra with exact products and Berezin calculus.

A :class:`GeneratorTable` fixes an ordered list of generators, each either
odd (anticommuting, square zero) or even (commuting, any power).  A
:class:`Multivector` is a finite sum of monomials in those generators with
numeric coefficients; monomials are stored as exponent vectors in table
order, which is the canonical normal form.  Products, powers and
substitutions are exact: no power of an even generator is ever dropped.

Sign conventions, fixed once here and relied on everywhere above:

* reordering a product into table order contributes ``(-1)`` per
  transposition of two odd generators;
* derivatives are left derivatives: the generator is commuted to the front
  of the monomial and then struck;
* ``berezin_integral(a, [g1, g2])`` integrates the *rightmost* measure
  first, i.e. it equals the iterated left derivative ``d_g1 d_g2 a``.

Coefficients may be exact (:class:`~spindeq.exact.CRational`, ``int``,
``Fraction``) or floating (``float``, ``complex``); they may be mixed, in
which case arithmetic degrades to ``complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    ParityError,
    TableMismatchError,
    UnknownGeneratorError,
)
from .exact import CRational

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class Generator:
    name: str
    parity: str


class GeneratorTable:
    """Ordered set of generators defining one graded algebra.

    Entries are ``(name, parity)`` pairs.
    """

    __slots__ = ("_gens", "_index", "_odd")

    def __init__(self, entries: Iterable[Sequence]):
        gens = []
        index = {}
        for entry in entries:
            name, parity = entry
            if parity not in (ODD, EVEN):
                raise ParityError(f"parity must be 'odd' or 'even', got {parity!r}")
            if name in index:
                raise ValueError(f"duplicate generator name {name!r}")
            index[name] = len(gens)
            gens.append(Generator(name, parity))
        self._gens = tuple(gens)
        self._index = index
        self._odd = tuple(i for i, g in enumerate(gens) if g.parity == ODD)

    @classmethod
    def odd(cls, *names: str) -> "GeneratorTable":
        return cls((n, ODD) for n in names)

    def __len__(self) -> int:
        return len(self._gens)

    def __iter__(self):
        return iter(self._gens)

    def __getitem__(self, i: int) -> Generator:
        return self._gens[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorTable):
            return NotImplemented
        return self._gens == other._gens

    def __hash__(self):
        return hash(self._gens)

    def __repr__(self):
        body = ", ".join(f"{g.name}:{g.parity}" for g in self._gens)
        return f"GeneratorTable({body})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self._gens)

    @property
    def odd_indices(self) -> tuple[int, ...]:
        return self._odd

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    def parity(self, i: int) -> str:
        return self._gens[i].parity

    # -- multivector constructors -------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def scalar(self, value) -> "Multivector":
        return Multivector(self, {(0,) * len(self._gens): value})

    def gen(self, name: str) -> "Multivector":
        i = self.index(name)
        exps = [0] * len(self._gens)
        exps[i] = 1
        return Multivector(self, {tuple(exps): 1})

    def term(self, coeff, **powers: int) -> "Multivector":
        """One monomial, e.g. ``table.term(2, xi=1, xibar=1)``."""
        exps = [0] * len(self._gens)
        for name, e in powers.items():
            exps[self.index(name)] = e
        return Multivector(self, {tuple(exps): coeff})


def _lift_coeff(c):
    # Fraction lacks arithmetic against complex; CRational interoperates.
    if isinstance(c, Fraction):
        return CRational(c)
    return c


class Multivector:
    """Element of the graded algebra over a :class:`GeneratorTable`.

    Immutable by convention: all operations return fresh instances and the
    term map is normalized (no zero coefficients, no negative exponent, no
    odd exponent above 1).
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: Mapping[tuple, object]):
        clean = {}
        n = len(table)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length for table")
            for i, e in enumerate(exps):
                if e < 0 or (e > 1 and table.parity(i) == ODD):
                    raise ValueError(
                        f"exponent {e} out of range for generator {table[i].name!r}"
                    )
            coeff = _lift_coeff(coeff)
            if coeff == 0:
                continue
            if exps in clean:
                coeff = clean[exps] + coeff
                if coeff == 0:
                    del clean[exps]
                    continue
            clean[exps] = coeff
        self.table = table
        self.terms = clean

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self):
        return self.terms.get((0,) * len(self.table), 0)

    def coefficient(self, **powers: int):
        exps = [0] * len(self.table)
        for name, e in powers.items():
            exps[self.table.index(name)] = e
        return self.terms.get(tuple(exps), 0)

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        seen = set()
        odd = self.table.odd_indices
        for exps in self.terms:
            seen.add(sum(exps[i] for i in odd) % 2)
        if len(seen) == 1:
            return seen.pop()
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, Multivector):
            return self.table == other.table and self.terms == other.terms
        if isinstance(other, (int, float, complex, Fraction, CRational)):
            return self == self.table.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<mv 0>"
        names = self.table.names
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
            )
            c = self.terms[exps]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "<mv " + " + ".join(bits) + ">"

    # -- ring operations ----------------------------------------------------

    def _check_table(self, other: "Multivector"):
        if self.table != other.table:
            raise TableMismatchError("multivectors built over different tables")

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction, CRational)):
            other = self.table.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_table(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Multivector(self.table, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return other + (-1) * self

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, CRational)):
            return Multivector(
                self.table, {e: c * _lift_coeff(other) for e, c in self.terms.items()}
            )
        if not isinstance(other, Multivector):
            return NotImplemented
        return product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, CRational)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        out = self.table.scalar(1)
        for _ in range(n):
            out = product(out, self)
        return out

    # -- substitution --------------------------------------------------------

    def substitute(
        self,
        bindings: Mapping[str, "Multivector"],
        table: GeneratorTable | None = None,
    ) -> "Multivector":
        """Replace generators by multivectors.

        Every binding must be parity-homogeneous and match the parity of the
        generator it replaces.  ``table`` selects the target table (default:
        this one); unbound generators must exist in the target under the same
        name and parity.
        """
        target = table if table is not None else self.table
        bound = {}
        for name, mv in bindings.items():
            i = self.table.index(name)
            if mv.table != target:
                raise TableMismatchError("binding built over a different table")
            p = mv.parity()
            if not mv.is_zero() and p != (1 if self.table.parity(i) == ODD else 0):
                raise ParityError(f"binding for {name!r} has wrong parity")
            bound[i] = mv
        out = target.zero()
        for exps, coeff in self.terms.items():
            term = target.scalar(coeff)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i in bound:
                    factor = bound[i] ** e
                else:
                    factor = target.gen(self.table[i].name) ** e
                term = product(term, factor)
            out = out + term
        return out


def _merge_sign(odd_indices, ea, eb) -> int:
    """Sign from merging canonical words a and b into canonical order.

    Counts pairs of odd generators (i in a, j in b) with i > j; each such
    pair is one transposition.
    """
    swaps = 0
    for pos, j in enumerate(odd_indices):
        if not eb[j]:
            continue
        for i in odd_indices[pos + 1 :]:
            if ea[i]:
                swaps += 1
    return -1 if swaps % 2 else 1


def product(a: Multivector, b: Multivector) -> Multivector:
    """Graded product; exact, since even generators have no truncation."""
    a._check_table(b)
    table = a.table
    odd = table.odd_indices
    terms: dict[tuple, object] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if any(ea[i] and eb[i] for i in odd):
                continue
            c = ca * cb * _merge_sign(odd, ea, eb)
            key = tuple([x + y for x, y in zip(ea, eb)])
            if key in terms:
                terms[key] = terms[key] + c
            else:
                terms[key] = c
    return Multivector(table, terms)


def left_derivative(a: Multivector, gen: str) -> Multivector:
    """Left derivative with respect to one generator.

    For an odd generator the monomial picks up ``(-1)`` for every odd
    generator standing before it in canonical order; for an even generator
    this is the ordinary partial derivative.
    """
    table = a.table
    g = table.index(gen)
    odd = table.odd_indices
    terms: dict[tuple, object] = {}
    if table.parity(g) == ODD:
        for exps, c in a.terms.items():
            if not exps[g]:
                continue
            before = sum(1 for i in odd if i < g and exps[i])
            if before % 2:
                c = c * -1
            new = list(exps)
            new[g] = 0
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c
    else:
        for exps, c in a.terms.items():
            if not exps[g]:
                continue
            new = list(exps)
            new[g] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c * exps[g]
    return Multivector(table, terms)


def berezin_integral(a: Multivector, gens: Sequence[str]) -> Multivector:
    """Iterated Berezin integral; the rightmost measure acts first.

    Equal to the iterated left derivative: ``berezin_integral(a, [g1, g2])``
    is ``d_g1 (d_g2 a)``.
    """
    table = a.table
    for g in gens:
        if table.parity(table.index(g)) != ODD:
            raise ParityError(f"Berezin integration requires odd generators, got {g!r}")
    out = a
    for g in reversed(list(gens)):
        out = left_derivative(out, g)
    return out


def graded_exp(a: Multivector) -> Multivector:
    """Exponential of an even-parity multivector.

    Splits off the scalar part s and sums the finite nilpotent series for
    exp(a - s); the prefactor exp(s) stays exact when s is exactly zero.
    Every term of a nilpotent even n holds at least two odd generators, so
    n^k vanishes once 2k exceeds their count; an n whose power does not
    vanish by then (a pure power of an even generator, say) is rejected.
    """
    p = a.parity()
    if p == 1 or p is None and not a.is_zero():
        raise ParityError("graded_exp requires an even-parity argument")
    table = a.table
    s = a.scalar_part()
    n = a - table.scalar(s)
    out = table.scalar(1)
    power = table.scalar(1)
    for k in range(1, len(table.odd_indices) // 2 + 2):
        power = product(power, n)
        if power.is_zero():
            break
        inv_fact = Fraction(1, math.factorial(k))
        out = out + power * inv_fact
    else:
        raise ParityError("graded_exp requires a nilpotent non-scalar part")
    if s != 0:
        import cmath

        out = out * cmath.exp(complex(s))
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
