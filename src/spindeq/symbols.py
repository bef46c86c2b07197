"""Graded polynomials in named symbols: the one element class.

This layer carries the symbolic identities.  Symbols are declared in a
:class:`SymbolContext` with a parity and an optional ``constant`` flag
(constants have vanishing time derivative).  Dotted symbols -- formal time
derivatives such as ``dot(q)`` -- need no declaration: they inherit the
parity of their base symbol and sort immediately after it.  A context is
the one algebra class of the package, and :class:`GradedPolynomial` its one
element class: quantum symbols, superfields, the CPI Hamiltonian and the
wavefunctions it acts on are all graded polynomials.

Monomials take the one form of the graded-algebra kernel
:mod:`spindeq._graded`, ``((slot, exponent), ...)`` sorted by slot, where
the slot of a symbol is its (declaration index, dot order) pair; sums,
products, left derivatives and substitutions are the kernel's, with its
transposition signs.  This module adds names with dots, the formal time
derivative, the printer and the parser.  The parser works on kernel term
maps throughout and wraps its result once, so text never passes through the
checked constructor or through ``GradedPolynomial`` arithmetic.

Every coefficient is an exact Gaussian rational, a
:class:`~spindeq.exact.CRational`, so that identities that hold, hold with
residual exactly zero.  A float enters at its exact binary value: the
public constructor, scalar operands and scalar factors all go through
:func:`~spindeq.exact.crational`, the one coercion of a number into the
algebra.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log10
from typing import Iterable, Mapping

from . import _graded
from .errors import (
    FormatError,
    OddPowerError,
    ParityError,
    ParseError,
    TableMismatchError,
    UnknownSymbolError,
)
from .exact import CRational, I, crational

ODD = "odd"
EVEN = "even"

# A symbol key is (base name, dot order); its slot is (declaration index, dot order).
SymKey = tuple[str, int]


@dataclass(frozen=True)
class SymbolDecl:
    name: str
    parity: str
    constant: bool = False


# The scalars a polynomial takes, each lifted by ``crational``.
SCALARS = (int, float, complex, Fraction, CRational)
_ONE = crational(1)


# Deepest nesting of parentheses and dot(...) that the parser accepts; each
# level costs a few Python frames.
MAX_NESTING = 50


class _OddSlots(dict):
    """The kernel's odd lookup over slots, filled on first use: a dotted
    symbol has the parity of its base."""

    __slots__ = ("decls",)

    def __init__(self, decls: list):
        super().__init__()
        self.decls = decls

    def __missing__(self, slot) -> bool:
        odd = self[slot] = self.decls[slot[0]].parity == ODD
        return odd


class SymbolContext:
    """Registry fixing the symbols of one problem and their order."""

    __slots__ = ("_decls", "_index", "is_odd")

    def __init__(self, decls: Iterable[tuple] = ()):
        self._decls: list[SymbolDecl] = []
        self._index: dict[str, int] = {}
        self.is_odd = _OddSlots(self._decls)
        for entry in decls:
            self.declare(*entry)

    def declare(self, name: str, parity: str, constant: bool = False) -> None:
        if parity not in (ODD, EVEN):
            raise ParityError(f"parity must be 'odd' or 'even', got {parity!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in ("i", "dot"):
            raise ValueError(f"invalid symbol name {name!r}")
        decl = SymbolDecl(name, parity, constant)
        if name in self._index:
            if self.decl(name) != decl:
                raise ValueError(f"conflicting redeclaration of {name!r}")
            return
        self._index[name] = len(self._decls)
        self._decls.append(decl)

    def decl(self, name: str) -> SymbolDecl:
        try:
            return self._decls[self._index[name]]
        except KeyError:
            raise UnknownSymbolError(f"undeclared symbol {name!r}") from None

    def slot(self, key) -> tuple[int, int]:
        """Slot of a symbol name or ``(name, dot)`` key."""
        name, dot = (key, 0) if isinstance(key, str) else key
        self.decl(name)  # rejects an undeclared name
        return (self._index[name], dot)

    def key(self, slot: tuple[int, int]) -> SymKey:
        return (self._decls[slot[0]].name, slot[1])

    def has_slot(self, slot) -> bool:
        return (
            isinstance(slot, tuple)
            and len(slot) == 2
            and 0 <= slot[0] < len(self._decls)
            and isinstance(slot[1], int)
            and slot[1] >= 0
        )

    def monomial(self, powers: Mapping) -> tuple:
        """The monomial with the given exponent on each symbol name or
        ``(name, dot)`` key, in the kernel's form."""
        return tuple(sorted((self.slot(key), e) for key, e in powers.items() if e))

    # -- polynomial constructors ---------------------------------------------

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial._wrap(self, {})

    def const(self, value) -> "GradedPolynomial":
        return GradedPolynomial(self, {(): value})

    def imaginary(self) -> "GradedPolynomial":
        return self.const(I)

    def sym(self, name: str, dot: int = 0) -> "GradedPolynomial":
        if isinstance(dot, bool) or not isinstance(dot, int) or dot < 0:
            raise ValueError(f"dot order must be a non-negative integer, got {dot!r}")
        return GradedPolynomial._wrap(self, {((self.slot((name, dot)), 1),): _ONE})

    def parse(self, text: str) -> "GradedPolynomial":
        return _Parser(self, text).parse()


class GradedPolynomial:
    """Finite sum of monomials over a context with exact coefficients.

    ``terms`` maps monomials in the kernel's form, ``((slot, exponent),
    ...)`` sorted by slot, to ``CRational`` coefficients.  The constructor
    ``GradedPolynomial(context, terms)`` checks that form and lifts each
    coefficient (:func:`~spindeq.exact.crational`); results of algebra
    operations skip the check.  The context supplies ``is_odd``, the
    kernel's ``odd`` lookup, and ``has_slot``.  Operands over different
    contexts raise :class:`~spindeq.errors.TableMismatchError`.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: SymbolContext, terms: Mapping):
        self.context = context
        self.terms = _graded.checked(terms, context.is_odd, context.has_slot, crational)

    @classmethod
    def _wrap(cls, context: SymbolContext, terms: dict):
        """The trusted constructor: wraps a kernel result without checking it."""
        out = object.__new__(cls)
        out.context = context
        out.terms = terms
        return out

    def _new(self, terms: dict):
        return self._wrap(self.context, terms)

    def _check(self, other):
        if self.context != other.context:
            raise TableMismatchError("GradedPolynomial operands over different contexts")

    def _constant(self, value) -> dict:
        value = crational(value)
        return {(): value} if value else {}

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_part(self):
        return self.terms.get((), 0)

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        odd = self.context.is_odd
        seen = {sum(e for slot, e in mono if odd[slot]) & 1 for mono in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPolynomial):
            return self.context == other.context and self.terms == other.terms
        if isinstance(other, SCALARS):
            try:
                return self.terms == self._constant(other)
            except ValueError:  # a float that is not finite equals no polynomial
                return False
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _operand(self, other) -> dict | None:
        """The term map of a scalar or of a polynomial over this context,
        None for anything else."""
        if isinstance(other, SCALARS):
            return self._constant(other)
        if isinstance(other, GradedPolynomial):
            self._check(other)
            return other.terms
        return None

    def _sum(self, x: dict | None, y: dict | None, k: int):
        """x + k·y as a polynomial, NotImplemented when an operand is None."""
        if x is None or y is None:
            return NotImplemented
        return self._new(_graded.add_into(dict(x), y, k))

    def __add__(self, other):
        return self._sum(self.terms, self._operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(self.terms, self._operand(other), -1)

    def __rsub__(self, other):
        return self._sum(self._operand(other), self.terms, -1)

    def __neg__(self):
        return self._sum({}, self.terms, -1)

    def _scale(self, k):
        """self·k for a scalar k, NotImplemented for anything else; an int k
        stays an int, so an exact coefficient takes its one-gcd product."""
        if not isinstance(k, SCALARS):
            return NotImplemented
        return self._new(_graded.add_into({}, self.terms, k if type(k) is int else crational(k)))

    __rmul__ = _scale  # k * p: a scalar on the left, never a polynomial

    # Per-layer tracing (bench/layers.py) wraps __mul__ in this class body, so
    # its span covers every product written p * q or p * k;
    # k * p calls _scale alone and stays outside it.
    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            return self._scale(other)
        self._check(other)
        return self._new(_graded.mul(self.terms, other.terms, self.context.is_odd))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        return self._new(_graded.power(self.terms, n, self.context.is_odd) if n else self._constant(1))

    def substitute(self, bindings: Mapping) -> "GradedPolynomial":
        """Replace symbols by polynomials of matching parity.

        Binding keys are symbol names or ``(name, dot)`` pairs; unbound
        symbols pass through.  Substitution is a graded ring homomorphism, so
        it commutes with products by construction.

        Each power of a binding that some monomial needs is built once per
        call, on an ascending ladder over the exponents in use: X^{e_k} =
        X^{e_{k-1}} · X^{e_k - e_{k-1}}, the step by repeated squaring.
        Consecutive exponents cost one product each, and a lone huge one
        stays O(log n).  Each term's image is the kernel product of its
        factors' images, built from the right, so the kernel fixes every
        sign: an unbound factor joins from the left by
        :func:`_graded.left_multiply`, which multiplies no coefficient, and a
        bound factor as its ladder power times the image so far.
        """
        odd = self.context.is_odd
        images = {}
        for key, element in bindings.items():
            slot = self.context.slot(key)
            self._check(element)
            if not element.is_zero() and element.parity() != odd[slot]:
                raise ParityError(f"binding for {key!r} has wrong parity")
            images[slot] = element.terms
        needed: dict = {}
        for mono in self.terms:
            for slot, exp in mono:
                if slot in images:
                    needed.setdefault(slot, set()).add(exp)
        powers = {}  # (slot, exponent) -> the image of that factor
        for slot, exps in needed.items():
            last = 0
            for e in sorted(exps):
                step = _graded.power(images[slot], e - last, odd)
                powers[slot, e] = _graded.mul(powers[slot, last], step, odd) if last else step
                last = e
        out: dict = {}
        for mono, c in self.terms.items():
            term = {(): c}
            for slot, exp in reversed(mono):
                if slot in images:
                    term = _graded.mul(powers[slot, exp], term, odd)
                else:
                    term = _graded.left_multiply(term, slot, odd, exp)
            _graded.add_into(out, term)
        return self._new(out)

    def coefficient(self, factors):
        """Coefficient of one monomial, with the sign of reordering into it.

        ``factors`` maps symbol names (or ``(name, dot)`` keys) to exponents.
        """
        ctx = self.context
        sign, mono = 1, ()  # the product of the factors: a sign times the monomial
        for key, exp in dict(factors).items():
            for _ in range(exp):
                step, mono = _graded.merge(mono, ((ctx.slot(key), 1),), ctx.is_odd)
                sign *= step
        if not sign:
            raise ValueError("requested monomial vanishes identically")
        return self.terms.get(mono, crational(0)) * sign

    def symbols_used(self) -> set[SymKey]:
        return {self.context.key(slot) for mono in self.terms for slot, _ in mono}

    def __repr__(self):
        return f"<poly {format_poly(self)}>"

    def __str__(self):
        return format_poly(self)


def formal_time_derivative(p: GradedPolynomial) -> GradedPolynomial:
    """Formal d/dt, the even derivation Σ_s dot(s)·∂_s over the symbols s
    of ``p``, with ∂_s the left derivative; it raises dot orders by one.

    Time is an even parameter, so d/dt takes no Koszul sign: ``dot(s)`` has
    the parity of s and stands where s stood.  Symbols declared ``constant``
    are annihilated.
    """
    return p._new(_time_derivative(p.context, p.terms))


def _time_derivative(ctx: SymbolContext, terms: dict) -> dict:
    """:func:`formal_time_derivative` on a term map, summed into one dict."""
    odd, out = ctx.is_odd, {}
    for slot in sorted({slot for mono in terms for slot, _ in mono}, key=ctx.key):
        if ctx._decls[slot[0]].constant:
            continue
        derivative = _graded.left_derivative(terms, slot, odd)
        _graded.add_into(out, _graded.left_multiply(derivative, (slot[0], slot[1] + 1), odd))
    return out


def partial_derivative(p: GradedPolynomial, name: str, dot: int = 0) -> GradedPolynomial:
    """Left derivative with respect to one symbol (see :mod:`spindeq._graded`)."""
    ctx = p.context
    return p._new(_graded.left_derivative(p.terms, ctx.slot((name, dot)), ctx.is_odd))


def substitute(p: GradedPolynomial, bindings: Mapping) -> GradedPolynomial:
    """``p.substitute(bindings)``: see :meth:`GradedPolynomial.substitute`."""
    return p.substitute(bindings)


def bind_constants(p: GradedPolynomial, values: Mapping[str, object]) -> GradedPolynomial:
    """Substitute numeric values for (even) symbols."""
    ctx = p.context
    bindings = {name: ctx.const(v) for name, v in values.items()}
    return substitute(p, bindings)


# -- printing -------------------------------------------------------------------


def _int_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # longer than the interpreter converts
        n = abs(n)
        digits = int((n.bit_length() - 1) * log10(2)) + 1  # exact or one short
        digits += n >= 10**digits
        raise FormatError(
            f"a coefficient has {digits} digits, more than the "
            f"{sys.get_int_max_str_digits()} that can be printed"
        ) from None


def _frac_str(num: int, den: int) -> str:
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def _coeff_parts(c, has_mono: bool) -> tuple[str, str]:
    """Split a coefficient into a sign character and a printable body."""
    a, b, d = c.normal_form
    g, h = gcd(a, d), gcd(b, d)  # each part a/p, b/q in lowest terms
    a, p, b, q = a // g, d // g, b // h, d // h
    if not b:
        body = "" if (abs(a) == 1 and p == 1 and has_mono) else _frac_str(abs(a), p)
        return ("-" if a < 0 else "+"), body
    im_body = "i" if (abs(b) == 1 and q == 1) else f"{_frac_str(abs(b), q)}*i"
    if not a:
        return ("-" if b < 0 else "+"), im_body
    return "+", f"({_frac_str(a, p)}{'+' if b > 0 else '-'}{im_body})"


def _factor_str(key: SymKey, exp: int) -> str:
    name, dot = key
    core = name
    for _ in range(dot):
        core = f"dot({core})"
    return core if exp == 1 else f"{core}^{exp}"


def format_poly(p: GradedPolynomial) -> str:
    """Deterministic text form; ``parse`` inverts it exactly."""
    if not p.terms:
        return "0"
    ctx = p.context

    pieces = []
    for mono in sorted(p.terms, key=lambda m: (sum(e for _, e in m), m)):
        coeff = p.terms[mono]
        sign, body = _coeff_parts(coeff, has_mono=bool(mono))
        factors = "*".join(_factor_str(ctx.key(slot), e) for slot, e in mono)
        if body and factors:
            text = f"{body}*{factors}"
        else:
            text = factors or body or "1"
        pieces.append((sign, text))
    first_sign, first_text = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_text
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


# -- parsing --------------------------------------------------------------------

# Tokens are numerals, identifiers and single-character operators; whitespace
# separates them and is skipped.  _STRAY matches a character no token takes.
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]")
_STRAY = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('-'|'+') unary | power
    power  := atom ('^' NUMBER)*
    atom   := NUMBER | 'i' | IDENT | 'dot' '(' expr ')' | '(' expr ')'

    Every rule returns a kernel term map, which :meth:`parse` wraps once.
    The text is tokenized by one ``findall``; a token's position is recovered
    only when an error reports it.  Atoms are built unchecked from the
    context's slots; a product of two one-term factors is one monomial
    merge, a power of a one-term factor scales its exponents, and only
    multi-term factors reach the kernel's products.  Each ``expr`` adds its
    terms into one dict with the kernel's sum.

    Division is allowed only by nonzero constant subexpressions, which keeps
    everything inside the polynomial ring.  A product or power of nonzero
    factors that vanishes raises :class:`OddPowerError`.  Signs are read in a
    loop, and parentheses and ``dot(...)`` may nest at most ``MAX_NESTING``
    deep.
    """

    __slots__ = ("ctx", "odd", "text", "tokens", "k", "depth")

    def __init__(self, ctx: SymbolContext, text: str):
        stray = _STRAY.search(text)
        if stray is not None:
            raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
        self.ctx = ctx
        self.odd = ctx.is_odd
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")  # the end of the input
        self.k = 0
        self.depth = 0

    def position(self, k: int) -> int:
        """The offset in the text of token ``k``; the end marker's is the length."""
        for j, match in enumerate(_TOKEN.finditer(self.text)):
            if j == k:
                return match.start()
        return len(self.text)

    def parse(self) -> GradedPolynomial:
        terms = self.expr()
        tok = self.tokens[self.k]
        if tok:
            raise ParseError(f"unexpected token {tok!r}", self.position(self.k))
        return GradedPolynomial._wrap(self.ctx, terms)

    def expr(self) -> dict:
        out = self.term()
        while (op := self.tokens[self.k]) in ("+", "-"):
            self.k += 1
            _graded.add_into(out, self.term(), 1 if op == "+" else -1)
        return out

    def term(self) -> dict:
        value = self.unary()
        while (op := self.tokens[self.k]) in ("*", "/"):
            at = self.k
            self.k += 1
            rhs = self.unary()
            value = self.product(value, rhs, at) if op == "*" else self.quotient(value, rhs, at)
        return value

    def unary(self) -> dict:
        """The rules unary and power in one: signs, an atom, then its powers."""
        negate = False
        while (sign := self.tokens[self.k]) in ("-", "+"):
            negate ^= sign == "-"
            self.k += 1
        value = self.atom()
        while self.tokens[self.k] == "^":
            at = self.k
            self.k += 2
            if not self.tokens[at + 1].isdecimal():
                raise ParseError("exponent must be an integer literal", self.position(at + 1))
            n = self.integer(at + 1)
            result = self.raised(value, n)
            if not result and value and n >= 2:
                raise OddPowerError("odd symbol raised to a power above one", self.position(at))
            value = result
        return {mono: -c for mono, c in value.items()} if negate else value

    def atom(self) -> dict:
        k = self.k
        tok = self.tokens[k]
        self.k = k + 1
        index = self.ctx._index.get(tok)
        if index is not None:
            return {(((index, 0), 1),): _ONE}
        if tok.isdecimal():
            n = self.integer(k)
            return {(): crational(n)} if n else {}
        if tok == "i":
            return {(): I}
        if tok == "dot":
            if self.tokens[k + 1] != "(":
                raise ParseError("expected '(' after dot", self.position(k + 1))
            self.k = k + 2
            return _time_derivative(self.ctx, self.nested(k + 1))
        if tok.isidentifier():
            raise UnknownSymbolError(f"unknown symbol {tok!r}", self.position(k))
        if tok == "(":
            return self.nested(k)
        message = f"expected a value, got {tok!r}" if tok else "unexpected end of input"
        raise ParseError(message, self.position(k))

    def nested(self, opener: int) -> dict:
        """The expression after token ``opener``, an opening parenthesis, up to its ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses and dot(...) nested deeper than {MAX_NESTING}", self.position(opener)
            )
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        if self.tokens[self.k] != ")":
            raise ParseError("expected ')'", self.position(self.k))
        self.k += 1
        return inner

    def integer(self, k: int) -> int:
        """The value of numeral token ``k``."""
        tok = self.tokens[k]
        try:
            return int(tok)
        except ValueError:  # longer than the interpreter converts
            raise ParseError(
                f"integer literal {tok[:12]}... has {len(tok)} digits, more than the "
                f"{sys.get_int_max_str_digits()} accepted",
                self.position(k),
            ) from None

    def raised(self, value: dict, n: int) -> dict:
        if not n:
            return {(): _ONE}
        if n == 1:
            return value
        if len(value) != 1:
            return _graded.power(value, n, self.odd)
        ((mono, c),) = value.items()
        if any(self.odd[slot] for slot, _ in mono):
            return {}
        if c is not _ONE:
            (c,) = _graded.power({(): c}, n, self.odd).values()
        return {tuple((slot, e * n) for slot, e in mono): c}

    def product(self, a: dict, b: dict, at: int) -> dict:
        if len(a) == 1 and len(b) == 1:
            ((ma, ca),), ((mb, cb),) = a.items(), b.items()
            sign, mono = _graded.merge(ma, mb, self.odd)
            c = cb if ca is _ONE else ca if cb is _ONE else ca * cb
            result = {mono: c if sign > 0 else -c} if sign else {}
        else:
            result = _graded.mul(a, b, self.odd)
        if not result and a and b:
            raise OddPowerError("product vanishes: odd symbol squared", self.position(at))
        return result

    def quotient(self, a: dict, b: dict, at: int) -> dict:
        if any(b):
            raise ParseError("division only by numeric constants", self.position(at))
        value = b.get(())
        if not value:
            raise ParseError("division by zero", self.position(at))
        return {mono: c / value for mono, c in a.items()}


def parse(ctx: SymbolContext, text: str) -> GradedPolynomial:
    """Parse an expression in the context's symbols."""
    return _Parser(ctx, text).parse()
