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
the slot of a symbol is its (declaration index, dot order) pair; products,
left derivatives and substitutions are the kernel's, with its transposition
signs.  This module adds names with dots, the formal time derivative, the
printer and the parser.

Each coefficient is exact or float on its own (:func:`lift`): ``int``,
``Fraction`` and ``CRational`` are kept exact as Gaussian rationals, so that
identities that hold, hold with residual exactly zero; ``float`` and
``complex`` pass through, and arithmetic that mixes the two degrades to
``complex``, as :class:`~spindeq.exact.CRational` does.  A claim of exactness
is checked where it is made, with :meth:`GradedPolynomial.is_exact`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import _graded
from .errors import OddPowerError, ParityError, ParseError, TableMismatchError, UnknownSymbolError
from .exact import CRational, I

ODD = "odd"
EVEN = "even"

# A symbol key is (base name, dot order); its slot is (declaration index, dot order).
SymKey = tuple[str, int]


@dataclass(frozen=True)
class SymbolDecl:
    name: str
    parity: str
    constant: bool = False


# The scalars a polynomial takes as coefficients, and the exact ones among them.
SCALARS = (int, float, complex, Fraction, CRational)
_EXACT = (int, Fraction, CRational)


def lift(value):
    """One coefficient: exact values as ``CRational``, floats as they are."""
    out = CRational._lift(value)
    if out is not None:
        return out
    if isinstance(value, (float, complex)):
        return value
    raise TypeError(f"polynomial coefficients must be numbers, got {type(value).__name__}")


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

    def declared(self, name: str) -> bool:
        return name in self._index

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
        if dot < 0:
            raise ValueError("dot order must be non-negative")
        return GradedPolynomial(self, {((self.slot((name, dot)), 1),): 1})

    def parse(self, text: str) -> "GradedPolynomial":
        return _Parser(self, text).parse()


class GradedPolynomial:
    """Finite sum of monomials over a context, each coefficient exact or float.

    ``terms`` maps monomials in the kernel's form, ``((slot, exponent),
    ...)`` sorted by slot, to coefficients.  The constructor
    ``GradedPolynomial(context, terms)`` checks that form and lifts each
    coefficient (:func:`lift`); results of algebra operations skip the
    check.  The context supplies ``is_odd``, the kernel's ``odd`` lookup,
    and ``has_slot``.  Operands over different contexts raise
    :class:`~spindeq.errors.TableMismatchError`.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: SymbolContext, terms: Mapping):
        self.context = context
        self.terms = _graded.checked(terms, context.is_odd, context.has_slot, lift)

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
        value = lift(value)
        return {(): value} if value else {}

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        """Whether every coefficient is exact (an int, Fraction or CRational)."""
        return all(isinstance(c, _EXACT) for c in self.terms.values())

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
            return self.terms == self._constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, SCALARS):
            addend = self._constant(other)
        elif isinstance(other, GradedPolynomial):
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

    def _scale(self, k):
        """self·k for a scalar k, NotImplemented for anything else."""
        if not isinstance(k, SCALARS):
            return NotImplemented
        k = lift(k)
        return self._new({mono: v for mono, c in self.terms.items() if (v := c * k)})

    # Per-layer tracing (bench/layers.py) wraps __mul__ in this class body, so
    # its span covers every graded product written with ``*``, exact or float;
    # scalar products call _scale and stay outside it.
    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            return self._scale(other)
        self._check(other)
        return self._new(_graded.mul(self.terms, other.terms, self.context.is_odd))

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        return self._new(_graded.power(self.terms, n, self.context.is_odd) if n else self._constant(1))

    def substitute(self, bindings: Mapping) -> "GradedPolynomial":
        """Replace symbols by polynomials of matching parity.

        Binding keys are symbol names or ``(name, dot)`` pairs; unbound
        symbols pass through.  Substitution is a graded ring homomorphism, so
        it commutes with products by construction.
        """
        odd = self.context.is_odd
        images = {}
        for key, element in bindings.items():
            slot = self.context.slot(key)
            self._check(element)
            if not element.is_zero() and element.parity() != odd[slot]:
                raise ParityError(f"binding for {key!r} has wrong parity")
            images[slot] = element.terms
        out: dict = {}
        for mono, c in self.terms.items():
            term = {(): c}
            for slot, exp in mono:
                image = images[slot] if slot in images else {((slot, 1),): 1}
                term = _graded.mul(term, _graded.power(image, exp, odd), odd)
            for m, v in term.items():
                out[m] = out[m] + v if m in out else v
        return self._new({mono: c for mono, c in out.items() if c})

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
        return self.terms.get(mono, lift(0)) * sign

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
    ctx = p.context
    out = ctx.zero()
    for name, dot in sorted(p.symbols_used()):
        if not ctx.decl(name).constant:
            out = out + ctx.sym(name, dot + 1) * partial_derivative(p, name, dot)
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


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _coeff_parts(c, has_mono: bool) -> tuple[str, str]:
    """Split a coefficient into a sign character and a printable body; a
    float or complex one prints as Python writes it, so never as exact."""
    if isinstance(c, (float, complex)):
        z = complex(c)
        if not z.imag:
            return ("-" if z.real < 0 else "+"), repr(abs(z.real))
        return "+", f"({z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}*i)"
    re_, im = c.re, c.im
    if im == 0:
        sign = "-" if re_ < 0 else "+"
        mag = abs(re_)
        body = "" if (mag == 1 and has_mono) else _frac_str(mag)
    elif re_ == 0:
        sign = "-" if im < 0 else "+"
        mag = abs(im)
        body = "i" if mag == 1 else f"{_frac_str(mag)}*i"
    else:
        sign = "+"
        im_mag = abs(im)
        im_body = "i" if im_mag == 1 else f"{_frac_str(im_mag)}*i"
        joiner = "+" if im > 0 else "-"
        body = f"({_frac_str(re_)}{joiner}{im_body})"
    return sign, body


def _factor_str(key: SymKey, exp: int) -> str:
    name, dot = key
    core = name
    for _ in range(dot):
        core = f"dot({core})"
    return core if exp == 1 else f"{core}^{exp}"


def format_poly(p: GradedPolynomial) -> str:
    """Deterministic text form; ``parse`` inverts it exactly for an exact
    polynomial."""
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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('-'|'+') unary | power
    power  := atom ('^' NUMBER)*
    atom   := NUMBER | 'i' | IDENT | 'dot' '(' expr ')' | '(' expr ')'

    Division is allowed only by nonzero constant subexpressions, which keeps
    everything inside the polynomial ring.  Signs are read in a loop, and
    parentheses and ``dot(...)`` may nest at most ``MAX_NESTING`` deep.
    """

    def __init__(self, ctx: SymbolContext, text: str):
        self.ctx = ctx
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> GradedPolynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return value

    def expr(self) -> GradedPolynomial:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.text == "+" else value - rhs
        return value

    def term(self) -> GradedPolynomial:
        value = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            if op.text == "*":
                value = self._checked_mul(value, rhs, op.pos)
            else:
                value = self._divide(value, rhs, op.pos)
        return value

    def unary(self) -> GradedPolynomial:
        negate = False
        while self.peek().text in ("-", "+"):
            negate ^= self.advance().text == "-"
        return -self.power() if negate else self.power()

    def power(self) -> GradedPolynomial:
        value = self.atom()
        while self.peek().text == "^":
            op = self.advance()
            tok = self.advance()
            if tok.kind != "num":
                raise ParseError("exponent must be an integer literal", tok.pos)
            n = int(tok.text)
            result = value**n
            if result.is_zero() and not value.is_zero() and n >= 2:
                raise OddPowerError("odd symbol raised to a power above one", op.pos)
            value = result
        return value

    def atom(self) -> GradedPolynomial:
        tok = self.advance()
        if tok.kind == "num":
            return self.ctx.const(int(tok.text))
        if tok.kind == "ident":
            if tok.text == "i":
                return self.ctx.imaginary()
            if tok.text == "dot":
                opener = self.advance()
                if opener.text != "(":
                    raise ParseError("expected '(' after dot", opener.pos)
                return formal_time_derivative(self.nested(opener))
            if not self.ctx.declared(tok.text):
                raise UnknownSymbolError(f"unknown symbol {tok.text!r}", tok.pos)
            return self.ctx.sym(tok.text)
        if tok.text == "(":
            return self.nested(tok)
        raise ParseError(f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def nested(self, opener: _Token) -> GradedPolynomial:
        """The expression after ``opener``, an opening parenthesis, up to its ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and dot(...) nested deeper than {MAX_NESTING}", opener.pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        closer = self.advance()
        if closer.text != ")":
            raise ParseError("expected ')'", closer.pos)
        return inner

    def _checked_mul(self, a, b, pos) -> GradedPolynomial:
        result = a * b
        if result.is_zero() and not a.is_zero() and not b.is_zero():
            raise OddPowerError("product vanishes: odd symbol squared", pos)
        return result

    def _divide(self, a, b, pos) -> GradedPolynomial:
        if not b.is_constant():
            raise ParseError("division only by numeric constants", pos)
        value = b.constant_part()
        if not value:
            raise ParseError("division by zero", pos)
        return a * (CRational(1) / value)


def parse(ctx: SymbolContext, text: str) -> GradedPolynomial:
    """Parse an expression in the context's symbols."""
    return _Parser(ctx, text).parse()
