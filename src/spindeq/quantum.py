"""Spin-1/2 quantum mechanics in one Grassmann algebra.

A state is ψ(ξ) = ψ0 + ψ1·ξ, identified with the column (ψ0, ψ1).  An
operator appears in four interchangeable forms:

* 2x2 matrix, nested tuples;
* normal-ordered symbol A(ξ, ξ̄) = α + βξ + γξ̄ + δξξ̄;
* word operator, the symbol acting on wavefunctions with ξ as (ξ·) and ξ̄
  as d/dξ, read in normal order (``GrassmannOperator``);
* integral kernel Ã(ξ, ξ′), applied by Berezin integration against ψ(ξ′).

All Grassmann work happens in one algebra, the context ``TABLE`` of the
odd symbols ξ, ξ̄ and their primed copies ξ′, ξ̄′: a wavefunction uses ξ, a symbol ξ and ξ̄, a
kernel ξ and ξ′, and the primed variables are the ones that the Berezin
integrals of kernel application and composition remove.  Its even
constants ``mu_b``, ``bx``, ``by``, ``bz``, ``c0`` and ``c1`` make a generic
field and state: states and forms are built by ring arithmetic, so an entry
may be a polynomial in them, and the maps back to numbers reject it.

The maps between the forms are exact.  Symbols of successive evolution
factors compose by a two-variable Berezin convolution
(``compose_symbols``); the n-th power of the short-time symbol 1 − i·ε·H̄
under that composition is the time-sliced propagator, whose error against
the closed-form evolution decays like 1/n in the slice count.

Symbols span 1, ξ, ξ̄, ξξ̄, so the convolution is fixed by its structure
constants on that basis (``symbol_structure_constants``, read off the
convolution), and ``sliced_symbol`` takes the power by repeated squaring.
A field builds its Hamiltonian once (``MagneticField.hamiltonian``), so every
slice count of one field reads the same symbol.

A float entry, say of a float field, enters a matrix form or a symbol at its
exact binary value, so every form is exact for every numeric field.  The
float oracles (``sliced_propagator``, ``magnetic_evolution``) need a numeric
field and are 2x2 tuples of ``complex``, acting like the exact matrices; no
numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import CRational, I
from .grassmann import GrassmannOperator, berezin_integral, product
from .symbols import EVEN, ODD, GradedPolynomial, SymbolContext

_CONSTANTS = ("mu_b", "bx", "by", "bz", "c0", "c1")
_NAMES = ("xi", "xibar", "xip", "xibarp")
TABLE = SymbolContext(
    [*((name, EVEN, True) for name in _CONSTANTS), *((name, ODD) for name in _NAMES)]
)
_XI, _XIBAR, _XIP, _XIBARP = (TABLE.sym(name) for name in _NAMES)

# Monomials 1, ξ, ξ̄, ξξ̄ of a symbol, whose first two are the 1, ξ of a
# wavefunction, and 1, ξ, ξ′, ξξ′ of a kernel.
_BASIS = tuple(TABLE.monomial(p) for p in ({}, {"xi": 1}, {"xibar": 1}, {"xi": 1, "xibar": 1}))
_KERNEL_BASIS = tuple(TABLE.monomial(p) for p in ({}, {"xi": 1}, {"xip": 1}, {"xi": 1, "xip": 1}))


def _coefficients(mv: GradedPolynomial, basis: tuple, what: str) -> tuple:
    """The coefficients of ``mv`` on ``basis``.  A polynomial off ``TABLE``
    or with a term outside the basis raises ``ValueError``, so no input is
    silently truncated."""
    if mv.context is not TABLE or not mv.terms.keys() <= set(basis):
        raise ValueError(f"not {what} on the quantum table: {mv!r}")
    return tuple(mv.terms.get(m, 0) for m in basis)


def _span(coefficients, basis: tuple) -> GradedPolynomial:
    """Σ c·e over the ``basis`` monomials e; each c a number or a polynomial in the constants."""
    return sum((c * GradedPolynomial(TABLE, {e: 1}) for c, e in zip(coefficients, basis)),
               TABLE.zero())


def _act(matrix, state: "SpinState") -> "SpinState":
    (a, b), (c, d) = matrix
    return SpinState(a * state.c0 + b * state.c1, c * state.c0 + d * state.c1)


def _finite(v) -> bool:
    try:
        return cmath.isfinite(complex(v))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


@dataclass(frozen=True)
class MagneticField:
    """Field vector and the magneton-like coupling in front of it: finite
    real numbers, or polynomials in ``TABLE``'s constants for the exact methods."""

    bx: object
    by: object
    bz: object
    mu_b: object = 1

    def __post_init__(self):
        for v in (self.bx, self.by, self.bz, self.mu_b):
            if isinstance(v, GradedPolynomial):
                if v.context is not TABLE or not v.symbols_used() <= {(c, 0) for c in _CONSTANTS}:
                    raise ValueError(f"not a polynomial in the quantum table's constants: {v!r}")
            elif not _finite(v):
                raise ValueError("field components and mu_b must be finite and fit in a float")
            elif complex(v).imag:
                raise ValueError(f"field components and mu_b must be real, got {v!r}")

    @classmethod
    def from_text(cls, text: str, mu_b=1.0) -> "MagneticField":
        """Parse "BX,BY,BZ"; what ``Fraction`` reads (3, 1/2, 0.3, 1e-3) stays
        exact, and anything else goes through ``float``."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three comma-separated components")

        def component(p: str):
            try:
                return Fraction(p)
            except ZeroDivisionError:
                raise ValueError(f"component {p!r} divides by zero") from None
            except ValueError:
                return float(p)

        return cls(*(component(p) for p in parts), mu_b=mu_b)

    def norm(self) -> float:
        if any(isinstance(v, GradedPolynomial) for v in (self.bx, self.by, self.bz, self.mu_b)):
            raise ValueError("the float oracles need a numeric field, not polynomials")
        return math.hypot(*(complex(v).real for v in (self.bx, self.by, self.bz)))

    def unit(self) -> tuple[float, float, float]:
        n = self.norm()
        if n == 0:
            raise ValueError("zero field has no direction")
        return tuple(complex(v).real / n for v in (self.bx, self.by, self.bz))

    def larmor_phase(self, t: float) -> float:
        return self.norm() * complex(self.mu_b).real * t

    @functools.cached_property
    def hamiltonian(self) -> "SpinOperator":
        """The field's spin Hamiltonian, by :func:`hamiltonian`, built once per field."""
        return hamiltonian(self)


@dataclass(frozen=True)
class SpinState:
    """ψ(ξ) = c0 + c1·ξ, i.e. the column (c0, c1)."""

    c0: object
    c1: object

    def as_multivector(self) -> GradedPolynomial:
        return _span((self.c0, self.c1), _BASIS)

    @classmethod
    def from_multivector(cls, mv: GradedPolynomial) -> "SpinState":
        return cls(*_coefficients(mv, _BASIS[:2], "a wavefunction of xi"))


@dataclass(frozen=True)
class SpinOperator:
    """One operator in matrix form and word-operator form together."""

    matrix: tuple
    word: GrassmannOperator

    def apply_matrix(self, state: SpinState) -> SpinState:
        return _act(self.matrix, state)


def _symbol(alpha, beta, gamma, delta) -> GradedPolynomial:
    """The normal-ordered symbol α + βξ + γξ̄ + δξξ̄."""
    return _span((alpha, beta, gamma, delta), _BASIS)


def _operator(symbol: GradedPolynomial) -> GrassmannOperator:
    """The operator of a normal-ordered symbol: ξ multiplies and ξ̄ acts as
    d/dξ; ξ is declared first, so ξξ̄ differentiates first."""
    return GrassmannOperator(symbol, {"xibar": ("xi", 1)})


def operator_from_matrix(matrix) -> SpinOperator:
    """The word operator with the given matrix, from its normal-ordered symbol.

    α = a00, β = a10, γ = a01, δ = a11 − a00 reproduce the matrix columns on
    the basis states 1 and ξ.
    """
    (a00, a01), (a10, a11) = matrix
    return SpinOperator(((a00, a01), (a10, a11)), _operator(_symbol(a00, a10, a01, a11 - a00)))


def ordered_symbol(op: SpinOperator) -> GradedPolynomial:
    """Normal-ordered symbol α + βξ + γξ̄ + δξξ̄ of ``op``: its word form's symbol."""
    return op.word.symbol


def spin_operators(hbar=1):
    """(Sx, Sy, Sz, N) with word operators built from their symbols directly.

    Sx = (ħ/2)(ξ + ξ̄), Sy = (iħ/2)(ξ − ξ̄), Sz = ħN, and N = 1/2 − ξξ̄ in
    normal order.  ħ defaults to 1 and may be any number, a float entering
    at its exact binary value: the matrix entries are exact.
    """
    half = CRational(Fraction(1, 2))
    h2, ih2 = half * hbar, I * (half * hbar)
    zero = h2 - h2
    number = _symbol(half, 0, 0, -1)
    return (
        SpinOperator(((zero, h2), (h2, zero)), _operator(_symbol(0, h2, h2, 0))),
        SpinOperator(((zero, -ih2), (ih2, zero)), _operator(_symbol(0, ih2, -ih2, 0))),
        SpinOperator(((h2, zero), (zero, -h2)), _operator(number * hbar)),
        SpinOperator(((half, zero), (zero, -half)), _operator(number)),
    )


def hamiltonian(b: MagneticField) -> SpinOperator:
    """Magnetic spin Hamiltonian in matrix and word-operator form.

    Matrix: −μ_B [[Bz, Bx−iBy], [Bx+iBy, −Bz]].
    Symbol: −μ_B [Bz + (Bx+iBy)·ξ + (Bx−iBy)·ξ̄ − 2Bz·ξξ̄].
    The two are built independently from the components.  The numeric
    entries are exact, a float component entering at its exact binary value.
    """
    mu = CRational(1) * b.mu_b  # exact even when mu_b and bz are both floats
    z, plus, minus = (mu * v for v in (b.bz, b.bx + I * b.by, b.bx - I * b.by))
    return SpinOperator(((-z, -minus), (-plus, z)), _operator(_symbol(-z, -plus, -minus, 2 * z)))


# -- symbol and kernel forms -------------------------------------------------------


def symbol_to_matrix(sym: GradedPolynomial) -> tuple:
    alpha, beta, gamma, delta = _coefficients(sym, _BASIS, "a symbol in xi, xibar")
    return ((alpha, gamma), (beta, alpha + delta))


def integral_kernel(op: SpinOperator) -> GradedPolynomial:
    """Kernel Ã(ξ, ξ′) with Ĥψ(ξ) = ∫dξ′ Ã(ξ, ξ′) ψ(ξ′)."""
    (a00, a01), (a10, a11) = op.matrix
    return _span((a01, -a11, a00, -a10), _KERNEL_BASIS)


def kernel_to_matrix(kern: GradedPolynomial) -> tuple:
    k0, k1, k2, k3 = _coefficients(kern, _KERNEL_BASIS, "a kernel in xi, xip")
    return ((k2, k0), (-k3, -k1))


# Each weight's exponent x squares to zero, so e^x = 1 + x.
_KERNEL_WEIGHT = 1 + product(_XIBAR, _XIP - _XI)


def kernel_from_symbol(sym: GradedPolynomial) -> GradedPolynomial:
    """Ã(ξ, ξ′) = ∫dξ̄ A(ξ, ξ̄) e^{ξ̄(ξ′−ξ)}."""
    _coefficients(sym, _BASIS, "a symbol in xi, xibar")
    return berezin_integral(product(sym, _KERNEL_WEIGHT), ["xibar"])


def apply_kernel(kern: GradedPolynomial, psi: GradedPolynomial) -> GradedPolynomial:
    """∫dξ′ Ã(ξ, ξ′) ψ(ξ′) as a wavefunction of ξ."""
    _coefficients(kern, _KERNEL_BASIS, "a kernel in xi, xip")
    _coefficients(psi, _BASIS[:2], "a wavefunction of xi")
    return berezin_integral(product(kern, psi.substitute({"xi": _XIP})), ["xip"])


_COMPOSE_WEIGHT = 1 + product(_XIBARP - _XIBAR, _XIP - _XI)


def compose_symbols(late: GradedPolynomial, early: GradedPolynomial) -> GradedPolynomial:
    """Symbol of the operator product (late ∘ early).

    U(ξ; ξ̄0) = ∫dξ′dξ̄′ e^{(ξ̄′−ξ̄0)(ξ′−ξ)} · late(ξ, ξ̄′) · early(ξ′, ξ̄0),
    the rightmost measure acting first.
    """
    for s in (late, early):
        _coefficients(s, _BASIS, "a symbol in xi, xibar")
    u1 = late.substitute({"xibar": _XIBARP})
    u2 = early.substitute({"xi": _XIP})
    integrand = product(product(_COMPOSE_WEIGHT, u1), u2)
    return berezin_integral(integrand, ["xip", "xibarp"])


# -- propagators -------------------------------------------------------------------


@functools.cache
def symbol_structure_constants() -> tuple[tuple[int, int, int, object], ...]:
    """Nonzero (i, j, k, c) with e_i ∘ e_j = Σ_k c·e_k on ``_BASIS``.

    Derived by running ``compose_symbols`` on every pair of basis symbols,
    so the entries are exact and the convolution stays their only source.
    """
    basis = [GradedPolynomial(TABLE, {e: 1}) for e in _BASIS]
    out = []
    for i, late in enumerate(basis):
        for j, early in enumerate(basis):
            terms = compose_symbols(late, early).terms
            for k, e in enumerate(_BASIS):
                if e in terms:
                    out.append((i, j, k, terms[e]))
    return tuple(out)


def _compose_near_identity(late: list, early: list, constants) -> list:
    """(1 + late) ∘ (1 + early) − 1 on coefficient vectors over ``_BASIS``,
    given the structure ``constants``.

    Carrying the offset from the identity symbol, not the symbol, keeps the
    O(ε) part of a short-time factor at full relative precision.
    """
    out = [a + b for a, b in zip(late, early)]
    for i, j, k, c in constants:
        out[k] += c * late[i] * early[j]
    return out


def sliced_symbol(b: MagneticField, t: float, n: int) -> GradedPolynomial:
    """Symbol of the n-slice propagator: (1 − i·(t/n)·H̄) composed n times.

    The n-th power is taken by repeated squaring over the structure
    constants of ``compose_symbols``, in O(log n) products.  Composition is
    associative, so every bracketing of the n factors gives the same symbol,
    and all powers of one symbol commute; squaring changes only the
    floating-point rounding: the powers are taken in ``complex``, and only the
    result is lifted.  Each power is carried as its offset from the
    identity symbol, which keeps the result within about 1e-15 of the exact
    power of the one-slice symbol.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("the slice count must be a positive integer")
    h_bar = ordered_symbol(b.hamiltonian)
    step = complex(0, -t / n)
    square = [complex(c) * step for c in _coefficients(h_bar, _BASIS, "a numeric symbol")]
    power = [0, 0, 0, 0]  # offsets from the identity symbol 1
    # The exact constants as complex, once: a CRational times a complex is
    # exact, so unconverted they would make the squaring exact, with operands
    # that double in size at every step.
    constants = [(i, j, k, complex(c)) for i, j, k, c in symbol_structure_constants()]
    while n:
        if n & 1:
            power = _compose_near_identity(power, square, constants)
        square = _compose_near_identity(square, square, constants)
        n >>= 1
    power[0] += 1
    return GradedPolynomial(TABLE, dict(zip(_BASIS, power)))


def sliced_propagator(b: MagneticField, t: float, n: int) -> tuple:
    """The n-slice propagator as a 2x2 matrix of ``complex``."""
    matrix = symbol_to_matrix(sliced_symbol(b, t, n))
    return tuple(tuple(complex(v) for v in row) for row in matrix)


def magnetic_evolution(b: MagneticField, t: float) -> tuple:
    """Closed-form evolution exp(−i·H·t) for the magnetic Hamiltonian, as a
    2x2 matrix of ``complex``.

    With φ = μ_B|B|t and n̂ the field direction this is
    cos(φ)·I + i·sin(φ)·(n̂·σ); the +i sign reflects the −μ_B coupling.
    """
    if b.norm() == 0:
        return ((1 + 0j, 0j), (0j, 1 + 0j))
    phi = b.larmor_phase(t)
    nx, ny, nz = b.unit()
    cos, i_sin = math.cos(phi), 1j * math.sin(phi)
    return (
        (cos + i_sin * nz, i_sin * (nx - 1j * ny)),
        (i_sin * (nx + 1j * ny), cos - i_sin * nz),
    )


def pauli_evolve(state: SpinState, b: MagneticField, t: float) -> SpinState:
    return _act(magnetic_evolution(b, t), state)


def kernel_propagate(psi: GradedPolynomial, b: MagneticField, t: float, n: int):
    """ψ(ξ, t) = ∫dξ0 Ũ(ξ, t; ξ0) ψ(ξ0) with the n-slice propagator."""
    kern = kernel_from_symbol(sliced_symbol(b, t, n))
    return apply_kernel(kern, psi)


def slicing_errors(b: MagneticField, t: float, slice_counts) -> list[tuple[int, float]]:
    """Max-element error of the sliced propagator against the closed form."""
    oracle = magnetic_evolution(b, t)
    return [
        (n, max(abs(x - y) for row, exact in zip(sliced_propagator(b, t, n), oracle)
                for x, y in zip(row, exact)))
        for n in slice_counts
    ]
