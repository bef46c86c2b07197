"""Spin-1/2 quantum mechanics in one Grassmann algebra.

A state is ψ(ξ) = ψ0 + ψ1·ξ, identified with the column (ψ0, ψ1).  An
operator appears in four interchangeable forms:

* 2x2 matrix (nested tuples, exact coefficients when the inputs are exact);
* normal-ordered word operator α + β·ξ̂ + γ·ξ̄̂ + δ·ξ̂ξ̄̂ with ξ̂ = (ξ·) and
  ξ̄̂ = d/dξ, acting on wavefunctions;
* normal-ordered symbol A(ξ, ξ̄) = α + βξ + γξ̄ + δξξ̄;
* integral kernel Ã(ξ, ξ′), applied by Berezin integration against ψ(ξ′).

All Grassmann work happens in one algebra, the context ``TABLE`` of the
odd symbols ξ, ξ̄ and their primed copies ξ′, ξ̄′: a wavefunction uses ξ, a symbol ξ and ξ̄, a
kernel ξ and ξ′, and the primed variables are the ones that the Berezin
integrals of kernel application and composition remove.

The maps between the forms are exact.  Symbols of successive evolution
factors compose by a two-variable Berezin convolution
(``compose_symbols``); the n-th power of the short-time symbol 1 − i·ε·H̄
under that composition is the time-sliced propagator, whose error against
the closed-form evolution decays like 1/n in the slice count.

Symbols span the four basis monomials 1, ξ, ξ̄, ξξ̄, so the convolution is
a bilinear map fixed by its structure constants on that basis.  They are
read off ``compose_symbols`` itself on the 16 basis pairs, once, on first
use; the convolution stays the only definition of composition.  Because it
is associative, the n-th power can be taken by repeated squaring, in
O(log n) four-term products, with no change to the result beyond rounding.

The float oracles (``as_vector``, ``sliced_propagator``,
``magnetic_evolution``) import numpy on first use.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import CRational, I
from .grassmann import GrassmannOperator, Multivector, berezin_integral, product
from .symbols import ODD, SymbolContext

_NAMES = ("xi", "xibar", "xip", "xibarp")
TABLE = SymbolContext((name, ODD) for name in _NAMES)
_XI, _XIBAR, _XIP, _XIBARP = (Multivector.gen(TABLE, name) for name in _NAMES)

# Monomials 1, ξ, ξ̄, ξξ̄ of a symbol, whose first two are the 1, ξ of a
# wavefunction, and 1, ξ, ξ′, ξξ′ of a kernel.
_BASIS = tuple(TABLE.monomial(p) for p in ({}, {"xi": 1}, {"xibar": 1}, {"xi": 1, "xibar": 1}))
_KERNEL_BASIS = tuple(TABLE.monomial(p) for p in ({}, {"xi": 1}, {"xip": 1}, {"xi": 1, "xip": 1}))


def _coefficients(mv: Multivector, basis: tuple, what: str) -> tuple:
    """The coefficients of ``mv`` on ``basis``.  A multivector off ``TABLE``
    or with a term outside the basis raises ``ValueError``, so no input is
    silently truncated."""
    if mv.context is not TABLE or not mv.terms.keys() <= set(basis):
        raise ValueError(f"not {what} on the quantum table: {mv!r}")
    return tuple(mv.terms.get(m, 0) for m in basis)


@dataclass(frozen=True)
class MagneticField:
    """Field vector and the magneton-like coupling in front of it."""

    bx: object
    by: object
    bz: object
    mu_b: object = 1

    def __post_init__(self):
        if not all(cmath.isfinite(complex(v)) for v in (self.bx, self.by, self.bz, self.mu_b)):
            raise ValueError("field components and mu_b must be finite numbers")

    @classmethod
    def from_text(cls, text: str, mu_b=1.0) -> "MagneticField":
        """Parse "BX,BY,BZ"; fractions and integers stay exact, decimals float."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three comma-separated components")

        def component(p: str):
            try:
                return int(p)
            except ValueError:
                pass
            try:
                return Fraction(p)
            except ValueError:
                return float(p)

        return cls(*(component(p) for p in parts), mu_b=mu_b)

    def norm(self) -> float:
        return math.hypot(float(self.bx), float(self.by), float(self.bz))

    def unit(self) -> tuple[float, float, float]:
        n = self.norm()
        if n == 0:
            raise ValueError("zero field has no direction")
        return (float(self.bx) / n, float(self.by) / n, float(self.bz) / n)

    def larmor_phase(self, t: float) -> float:
        return float(self.mu_b) * self.norm() * t


@dataclass(frozen=True)
class SpinState:
    """ψ(ξ) = c0 + c1·ξ, i.e. the column (c0, c1)."""

    c0: object
    c1: object

    def as_multivector(self) -> Multivector:
        return Multivector(TABLE, dict(zip(_BASIS, (self.c0, self.c1))))

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "SpinState":
        return cls(*_coefficients(mv, _BASIS[:2], "a wavefunction of xi"))

    def as_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([complex(self.c0), complex(self.c1)])


@dataclass(frozen=True)
class SpinOperator:
    """One operator in matrix form and word form together."""

    matrix: tuple
    word: GrassmannOperator

    def apply_matrix(self, state: SpinState) -> SpinState:
        (a, b), (c, d) = self.matrix
        return SpinState(a * state.c0 + b * state.c1, c * state.c0 + d * state.c1)

    def apply_wavefunction(self, psi: Multivector) -> Multivector:
        return self.word.apply(psi)

    def apply_state_via_words(self, state: SpinState) -> SpinState:
        return SpinState.from_multivector(self.apply_wavefunction(state.as_multivector()))


def _words(alpha, beta, gamma, delta) -> GrassmannOperator:
    """The normal-ordered word operator α + β·ξ̂ + γ·ξ̄̂ + δ·ξ̂ξ̄̂; zero
    coefficients are left out."""
    words = ((), (("mul", "xi"),), (("diff", "xi"),), (("mul", "xi"), ("diff", "xi")))
    coeffs = (alpha, beta, gamma, delta)
    return GrassmannOperator(TABLE, [(c, w) for c, w in zip(coeffs, words) if c != 0])


def operator_from_matrix(matrix) -> SpinOperator:
    """Normal-ordered word operator with the given matrix.

    α = a00, β = a10, γ = a01, δ = a11 − a00 reproduce the matrix columns on
    the basis states 1 and ξ.
    """
    (a00, a01), (a10, a11) = matrix
    return SpinOperator(((a00, a01), (a10, a11)), _words(a00, a10, a01, a11 - a00))


def spin_operators(hbar=1):
    """(Sx, Sy, Sz, N) with word forms built from ξ̂ and ξ̄̂ directly.

    Sx = (ħ/2)(ξ̄̂+ξ̂), Sy = (iħ/2)(ξ̂−ξ̄̂), Sz = ħN̂,
    N̂ = (ξ̄̂ξ̂ − ξ̂ξ̄̂)/2.  ħ defaults to 1 and may be any exact or float
    scale; exact scales give exact entries.
    """
    half = CRational(Fraction(1, 2))
    h2, ih2 = half * hbar, I * (half * hbar)
    zero = h2 - h2

    def number(scale) -> GrassmannOperator:
        """scale·(ξ̄̂ξ̂ − ξ̂ξ̄̂); ξ̄̂ξ̂ multiplies first, ξ̂ξ̄̂ differentiates first."""
        raise_then_lower = (("diff", "xi"), ("mul", "xi"))
        lower_then_raise = (("mul", "xi"), ("diff", "xi"))
        return GrassmannOperator(TABLE, [(scale, raise_then_lower), (-scale, lower_then_raise)])

    return (
        SpinOperator(((zero, h2), (h2, zero)), _words(0, h2, h2, 0)),
        SpinOperator(((zero, -ih2), (ih2, zero)), _words(0, ih2, -ih2, 0)),
        SpinOperator(((h2, zero), (zero, -h2)), number(h2)),
        SpinOperator(((half, zero), (zero, -half)), number(half)),
    )


def hamiltonian(b: MagneticField) -> SpinOperator:
    """Magnetic spin Hamiltonian in matrix and word form.

    Matrix: −μ_B [[Bz, Bx−iBy], [Bx+iBy, −Bz]].
    Words:  −μ_B [Bz + (Bx+iBy)·ξ̂ + (Bx−iBy)·ξ̄̂ − 2Bz·ξ̂ξ̄̂].
    The two are built independently from the components; exact components
    give exact entries.
    """
    z = b.mu_b * b.bz
    plus = b.mu_b * (b.bx + I * b.by)
    minus = b.mu_b * (b.bx - I * b.by)
    matrix = ((-z, -minus), (-plus, z))
    return SpinOperator(matrix, _words(-z, -plus, -minus, 2 * z))


# -- symbol and kernel forms -------------------------------------------------------


def ordered_symbol(op: SpinOperator) -> Multivector:
    """Normal-ordered symbol A(ξ, ξ̄) = α + βξ + γξ̄ + δξξ̄."""
    (a00, a01), (a10, a11) = op.matrix
    return Multivector(TABLE, dict(zip(_BASIS, (a00, a10, a01, a11 - a00))))


def symbol_to_matrix(sym: Multivector) -> tuple:
    alpha, beta, gamma, delta = _coefficients(sym, _BASIS, "a symbol in xi, xibar")
    return ((alpha, gamma), (beta, alpha + delta))


def integral_kernel(op: SpinOperator) -> Multivector:
    """Kernel Ã(ξ, ξ′) with Ĥψ(ξ) = ∫dξ′ Ã(ξ, ξ′) ψ(ξ′)."""
    (a00, a01), (a10, a11) = op.matrix
    return Multivector(TABLE, dict(zip(_KERNEL_BASIS, (a01, -a11, a00, -a10))))


def kernel_to_matrix(kern: Multivector) -> tuple:
    k0, k1, k2, k3 = _coefficients(kern, _KERNEL_BASIS, "a kernel in xi, xip")
    return ((k2, k0), (-k3, -k1))


# Each weight's exponent x squares to zero, so e^x = 1 + x.
_KERNEL_WEIGHT = 1 + product(_XIBAR, _XIP - _XI)


def kernel_from_symbol(sym: Multivector) -> Multivector:
    """Ã(ξ, ξ′) = ∫dξ̄ A(ξ, ξ̄) e^{ξ̄(ξ′−ξ)}."""
    _coefficients(sym, _BASIS, "a symbol in xi, xibar")
    return berezin_integral(product(sym, _KERNEL_WEIGHT), ["xibar"])


def apply_kernel(kern: Multivector, psi: Multivector) -> Multivector:
    """∫dξ′ Ã(ξ, ξ′) ψ(ξ′) as a wavefunction of ξ."""
    _coefficients(kern, _KERNEL_BASIS, "a kernel in xi, xip")
    _coefficients(psi, _BASIS[:2], "a wavefunction of xi")
    return berezin_integral(product(kern, psi.substitute({"xi": _XIP})), ["xip"])


_COMPOSE_WEIGHT = 1 + product(_XIBARP - _XIBAR, _XIP - _XI)


def compose_symbols(late: Multivector, early: Multivector) -> Multivector:
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
    basis = [Multivector(TABLE, {e: 1}) for e in _BASIS]
    out = []
    for i, late in enumerate(basis):
        for j, early in enumerate(basis):
            terms = compose_symbols(late, early).terms
            for k, e in enumerate(_BASIS):
                if e in terms:
                    out.append((i, j, k, terms[e]))
    return tuple(out)


def _compose_near_identity(late: list, early: list) -> list:
    """(1 + late) ∘ (1 + early) − 1 on coefficient vectors over ``_BASIS``.

    Carrying the offset from the identity symbol, not the symbol, keeps the
    O(ε) part of a short-time factor at full relative precision.
    """
    out = [a + b for a, b in zip(late, early)]
    for i, j, k, c in symbol_structure_constants():
        out[k] += c * late[i] * early[j]
    return out


def sliced_symbol(b: MagneticField, t: float, n: int) -> Multivector:
    """Symbol of the n-slice propagator: (1 − i·(t/n)·H̄) composed n times.

    The n-th power is taken by repeated squaring over the structure
    constants of ``compose_symbols``, in O(log n) products.  Composition is
    associative, so every bracketing of the n factors gives the same symbol,
    and all powers of one symbol commute; squaring changes only the
    floating-point rounding.  Each power is carried as its offset from the
    identity symbol, which keeps the result within about 1e-15 of the exact
    power of the one-slice symbol.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("the slice count must be a positive integer")
    h_bar = ordered_symbol(hamiltonian(b))
    eps = t / n
    step = h_bar * complex(0, -eps)
    square = [step.terms.get(e, 0) for e in _BASIS]
    power = [0, 0, 0, 0]  # offsets from the identity symbol 1
    while n:
        if n & 1:
            power = _compose_near_identity(power, square)
        square = _compose_near_identity(square, square)
        n >>= 1
    power[0] += 1
    return Multivector(TABLE, dict(zip(_BASIS, power)))


def sliced_propagator(b: MagneticField, t: float, n: int) -> np.ndarray:
    import numpy as np

    matrix = symbol_to_matrix(sliced_symbol(b, t, n))
    return np.array([[complex(v) for v in row] for row in matrix])


def magnetic_evolution(b: MagneticField, t: float) -> np.ndarray:
    """Closed-form evolution exp(−i·H·t) for the magnetic Hamiltonian.

    With φ = μ_B|B|t and n̂ the field direction this is
    cos(φ)·I + i·sin(φ)·(n̂·σ); the +i sign reflects the −μ_B coupling.
    """
    import numpy as np

    if b.norm() == 0:
        return np.eye(2, dtype=complex)
    phi = b.larmor_phase(t)
    nx, ny, nz = b.unit()
    sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    return math.cos(phi) * np.eye(2) + 1j * math.sin(phi) * sigma


def pauli_evolve(state: SpinState, b: MagneticField, t: float) -> SpinState:
    out = magnetic_evolution(b, t) @ state.as_vector()
    return SpinState(out[0], out[1])


def kernel_propagate(psi: Multivector, b: MagneticField, t: float, n: int) -> Multivector:
    """ψ(ξ, t) = ∫dξ0 Ũ(ξ, t; ξ0) ψ(ξ0) with the n-slice propagator."""
    kern = kernel_from_symbol(sliced_symbol(b, t, n))
    return apply_kernel(kern, psi)


def slicing_errors(b: MagneticField, t: float, slice_counts) -> list[tuple[int, float]]:
    """Max-element error of the sliced propagator against the closed form."""
    oracle = magnetic_evolution(b, t)
    out = []
    for n in slice_counts:
        approx = sliced_propagator(b, t, n)
        out.append((n, float(abs(approx - oracle).max())))
    return out
