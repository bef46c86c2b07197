"""The graded-algebra kernel under :mod:`spindeq.symbols` and :mod:`spindeq.grassmann`.

One monomial form serves every element: a tuple of ``(slot, exponent)``
pairs sorted by slot, every exponent positive, ``()`` for the constant
monomial.  A slot is the (declaration index, dot order) pair of a symbol in
a ``SymbolContext``, so dotted symbols need no declaration of their own.  An
element is a term map ``{monomial: coefficient}`` without zero
coefficients; term maps are never changed once built, so results may share
them.  The functions here take ``odd``, a lookup with ``odd[slot]`` true for
an anticommuting slot.

Only :func:`checked` validates: the public constructors call it, and every
kernel result is wrapped unchecked by ``GradedPolynomial._wrap``.

Sign conventions, fixed here and relied on everywhere above:

* a product is brought into slot order with ``(-1)`` per transposition of
  two odd factors, and vanishes when an odd slot repeats;
* derivatives are left derivatives: the factor is commuted to the front of
  the monomial and then struck.
"""

from __future__ import annotations


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
    """x to the power n >= 1 by repeated squaring, in O(log n) products;
    x² is the one product x·x, as multiplied out from the left."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x, odd)
        n >>= 1
        if not n:
            return out
        x = mul(x, x, odd)


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
