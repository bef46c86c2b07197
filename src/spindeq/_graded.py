"""The graded-algebra kernel under :mod:`spindeq.symbols` and :mod:`spindeq.grassmann`.

One monomial form serves every element: a tuple of ``(slot, exponent)``
pairs sorted by slot, every exponent positive, ``()`` for the constant
monomial.  A slot is the (declaration index, dot order) pair of a symbol in
a ``SymbolContext``, so dotted symbols need no declaration of their own.  An
element is a term map ``{monomial: coefficient}`` without zero
coefficients; term maps are never changed once built, so results may share
them.  Only :func:`add_into`, the one sum of term maps, and
:func:`add_product` add into a map still being built; no module above this
one sums term maps by hand.  The functions here take ``odd``, a lookup
with ``odd[slot]`` true for an anticommuting slot.

Only :func:`checked` validates: the public constructors call it, and every
kernel result is wrapped unchecked by ``GradedPolynomial._wrap``.

Sign conventions, fixed here and relied on everywhere above:

* a product is brought into slot order with ``(-1)`` per transposition of
  two odd factors, and vanishes when an odd slot repeats.  :func:`merge`
  counts the transpositions in the one pass that interleaves the factors:
  an odd factor of the left operand crosses every odd factor of the right
  one placed before it.  Substitution multiplies the images of a
  monomial's factors in slot order, so its signs come from here too;
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
    placed = swaps = i = j = 0  # placed: odd factors of b already in out
    la, lb = len(a), len(b)
    while i < la and j < lb:
        sa, ea = a[i]
        sb, eb = b[j]
        if sa < sb:
            out.append(a[i])
            if odd[sa]:
                swaps += placed
            i += 1
        elif sb < sa:
            out.append(b[j])
            placed += odd[sb]
            j += 1
        elif odd[sa]:
            return 0, ()
        else:
            out.append((sa, ea + eb))
            i += 1
            j += 1
    if i < la:
        if placed & 1:  # each odd factor left in a crosses every odd factor of b
            for slot, _ in a[i:]:
                swaps += odd[slot]
        out += a[i:]
    else:
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


def add_into(out: dict, x: dict, k=1) -> dict:
    """Add k·x into the term map ``out`` in place and return it, deleting
    each sum that cancels.  The int k = 1 multiplies nothing, and k = -1
    only negates."""
    unit = type(k) is int and (k == 1 or k == -1)
    for mono, c in x.items():
        if not unit:
            c = c * k
            if not c:
                continue
        elif k < 0:
            c = -c
        if mono not in out:
            out[mono] = c
        elif c := out[mono] + c:
            out[mono] = c
        else:
            del out[mono]
    return out


def add_product(out: dict, x: dict, y: dict, odd) -> dict:
    """Add x·y into the term map ``out`` in place and return it; the sums
    that cancel stay in ``out`` as zeros."""
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, mono = merge(ma, mb, odd)
            if not sign:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            out[mono] = out[mono] + c if mono in out else c
    return out


def mul(x: dict, y: dict, odd) -> dict:
    return {mono: c for mono, c in add_product({}, x, y, odd).items() if c}


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
        elif e > 1:
            out[mono[:k] + ((slot, e - 1),) + mono[k + 1 :]] = c * e
        else:
            out[mono[:k] + mono[k + 1 :]] = c
    return out


def monomial_derivative(mono: tuple, slot, odd) -> tuple[int, tuple]:
    """:func:`left_derivative` of the one monomial ``mono`` as ``(factor,
    monomial)``: the derivative is factor·monomial, and factor is 0 when
    the slot is absent, ±1 for an odd slot and the exponent for an even one."""
    for k, (s, e) in enumerate(mono):
        if s == slot:
            break
    else:
        return 0, ()
    if odd[slot]:
        return (-1 if sum(1 for s, _ in mono[:k] if odd[s]) & 1 else 1), mono[:k] + mono[k + 1 :]
    if e > 1:
        return e, mono[:k] + ((slot, e - 1),) + mono[k + 1 :]
    return 1, mono[:k] + mono[k + 1 :]


def left_multiply(x: dict, slot, odd, exp: int = 1) -> dict:
    """The generator at ``slot`` to the power ``exp`` times x, from the
    left: it is inserted at its place, with ``(-1)`` per odd factor it
    passes when it is odd.  No coefficient is multiplied, and distinct
    monomials keep distinct images, so nothing collects."""
    is_odd = odd[slot]
    factor = ((slot, exp),)
    out = {}
    for mono, c in x.items():
        k = flips = 0
        for s, _ in mono:
            if s >= slot:
                break
            if is_odd:
                flips += odd[s]
            k += 1
        if k == len(mono) or mono[k][0] != slot:
            image = mono[:k] + factor + mono[k:]
        elif is_odd:
            continue
        else:
            image = mono[:k] + ((slot, mono[k][1] + exp),) + mono[k + 1 :]
        out[image] = -c if flips & 1 else c
    return out
