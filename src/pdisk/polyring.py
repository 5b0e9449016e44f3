"""Dense univariate polynomials over a finite coefficient field.

Coefficients ascending, encoded as in ``pdisk.field``.  Used for residue
analysis: squarefreeness (``gcd``, the one Euclidean algorithm), roots and
distinct-degree splitting.
"""

from __future__ import annotations

from .backend import impl
from .field import FieldSpec


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: list[int]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(trim(a)) - 1


def add(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return trim(out)


def neg(f: FieldSpec, a: list[int]) -> list[int]:
    return [f.neg(c) for c in a]

def sub(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    return add(f, a, neg(f, b))


def mul(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    return impl.series_mul(a, b, len(a) + len(b) - 1, f.p, f.k, f.modulus)


def divmod_(f: FieldSpec, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    inv_lead = f.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c == 0:
            continue
        q = f.mul(c, inv_lead)
        quot[i] = q
        for j, y in enumerate(b):
            rem[i + j] = f.sub(rem[i + j], f.mul(q, y))
    return trim(quot), trim(rem)


def mod(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    return divmod_(f, a, b)[1]


def monic(f: FieldSpec, a: list[int]) -> list[int]:
    a = trim(a)
    if not a or a[-1] == 1:
        return a
    inv = f.inv(a[-1])
    return [f.mul(inv, c) for c in a]


def gcd(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    """The monic gcd, by Euclid's algorithm; [] when both are zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(f, a, b)
    return monic(f, a)


def deriv(f: FieldSpec, a: list[int]) -> list[int]:
    return trim([f.scalar_mul(i, a[i]) for i in range(1, len(a))])


def pow_mod(f: FieldSpec, base: list[int], e: int, modulus: list[int]) -> list[int]:
    result = [1]
    base = mod(f, base, modulus)
    while e:
        if e & 1:
            result = mod(f, mul(f, result, base), modulus)
        base = mod(f, mul(f, base, base), modulus)
        e >>= 1
    return result


def eval_at(f: FieldSpec, a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = f.add(f.mul(acc, x), c)
    return acc


def roots(f: FieldSpec, a: list[int]) -> list[int]:
    """All roots in the field, ascending by encoding.

    A linear a0 + a1 x has the one root -a0/a1, so no field is enumerated
    for it; any other degree is searched by brute force.
    """
    a = trim(a)
    if len(a) == 2:
        return [f.neg(f.mul(a[0], f.inv(a[1])))]
    return [x for x in f.elements() if eval_at(f, a, x) == 0]


def factor_degrees(f: FieldSpec, a: list[int]) -> list[int]:
    """Degrees of the irreducible factors of a squarefree polynomial.

    Distinct-degree splitting: gcd with x^(q^d) - x collects the factors
    of degree d.  Returns one entry per factor, ascending.

    ``factor_degrees(f, a) == [degree(a)]`` decides irreducibility of any a
    of positive degree, squarefree or not: a reducible a has a factor of
    degree d <= degree(a) / 2, and the loop emits d before it stops.
    ``FieldSpec`` tests its modulus this way.
    """
    a = monic(f, trim(a))
    out: list[int] = []
    xq = [0, 1]
    d = 0
    while degree(a) > 0:
        d += 1
        if 2 * d > degree(a):
            out.append(degree(a))
            break
        xq = pow_mod(f, xq, f.q, a)
        g = gcd(f, sub(f, xq, [0, 1]), a)
        if degree(g) > 0:
            out.extend([d] * (degree(g) // d))
            a, _ = divmod_(f, a, g)
            xq = mod(f, xq, a)
    return sorted(out)
