"""The series kernels: coefficient loops over encoded field elements.

Coefficients are field elements encoded as integers (see ``pdisk.field``).
``mod`` is ``FieldSpec.modulus``: the k + 1 digits of the monic modulus for
extension fields and ``None`` for k = 1.  The kernels own the k = 1 / k > 1
fork: callers pass p, k and mod and never branch on k themselves.  Over
extension fields (k > 1) the loops use the element arithmetic of
``pdisk.field``.

Over prime fields (k = 1) the quadratic work runs inside CPython's C code.
``series_mul`` multiplies by Kronecker substitution from ``KRONECKER_MIN``
output coefficients on: both operands are packed into one integer, one slot
of whole bytes per coefficient, the integers are multiplied once and each
slot of the product is reduced mod p.  A slot holds any convolution sum
exactly, so no carry crosses slots.  Shorter products use the schoolbook
loop, which is as fast there.  ``series_dot`` sums the dot products of
several coefficient sequences as integers and reduces mod p once; it gives
one coefficient of a truncated product when one operand is reversed, which
is how ``series_inv`` and the order-by-order recursion of ``pdisk.cartier``
(``flat_matrix_section``, which ``kernel_unit`` runs through) compute their
residuals.

BACKEND tells the benchmark and tests which implementation they got.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .field import ext_add, ext_mul, ext_neg

BACKEND = "python"

# Output length from which k = 1 products use Kronecker substitution.  Below it
# the schoolbook loop is as fast or faster: benchmarks/bench_kernels.py puts the
# break-even between 6 and 10 output coefficients for p in {2, 3, 5, 7}.
KRONECKER_MIN = 10

# Array typecode for each slot width in bytes that a machine integer type has,
# and the slot width used for a slot that needs a given number of bytes.
_SLOT_TYPES = {array(t).itemsize: t for t in "BHILQ"}
_SLOT_WIDTHS = [min(w for w in _SLOT_TYPES if w >= need) for need in range(max(_SLOT_TYPES) + 1)]
_SWAP = sys.byteorder == "big"


def series_add(a, b, p: int, k: int, mod) -> list[int]:
    n = min(len(a), len(b))
    if k == 1:
        return [(a[i] + b[i]) % p for i in range(n)]
    return [ext_add(a[i], b[i], p, k) for i in range(n)]


def series_neg(a, p: int, k: int, mod) -> list[int]:
    if k == 1:
        return [(-c) % p for c in a]
    return [ext_neg(c, p, k) for c in a]


def _schoolbook_mul(a, b, nout: int, p: int) -> list[int]:
    """The first nout coefficients of a * b over F_p, one product at a time."""
    na, nb = len(a), len(b)
    out = [0] * nout
    for i in range(min(na, nout)):
        ai = a[i]
        if ai:
            hi = min(nb, nout - i)
            for j in range(hi):
                out[i + j] = (out[i + j] + ai * b[j]) % p
    return out


def _pack(cs, width: int) -> int:
    """sum cs[i] * 256**(width * i): coefficient i in byte slot i."""
    typecode = _SLOT_TYPES.get(width)
    if typecode is None:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")
    slots = array(typecode, cs)
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack_mod(x: int, width: int, nout: int, p: int) -> list[int]:
    """Byte slots 0 .. nout-1 of x, each reduced mod p; x must fit in them."""
    raw = x.to_bytes(width * nout, "little")
    typecode = _SLOT_TYPES.get(width)
    if typecode is None:
        starts = range(0, len(raw), width)
        return [int.from_bytes(raw[i : i + width], "little") % p for i in starts]
    slots = array(typecode, raw)
    if _SWAP:
        slots.byteswap()
    return list(map(p.__rmod__, slots))


def _kronecker_mul(a, b, nout: int, p: int) -> list[int]:
    """The first nout coefficients of a * b over F_p by one integer product."""
    a, b = a[:nout], b[:nout]
    if not a or not b:
        return [0] * nout
    # A product slot sums at most min(len) terms, each at most (p-1)^2.
    need = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    width = _SLOT_WIDTHS[need] if need < len(_SLOT_WIDTHS) else need
    product = _pack(a, width) * _pack(b, width)
    return _unpack_mod(product & ((1 << 8 * width * nout) - 1), width, nout, p)


def series_mul(a, b, nout: int, p: int, k: int, mod) -> list[int]:
    if k == 1:
        if nout < KRONECKER_MIN:
            return _schoolbook_mul(a, b, nout, p)
        return _kronecker_mul(a, b, nout, p)
    na, nb = len(a), len(b)
    out = [0] * nout
    for m in range(nout):
        acc = 0
        for i in range(max(0, m - nb + 1), min(na, m + 1)):
            acc = ext_add(acc, ext_mul(a[i], b[m - i], p, k, mod), p, k)
        out[m] = acc
    return out


def series_dot(pairs, p: int, k: int, mod) -> int:
    """The sum over (x, y) in pairs of sum x[i] * y[i], i up to the shorter length.

    x and y may be any iterables of coefficients, e.g. ``reversed(list)``.
    """
    if k == 1:
        return sum(sum(map(mul, x, y)) for x, y in pairs) % p
    acc = 0
    for x, y in pairs:
        for a, b in zip(x, y):
            acc = ext_add(acc, ext_mul(a, b, p, k, mod), p, k)
    return acc


def series_inv(a, nout: int, c0inv: int, p: int, k: int, mod) -> list[int]:
    """Triangular recursion for 1/a; c0inv is the field inverse of a[0]."""
    # the coefficient of z^m in (a - a[0]) * out pairs a[1:] with out[m-1], out[m-2], ...
    a1 = a[1:]
    out = [c0inv]
    if k == 1:
        for m in range(1, nout):
            out.append((-c0inv * sum(map(mul, a1, reversed(out)))) % p)
        return out
    neg_c0inv = ext_neg(c0inv, p, k)
    for m in range(1, nout):
        out.append(ext_mul(neg_c0inv, series_dot(((a1, reversed(out)),), p, k, mod), p, k, mod))
    return out
