"""The series kernels: coefficient loops over encoded field elements.

Coefficients are field elements encoded as integers (see ``pdisk.field``).
``mod`` is ``FieldSpec.modulus``: the k + 1 digits of the monic modulus for
extension fields and ``None`` for k = 1.  The kernels own the k = 1 / k > 1
fork: callers pass p, k and mod and never branch on k themselves.  Over
extension fields (k > 1) the loops use the element arithmetic of
``pdisk.field``.

Over prime fields (k = 1) the quadratic work runs inside CPython's C code.
``series_sum_mul`` gives the first nout coefficients of a sum of products.
From ``KRONECKER_MIN`` output coefficients on it multiplies by Kronecker
substitution: every operand is packed into one integer, one slot of whole
bytes per coefficient, wide enough for the whole sum; the integer products
are added and each slot of the sum is reduced mod p once.  A slot holds its
sum exactly, so no carry crosses slots.  Shorter sums accumulate one
schoolbook list and reduce it once, which is as fast there.  ``series_mul``
is ``series_sum_mul`` of one pair, so products, ``series.dot`` and each
entry of a matrix product share one implementation.  The tests check it
against ``schoolbook_mul`` in ``tests/conftest.py``, one product at a time,
and ``benchmarks/bench_kernels.py`` times its two branches against each other.

``series_dot`` sums the dot products of several coefficient sequences as
integers and reduces mod p once; it gives one coefficient of a truncated
product when one operand is reversed, which is how ``series_inv`` and the
order-by-order recursion of ``pdisk.cartier`` (``flat_matrix_section``,
which ``kernel_unit`` runs through) compute their residuals.

``series_derivative`` is d/dz of one coefficient list (``TruncSeries.derivative``).
``series_pcurv`` is the one p-curvature recursion, x -> x' + m x on the
columns of an n x c array of coefficient lists, for
``Connection.p_curvature`` (m = x = A) and ``harmonic.pcurv_in_ring``
(c = 1, m the matrix of theta plus the ring's derivation): over F_p it
packs m once per call and each entry of x once per step, and sums each
entry of m x as one integer; over F_{p^k} it runs the same recursion on
``series_derivative``, ``series_sum_mul`` and ``series_add``.  The tests
check it against the object-level loops in ``tests/conftest.py``.

BACKEND tells the benchmark and tests which implementation they got.
"""

from __future__ import annotations

import sys
from array import array
from operator import add, mul

from .field import ext_add, ext_mul, ext_neg, ext_scalar_mul

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


def series_sub(a, b, p: int, k: int, mod) -> list[int]:
    n = min(len(a), len(b))
    if k == 1:
        return [(a[i] - b[i]) % p for i in range(n)]
    return [ext_add(a[i], ext_neg(b[i], p, k), p, k) for i in range(n)]


def series_neg(a, p: int, k: int, mod) -> list[int]:
    if k == 1:
        return [(-c) % p for c in a]
    return [ext_neg(c, p, k) for c in a]


def _pack(cs, width: int) -> int:
    """sum cs[i] * 256**(width * i): coefficient i in byte slot i."""
    if width == 1:  # bytes() is about twice as fast as array('B') here
        return int.from_bytes(bytes(cs), "little")
    typecode = _SLOT_TYPES.get(width)
    if typecode is None:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")
    slots = array(typecode, cs)
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(x: int, width: int, nout: int):
    """Byte slots 0 .. nout-1 of x as a sequence of ints; x must fit in them."""
    raw = x.to_bytes(width * nout, "little")
    if width == 1:
        return raw
    typecode = _SLOT_TYPES.get(width)
    if typecode is None:
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    slots = array(typecode, raw)
    if _SWAP:
        slots.byteswap()
    return slots


def _unpack_mod(x: int, width: int, nout: int, p: int) -> list[int]:
    """Byte slots 0 .. nout-1 of x, each reduced mod p; x must fit in them."""
    return list(map(p.__rmod__, _unpack(x, width, nout)))


def _slot_width(terms: int, p: int) -> int:
    """Bytes per slot for a slot that sums up to ``terms`` products of two residues mod p."""
    need = ((terms * (p - 1) ** 2).bit_length() + 7) // 8
    return _SLOT_WIDTHS[need] if need < len(_SLOT_WIDTHS) else need


def _kronecker_sum_mul(pairs, nout: int, p: int) -> list[int]:
    """The first nout coefficients of the sum of a * b over F_p by packed integers."""
    pairs = [(a[:nout], b[:nout]) for a, b in pairs if len(a) and len(b)]
    # A slot of the sum adds min(len) terms per product, each at most (p-1)^2.
    width = _slot_width(sum([min(len(a), len(b)) for a, b in pairs]), p)
    total = sum([_pack(a, width) * _pack(b, width) for a, b in pairs])
    return _unpack_mod(total & ((1 << 8 * width * nout) - 1), width, nout, p)


def series_mul(a, b, nout: int, p: int, k: int, mod) -> list[int]:
    return series_sum_mul(((a, b),), nout, p, k, mod)


def series_sum_mul(pairs, nout: int, p: int, k: int, mod) -> list[int]:
    """The first nout coefficients of the sum of a * b over (a, b) in pairs.

    Over F_p the products are summed as integers and reduced mod p once: from
    ``KRONECKER_MIN`` output coefficients on as packed integers, below it as
    one schoolbook list.  Over F_{p^k} the list accumulates field products.
    """
    if k == 1 and nout >= KRONECKER_MIN:
        return _kronecker_sum_mul(pairs, nout, p)
    out = [0] * nout
    for a, b in pairs:
        nb = len(b)
        for i in range(min(len(a), nout)):
            ai = a[i]
            if not ai:
                continue
            if k == 1:
                for j in range(min(nb, nout - i)):
                    out[i + j] += ai * b[j]
            else:
                for j in range(min(nb, nout - i)):
                    out[i + j] = ext_add(out[i + j], ext_mul(ai, b[j], p, k, mod), p, k)
    return [c % p for c in out] if k == 1 else out


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


def series_derivative(a, p: int, k: int, mod) -> list[int]:
    """d/dz: coefficient m of the result is (m + 1) * a[m + 1], one coefficient fewer than a."""
    if k == 1:
        return list(map(p.__rmod__, map(mul, range(1, len(a)), a[1:])))
    return [ext_scalar_mul(m, a[m], p, k) for m in range(1, len(a))]


def series_pcurv(m, x, steps: int, p: int, k: int, mod) -> list[list[list[int]]]:
    """x -> x' + m x applied ``steps`` times to the columns of x.

    m (n x n) and x (n x c) are rows of coefficient sequences, x's entries of
    one length.  A step keeps one coefficient fewer than x had, and m's
    entries must be at least that long, so the result's entries are
    ``steps`` shorter than x's.  Over F_p the entries of m are packed once per
    call, in slots wide enough for the n * len(x) products a slot of m x sums;
    at each step every entry of x is packed once, each entry of m x is one
    integer sum of n products, unpacked once, and the derivative joins it
    before the one reduction mod p.  Over F_{p^k} a step is series_derivative
    plus series_sum_mul, added by series_add.
    """
    if k > 1:
        for _ in range(steps):
            nout = len(x[0][0]) - 1
            cols = list(zip(*x))
            x = [
                [
                    series_add(
                        series_derivative(e, p, k, mod),
                        series_sum_mul(zip(row, col), nout, p, k, mod),
                        p,
                        k,
                        mod,
                    )
                    for e, col in zip(xrow, cols)
                ]
                for row, xrow in zip(m, x)
            ]
        return x
    width = _slot_width(len(m) * len(x[0][0]), p)
    packed_m = [[_pack(e, width) for e in row] for row in m]
    for _ in range(steps):
        nout = len(x[0][0]) - 1
        low = (1 << 8 * width * nout) - 1
        cols = list(zip(*[[_pack(e, width) for e in row] for row in x]))
        new = []
        for prow, xrow in zip(packed_m, x):
            out = []
            for e, col in zip(xrow, cols):
                slots = _unpack(sum(map(mul, prow, col)) & low, width, nout)
                # (i + 1) e[i + 1] is the derivative's coefficient i; add stops at nout
                out.append(list(map(p.__rmod__, map(add, slots, map(mul, range(1, len(e)), e[1:])))))
            new.append(out)
        x = new
    return x
