"""The series kernels: coefficient loops over encoded field elements.

Coefficients are field elements encoded as integers (see ``pdisk.field``).
``mod`` is ``FieldSpec.modulus``: the k + 1 digits of the monic modulus for
extension fields and ``None`` for k = 1.  The kernels own the k = 1 / k > 1
fork: callers pass p, k and mod and never branch on k themselves.  Over
extension fields (k > 1) the loops use the element arithmetic of
``pdisk.field``.

A sum of products has one implementation, ``_linear``, the one place
where it forks on k.  Over prime fields (k = 1) its quadratic work runs
inside CPython's C code, by Kronecker substitution: every operand is
packed into one integer, one slot of whole bytes per coefficient, wide
enough for the whole sum; the integer products are added and each slot of
the sum is reduced mod p once.  A slot holds its sum exactly, so no carry
crosses slots.  Over F_{p^k} it accumulates one schoolbook list of field
products.  ``series_sum_mul``
gives the first nout coefficients of a sum of products as one ``_linear``
sum, except over F_p below ``KRONECKER_MIN`` output coefficients, where
one schoolbook list of integer products, reduced once, is as fast.
``series_mul`` is ``series_sum_mul`` of one pair, so products and
``series.dot`` share one implementation.  The tests check it against
``schoolbook_mul`` in ``tests/conftest.py``, one product at a time, and
``benchmarks/bench_kernels.py`` times its two branches against each other.

``series_dot`` sums the dot products of several coefficient sequences as
integers and reduces mod p once; it gives one coefficient of a truncated
product when one operand is reversed, which is how ``series_inv`` and the
order-by-order recursion of ``pdisk.cartier`` (``flat_matrix_section``,
which ``kernel_unit`` runs through) compute their residuals.

``series_derivative`` is d/dz of one coefficient list (``TruncSeries.derivative``).
``series_pcurv`` is the one p-curvature recursion, x -> x' + m x on the
columns of an n x c array of coefficient lists, for
``Connection.p_curvature`` (m = x = A) and ``harmonic.pcurv_in_ring``
(c = 1, m the matrix of theta plus the ring's derivation), written once on
``_linear``: it packs m once per call and each entry of x once per step,
and each entry of m x is one sum with the derivative added (over F_p
before the one reduction mod p).  The tests check it against the
object-level loops in ``tests/conftest.py``.

The matrix kernels take rows of coefficient lists and return rows of
coefficient lists, one kernel call per ``SeriesMatrix`` fact:
``series_matmul`` for ``@`` and ``matvec`` (so for spectral products),
``series_matinv`` for the inverse (Gauss-Jordan elimination on [A | I],
None for a singular residue) and ``series_charpoly`` for the
characteristic invariants (Berkowitz's recursion).  Each is written once on
``_linear``.  Over F_p they pack every entry once, at every length: unlike
``series_sum_mul`` there is no list branch, since a matrix reuses each
packed entry across a row or a column.  Each output entry is one sum,
reduced mod p once.  The tests check them against the object-level loops
in ``tests/conftest.py``.

BACKEND tells the benchmark and tests which implementation they got.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import chain
from operator import add, mul, neg

from .field import element_inv, ext_add, ext_mul, ext_neg, ext_scalar_mul

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


def _pack(width: int, cs) -> int:
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


def _slot_width(terms: int, p: int) -> int:
    """Bytes per slot for a slot that sums up to ``terms`` products of two residues mod p.

    A slot holds at least one product, so it holds any residue too: an operand
    packs at that width even when no slot of the result is kept.
    """
    need = ((max(terms, 1) * (p - 1) ** 2).bit_length() + 7) // 8
    return _SLOT_WIDTHS[need] if need < len(_SLOT_WIDTHS) else need


def _linear(nout: int, terms: int, p: int, k: int, mod):
    """(pack, lin, derivative): the one sum of products, on series of nout coefficients.

    ``lin(xs, ys, adds=(), negate=False)`` is the list sum(adds) + s * sum of
    x * y over the operands xs, ys that ``pack`` made, s = -1 if negate else
    1, to nout coefficients, or to the length of a shorter add; the products
    of one sum add up to at most ``terms`` coefficient products per slot.
    ``derivative(e)`` is d/dz of one coefficient sequence, as an add.  It is
    the one place where a sum of products forks on k.  Over F_p ``pack``
    packs at a width for ``terms`` products, at every length, and ``lin`` is
    one packed sum: the integer products are added, cut to nout slots and
    unpacked, and the adds join the slots before the one reduction mod p,
    so an add need not be reduced and ``derivative`` leaves its integer
    multiples as they are.  Over F_{p^k} ``pack`` keeps the sequence,
    ``lin`` accumulates one schoolbook list of ``ext_mul`` products and
    ``derivative`` is series_derivative.
    """
    if k > 1:

        def lin(xs, ys, adds=(), negate=False):
            n = min([nout, *map(len, adds)])  # no product past a shorter add
            out = [0] * n
            for a, b in zip(xs, ys):
                nb = len(b)
                for i in range(min(len(a), n)):
                    ai = a[i]
                    if ai:
                        for j in range(min(nb, n - i)):
                            out[i + j] = ext_add(out[i + j], ext_mul(ai, b[j], p, k, mod), p, k)
            if negate:
                out = series_neg(out, p, k, mod)
            for a in adds:
                out = series_add(out, a, p, k, mod)
            return out

        return (lambda e: e), lin, (lambda e: series_derivative(e, p, k, mod))
    width = _slot_width(terms, p)
    mask = (1 << 8 * width * nout) - 1

    def lin(xs, ys, adds=(), negate=False):
        out = _unpack(sum(map(mul, xs, ys)) & mask, width, nout)
        if negate:
            out = map(neg, out)
        for a in adds:
            out = map(add, out, a)
        return [c % p for c in out]

    # (i + 1) e[i + 1] is the derivative's coefficient i
    return partial(_pack, width), lin, (lambda e: map(mul, range(1, len(e)), e[1:]))


def series_mul(a, b, nout: int, p: int, k: int, mod) -> list[int]:
    return series_sum_mul(((a, b),), nout, p, k, mod)


def series_sum_mul(pairs, nout: int, p: int, k: int, mod) -> list[int]:
    """The first nout coefficients of the sum of a * b over (a, b) in pairs.

    One ``_linear`` sum of the pairs cut to nout coefficients; a slot of it
    adds min(len a, len b) products per pair.  Over F_p below
    ``KRONECKER_MIN`` output coefficients the integer products accumulate in
    one schoolbook list instead, reduced mod p once, which is as fast there.
    """
    if k == 1 and nout < KRONECKER_MIN:
        out = [0] * nout
        for a, b in pairs:
            nb = len(b)
            for i in range(min(len(a), nout)):
                ai = a[i]
                if ai:
                    for j in range(min(nb, nout - i)):
                        out[i + j] += ai * b[j]
        return [c % p for c in out]
    pairs = [(a[:nout], b[:nout]) for a, b in pairs if len(a) and len(b)]
    pack, lin, _ = _linear(nout, sum([min(len(a), len(b)) for a, b in pairs]), p, k, mod)
    return lin([pack(a) for a, b in pairs], [pack(b) for a, b in pairs])


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
    ``steps`` shorter than x's.  One ``_linear`` serves every step, sized
    for the first: the entries of m are packed once per call, every entry
    of x once per step, and each entry of m x is one sum of n products with
    the derivative as its add, which cuts it to the step's length (over F_p
    the derivative joins the slots before the one reduction mod p).
    """
    nout = max(len(x[0][0]) - 1, 0)
    pack, lin, derivative = _linear(nout, len(m) * (nout + 1), p, k, mod)
    pm = [[pack(e) for e in row] for row in m]
    for _ in range(steps):
        cols = list(zip(*[map(pack, row) for row in x]))
        x = [
            [lin(prow, col, (derivative(e),)) for e, col in zip(xrow, cols)]
            for prow, xrow in zip(pm, x)
        ]
    return x


# -- matrices over the series ring: rows of coefficient lists ------------------


def series_matmul(a, b, p: int, k: int, mod) -> list[list[list[int]]]:
    """The product of an r x m by an m x c array of coefficient sequences.

    Every entry of the product has the length nout of the shortest entry of
    a or b.  Each entry of both operands is packed once (over F_p, in slots
    wide enough for the m * nout products a slot of the product sums; a
    longer entry adds terms only to slots from nout on, which are cut off),
    and each entry of the product is one packed sum of m products, reduced
    once.
    """
    nout = min(map(len, chain(chain.from_iterable(a), chain.from_iterable(b))))
    pack, lin, _ = _linear(nout, len(b) * nout, p, k, mod)
    rows = [list(map(pack, row)) for row in a]
    cols = list(zip(*[map(pack, row) for row in b]))
    return [[lin(row, col) for col in cols] for row in rows]


def series_matinv(a, p: int, k: int, mod) -> list[list[list[int]]] | None:
    """The inverse of an n x n array of coefficient sequences of one length, or None.

    Gauss-Jordan elimination on the rows [a | I] over the local ring: in
    each column the pivot is the first row, from the diagonal down, whose
    entry has a nonzero constant term (None when there is none: the
    constant-term matrix is singular).  The pivot row is scaled by the
    inverse of that entry, a series_inv from the field inverse of its
    constant term, and subtracted from every other row in proportion; zero
    entries are skipped, as they leave their row as it is.  The pivot's
    inverse is packed once per scaling, each entry of the scaled pivot row
    once per column and each row's multiplier once.
    """
    n, nout = len(a), len(a[0][0])
    if not nout:
        return None
    pack, lin, _ = _linear(nout, nout, p, k, mod)
    one, zero = [1] + [0] * (nout - 1), [0] * nout
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col][0]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        e = rows[col][col]
        inv = (pack(series_inv(e, nout, element_inv(e[0], p, k, mod), p, k, mod)),)
        # the pivot entry becomes one, and every other entry of its column zero
        prow = [
            one if j == col else lin(inv, (pack(x),)) if any(x) else x
            for j, x in enumerate(rows[col])
        ]
        rows[col] = prow
        packed = [pack(x) if j != col and any(x) else None for j, x in enumerate(prow)]
        for r in range(n):
            f = rows[r][col]
            if r == col or not any(f):
                continue
            pf = (pack(f),)
            rows[r] = [
                zero if j == col else x if pb is None else lin(pf, (pb,), (x,), True)
                for j, (x, pb) in enumerate(zip(rows[r], packed))
            ]
    return [row[n:] for row in rows]


def series_charpoly(a, p: int, k: int, mod) -> list[list[int]]:
    """The invariants b_1 .. b_n of an n x n array of coefficient sequences of one length.

    det(t I - a) = t^n + sum_{i=1..n} (-1)^i b_i t^(n-i), by Berkowitz's
    division-free recursion.  Bordering the leading j x j block A by row r,
    column c and corner x multiplies det(t I - A), descending in t, by the
    Toeplitz matrix whose first column is 1, -x, -r c, -r A c, ...,
    -r A^(j-1) c.  Neither that leading 1 nor the polynomial's forms a
    product; every other coefficient is one sum of products.
    """
    n, nout = len(a), len(a[0][0])
    pack, lin, _ = _linear(nout, n * nout, p, k, mod)
    pa = [[pack(e) for e in row] for row in a]
    poly, ppoly = [], []  # coefficients 1 .. j of the block's polynomial, as lists and packed
    for j in range(n):
        r = pa[j][:j]
        c = [row[j] for row in pa[:j]]
        column = [series_neg(a[j][j], p, k, mod)]  # entries 1 .. j + 1 of the first column
        for i in range(j):
            if i:
                c = [pack(lin(row[:j], c)) for row in pa[:j]]
            column.append(lin(r, c, (), True))
        pcol = [pack(x) for x in column[:j]]
        # coefficient i: column_i + poly_i (none at i = j + 1) + sum_{l=1..i-1} column_l poly_(i-l)
        poly = [
            lin(pcol[: i - 1], ppoly[: i - 1][::-1], (column[i - 1], *poly[i - 1 : i]))
            for i in range(1, j + 2)
        ]
        if j < n - 1:
            ppoly = [pack(x) for x in poly]
    return [series_neg(x, p, k, mod) if i % 2 else x for i, x in enumerate(poly, 1)]
