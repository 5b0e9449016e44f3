"""Characteristic invariants and the descended invariant map.

Sign convention, fixed package-wide: for an n x n matrix M over the series
ring, write det(t I - M) = t^n + sum_{i=1..n} (-1)^i b_i t^(n-i).  The
tuple b = (b_1, ..., b_n) is what char_invariants returns, so b_1 is the
trace and b_n the determinant, both with no sign.  companion_section
builds the companion matrix of det(t I - M) under the same convention,
which makes char_invariants(companion_section(b)) = b an identity for
every p.

The characteristic polynomial is computed by Berkowitz's recursion
(Inform. Process. Lett. 18, 1984) from sums of products and t-polynomial
products alone.  It is division-free, so valid over any commutative ring;
nothing divides by 1..n, so small p is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .connection import Connection, pcurv
from .errors import (
    DimensionMismatch,
    InsufficientPrecision,
    InternalInconsistency,
    NotAPthPower,
    RankTooLarge,
    VarMismatch,
)
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_TWIST, dot

MAX_RANK = 8


@dataclass(frozen=True)
class InvariantTuple:
    """The ordered tuple (b_1, ..., b_n) of characteristic invariants."""

    entries: tuple[TruncSeries, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DimensionMismatch("rank must be at least 1")
        first = self.entries[0]
        for e in self.entries:
            if e.field != first.field or e.var != first.var or e.precision != first.precision:
                raise DimensionMismatch("invariant entries disagree on field, var or precision")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def field(self):
        return self.entries[0].field

    @property
    def var(self) -> str:
        return self.entries[0].var

    @property
    def precision(self) -> int:
        return self.entries[0].precision

    def agrees_with(self, other: "InvariantTuple") -> bool:
        if self.rank != other.rank:
            raise DimensionMismatch("invariant ranks differ")
        return all(a.agrees_with(b) for a, b in zip(self.entries, other.entries))

    def truncate(self, precision: int) -> "InvariantTuple":
        return InvariantTuple(tuple(e.truncate(precision) for e in self.entries))

    def char_poly(self) -> list[TruncSeries]:
        """det(t I - M) as ascending t-coefficients (length n + 1, monic)."""
        signed = [b if i % 2 == 0 else -b for i, b in enumerate(self.entries, 1)]
        return signed[::-1] + [TruncSeries.one(self.field, self.var, self.precision)]


def poly_mul(a: Sequence[TruncSeries], b: Sequence[TruncSeries]) -> list[TruncSeries]:
    """Product of two t-polynomials with series coefficients: their convolution.

    Coefficient k is the sum of a[i] * b[k - i], so ascending and
    descending coefficient lists both work.  Each coefficient is one dot,
    at the least precision among its terms.  An empty operand gives [].
    """
    out: list[TruncSeries] = []
    for k in range(len(a) + len(b) - 1 if a and b else 0):
        lo = max(0, k - len(b) + 1)
        out.append(dot(a[lo : k + 1], b[k - lo :: -1]))
    return out


def char_invariants(m: SeriesMatrix) -> InvariantTuple:
    """Characteristic invariants of a matrix, by Berkowitz's recursion."""
    n = m.rank
    if n > MAX_RANK:
        raise RankTooLarge(f"rank {n} exceeds the supported bound {MAX_RANK}")
    e = m.entries
    one = TruncSeries.one(m.field, m.var, m.precision)
    # det(t I - A) of the leading k x k block A, descending in t.  Bordering
    # A by row r, column c and corner a multiplies it by the Toeplitz matrix
    # with first column 1, -a, -r c, -r A c, ..., -r A^(k-1) c.
    charpoly = [one]
    for k in range(n):
        r = e[k][:k]
        c = [row[k] for row in e[:k]]
        column = [one, -e[k][k]]
        for j in range(k):
            if j:
                c = [dot(row[:k], c) for row in e[:k]]
            column.append(-dot(r, c))
        charpoly = poly_mul(column, charpoly)[: k + 2]
    return InvariantTuple(tuple(x if i % 2 == 0 else -x for i, x in enumerate(charpoly[1:], 1)))


def companion_section(b: InvariantTuple) -> SeriesMatrix:
    """The companion matrix of det(t I - M); a section of char_invariants."""
    n = b.rank
    field = b.field
    var = b.var
    prec = b.precision
    zero = TruncSeries.zero(field, var, prec)
    one = TruncSeries.one(field, var, prec)
    q = b.char_poly()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == n - 1:
                row.append(-q[i])
            elif i == j + 1:
                row.append(one)
            else:
                row.append(zero)
        rows.append(tuple(row))
    return SeriesMatrix(tuple(rows))


def descend_certified(x: TruncSeries | SeriesMatrix, noun: str, failure: str):
    """x.descend_pth_power() for a series or matrix that theory says descends.

    A failing exponent is a broken theorem, hence InternalInconsistency with
    the message ``failure``, except when the stated precision is too small to
    have seen a full period: then InsufficientPrecision names the ``noun``.
    """
    try:
        return x.descend_pth_power()
    except NotAPthPower as exc:
        p = x.field.p
        if x.precision < p:
            raise InsufficientPrecision(f"{noun} precision {x.precision} below p = {p}") from exc
        raise InternalInconsistency(
            failure, exponent=exc.exponent, coefficient=exc.coefficient
        ) from exc


def descend_invariants(b: InvariantTuple) -> InvariantTuple:
    """Entrywise descent of a p-curvature invariant tuple to the twist.

    Only meaningful for tuples arising from a p-curvature, where every
    entry is supported on exponents divisible by p (see descend_certified).
    """
    failure = "characteristic invariant of a p-curvature failed to descend"
    return InvariantTuple(tuple(descend_certified(e, "invariant", failure) for e in b.entries))


def phitchin(conn: Connection) -> InvariantTuple:
    """Invariants of the p-curvature, descended to the twist coordinate."""
    p = conn.field.p
    if conn.precision < p + 2:
        raise InsufficientPrecision(
            f"need precision >= p + 2 = {p + 2}, have {conn.precision}"
        )
    psi = pcurv(conn)
    return descend_invariants(char_invariants(psi.matrix))


def frobenius_base_pullback(b_twist: InvariantTuple) -> InvariantTuple:
    """Pull an invariant tuple back along the relative Frobenius: z' -> z^p."""
    if b_twist.var != VAR_TWIST:
        raise VarMismatch("pullback consumes a z'-side tuple")
    return InvariantTuple(tuple(e.expand_pth_power() for e in b_twist.entries))

