"""Dense square matrices of truncated series, all entries at one precision.

A matrix's inverse and characteristic invariants are computed once and
kept, outside its value (equality, hash, repr and pickle see the entries
only).  The inverse holds the matrix as its own inverse by a weak
reference, so no reference cycle forms.

Sign convention, fixed package-wide: for an n x n matrix M over the series
ring, write det(t I - M) = t^n + sum_{i=1..n} (-1)^i b_i t^(n-i).  The
tuple b = (b_1, ..., b_n) is what char_invariants returns, so b_1 is the
trace and b_n the determinant, both with no sign.

The characteristic polynomial is computed by Berkowitz's recursion
(Inform. Process. Lett. 18, 1984) from sums of products alone: each
bordering step is a Toeplitz product, one dot per kept coefficient.  It is
division-free, so valid over any commutative ring; nothing divides by
1..n, so small p is safe.  The polynomial itself, as ascending
t-coefficients, is SpectralRing.char.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import DimensionMismatch, RankTooLarge, SingularGauge
from .field import FieldSpec
from .series import TruncSeries, dot

MAX_RANK = 8


@dataclass(frozen=True)
class SeriesMatrix:
    """An n x n matrix over the truncated series ring."""

    entries: tuple[tuple[TruncSeries, ...], ...]

    def __getstate__(self) -> dict:
        """Pickle the entries alone: the kept inverse and invariants are not the value."""
        return {"entries": self.entries}

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise DimensionMismatch("rank must be at least 1")
        if any(len(row) != n for row in self.entries):
            raise DimensionMismatch("matrix is not square")
        first = self.entries[0][0]
        field = first.field
        precision = len(first.coeffs)
        for row in self.entries:
            for e in row:
                if (e.field is not field and e.field != field) or e.var != first.var:
                    raise DimensionMismatch("entries disagree on field or variable")
                if len(e.coeffs) != precision:
                    raise DimensionMismatch("entries disagree on precision")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[TruncSeries]]) -> "SeriesMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, field: FieldSpec, var: str, rank: int, precision: int) -> "SeriesMatrix":
        return cls.diagonal([TruncSeries.one(field, var, precision)] * rank)

    @classmethod
    def zero(cls, field: FieldSpec, var: str, rank: int, precision: int) -> "SeriesMatrix":
        return cls.diagonal([TruncSeries.zero(field, var, precision)] * rank)

    @classmethod
    def diagonal(cls, diag: Sequence[TruncSeries]) -> "SeriesMatrix":
        if not diag:
            raise DimensionMismatch("rank must be at least 1")
        zero = TruncSeries.zero(diag[0].field, diag[0].var, diag[0].precision)
        n = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n)))

    # -- basics -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def field(self) -> FieldSpec:
        return self.entries[0][0].field

    @property
    def var(self) -> str:
        return self.entries[0][0].var

    @property
    def precision(self) -> int:
        return self.entries[0][0].precision

    def entry(self, i: int, j: int) -> TruncSeries:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def map_entries(self, fn: Callable[[TruncSeries], TruncSeries]) -> "SeriesMatrix":
        return SeriesMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def truncate(self, precision: int) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.truncate(precision))

    def _check_peer(self, other: "SeriesMatrix") -> None:
        if self.rank != other.rank:
            raise DimensionMismatch("matrix ranks differ")
        self.entries[0][0]._check_peer(other.entries[0][0])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_peer(other)
        return SeriesMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_peer(other)
        return SeriesMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: -e)

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        """The product at the smaller precision: one ``dot`` per entry."""
        self._check_peer(other)
        cols = tuple(zip(*other.entries))
        return SeriesMatrix(tuple(tuple(dot(row, col) for col in cols) for row in self.entries))

    def matvec(self, vec: Sequence[TruncSeries]) -> tuple[TruncSeries, ...]:
        if len(vec) != self.rank:
            raise DimensionMismatch("vector length does not match rank")
        return tuple(dot(row, vec) for row in self.entries)

    def scale(self, s: TruncSeries) -> "SeriesMatrix":
        return self.map_entries(lambda e: e * s)

    def derivative(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.derivative())

    def trace(self) -> TruncSeries:
        acc = self.entries[0][0]
        for i in range(1, self.rank):
            acc = acc + self.entries[i][i]
        return acc

    def inverse(self) -> "SeriesMatrix":
        """The inverse, eliminated once and kept; its own inverse is this matrix.

        A singular matrix keeps nothing, so it raises SingularGauge on every call.
        """
        kept = self.__dict__.get("_inverse")
        inv = kept() if isinstance(kept, weakref.ref) else kept
        if inv is None:
            inv = self._eliminate()
            self.__dict__["_inverse"] = inv
            inv.__dict__["_inverse"] = weakref.ref(self)
        return inv

    def _eliminate(self) -> "SeriesMatrix":
        """Invert by elimination over the local ring; pivots must be units.

        A unit pivot always exists in some row when the matrix is
        invertible over the series ring, i.e. when its constant-term
        matrix is invertible over the field; otherwise SingularGauge.
        """
        n = self.rank
        ident = SeriesMatrix.identity(self.field, self.var, n, self.precision).entries
        rows = [list(a + e) for a, e in zip(self.entries, ident)]
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col].is_unit()), None)
            if piv is None:
                raise SingularGauge("constant-term matrix is singular")
            rows[col], rows[piv] = rows[piv], rows[col]
            ipiv = rows[col][col].inverse()
            # a zero operand leaves its entry as it is: every entry has one precision
            rows[col] = [e if e.is_zero() else e * ipiv for e in rows[col]]
            for r in range(n):
                f = rows[r][col]
                if r != col and not f.is_zero():
                    rows[r] = [a if b.is_zero() else a - f * b for a, b in zip(rows[r], rows[col])]
        return SeriesMatrix(tuple(tuple(row[n:]) for row in rows))

    def conjugate_by(self, g: "SeriesMatrix") -> "SeriesMatrix":
        """g^(-1) @ self @ g."""
        return g.inverse() @ self @ g

    @cached_property
    def invariants(self) -> "InvariantTuple":
        """char_invariants of the matrix, computed on first read."""
        return char_invariants(self)

    # -- comparisons ------------------------------------------------------

    def agrees_with(self, other: "SeriesMatrix") -> bool:
        self._check_peer(other)
        return all(
            a.agrees_with(b)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def residue(self) -> tuple[tuple[int, ...], ...]:
        """The constant-term matrix over the field."""
        return tuple(tuple(e.coeff(0) for e in row) for row in self.entries)

    def descend_pth_power(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.descend_pth_power())

    def expand_pth_power(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.expand_pth_power())


@dataclass(frozen=True)
class InvariantTuple:
    """The ordered tuple (b_1, ..., b_n) of characteristic invariants."""

    entries: tuple[TruncSeries, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DimensionMismatch("rank must be at least 1")
        first = self.entries[0]
        field = first.field
        for e in self.entries:
            if (
                (e.field is not field and e.field != field)
                or e.var != first.var
                or e.precision != first.precision
            ):
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
        # the Toeplitz product: the first k + 2 coefficients of column * charpoly
        charpoly = [dot(column[: i + 1], charpoly[i::-1]) for i in range(k + 1)] + [
            dot(column[1:], charpoly[::-1])
        ]
    return InvariantTuple(tuple(x if i % 2 == 0 else -x for i, x in enumerate(charpoly[1:], 1)))
