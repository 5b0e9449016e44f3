"""Dense square matrices of truncated series, all entries at one precision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DimensionMismatch, SingularGauge
from .field import FieldSpec
from .series import TruncSeries, dot


@dataclass(frozen=True)
class SeriesMatrix:
    """An n x n matrix over the truncated series ring."""

    entries: tuple[tuple[TruncSeries, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise DimensionMismatch("rank must be at least 1")
        if any(len(row) != n for row in self.entries):
            raise DimensionMismatch("matrix is not square")
        first = self.entries[0][0]
        for row in self.entries:
            for e in row:
                if e.field != first.field or e.var != first.var:
                    raise DimensionMismatch("entries disagree on field or variable")
                if e.precision != first.precision:
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
        self._check_peer(other)
        cols = tuple(zip(*other.entries))
        return SeriesMatrix(tuple(tuple(dot(row, col) for col in cols) for row in self.entries))

    def matvec(self, vec: Sequence[TruncSeries]) -> tuple[TruncSeries, ...]:
        if len(vec) != self.rank:
            raise DimensionMismatch("vector length does not match rank")
        out = []
        for i in range(self.rank):
            acc = self.entries[i][0] * vec[0]
            for t in range(1, self.rank):
                acc = acc + self.entries[i][t] * vec[t]
            out.append(acc)
        return tuple(out)

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
        """Invert by elimination over the local ring; pivots must be units.

        A unit pivot always exists in some row when the matrix is
        invertible over the series ring, i.e. when its constant-term
        matrix is invertible over the field; otherwise SingularGauge.
        """
        n = self.rank
        prec = self.precision
        work = [list(row) for row in self.entries]
        inv = [list(row) for row in SeriesMatrix.identity(self.field, self.var, n, prec).entries]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if work[r][col].is_unit():
                    piv = r
                    break
            if piv is None:
                raise SingularGauge("constant-term matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            ipiv = work[col][col].inverse()
            work[col] = [e * ipiv for e in work[col]]
            inv[col] = [e * ipiv for e in inv[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
        return SeriesMatrix(tuple(tuple(row) for row in inv))

    def conjugate_by(self, g: "SeriesMatrix") -> "SeriesMatrix":
        """g^(-1) @ self @ g."""
        return g.inverse() @ self @ g

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
