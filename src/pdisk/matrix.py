"""Dense square matrices of truncated series, all entries at one precision.

``SeriesMatrix(...)`` and ``map_entries`` check shape, field, variable and
precision, and ``diagonal`` (so ``identity`` and ``zero``) checks its
entries the same way; a sum, difference, product, inverse, truncation,
derivative or Frobenius descent or expansion of checked operands, and the
zeros a diagonal matrix is filled with, are built by
``SeriesMatrix._computed`` without a second check.

The product, the inverse and the characteristic invariants each run as one
kernel on the entries' coefficient lists (``_kernels_py.series_matmul``,
``series_matinv`` and ``series_charpoly``): one peer check, one kernel call
and one ``_computed`` build, with no series built per entry on the way.

A matrix's inverse and characteristic invariants are computed once and
kept beside its entries (field.Value).  The inverse holds the matrix as its
own inverse by a weak reference, so no reference cycle forms.

Sign convention, fixed package-wide: for an n x n matrix M over the series
ring, write det(t I - M) = t^n + sum_{i=1..n} (-1)^i b_i t^(n-i).  The
tuple b = (b_1, ..., b_n) is what char_invariants returns, so b_1 is the
trace and b_n the determinant, both with no sign.

The characteristic polynomial is computed by Berkowitz's recursion
(Inform. Process. Lett. 18, 1984) from sums of products alone: each
bordering step is a Toeplitz product, one sum of products per kept
coefficient.  It is division-free, so valid over any commutative ring;
nothing divides by 1..n, so small p is safe.  The polynomial itself, as
ascending t-coefficients, is SpectralRing.char.  The inverse is Gauss-Jordan
elimination on [A | I], whose pivots must be units of the series ring.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .backend import impl
from .errors import DimensionMismatch, RankTooLarge, SingularGauge
from .field import FieldSpec, Value
from .series import TruncSeries

MAX_RANK = 8


def _check_agree(entries: Sequence[TruncSeries]) -> None:
    """Every entry has the first one's field, variable and precision, checked in order."""
    first = entries[0]
    field = first.field
    precision = len(first.coeffs)
    for e in entries:
        if (e.field is not field and e.field != field) or e.var != first.var:
            raise DimensionMismatch("entries disagree on field or variable")
        if len(e.coeffs) != precision:
            raise DimensionMismatch("entries disagree on precision")


@dataclass(frozen=True)
class SeriesMatrix(Value):
    """An n x n matrix over the truncated series ring."""

    entries: tuple[tuple[TruncSeries, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise DimensionMismatch("rank must be at least 1")
        if any(len(row) != n for row in self.entries):
            raise DimensionMismatch("matrix is not square")
        _check_agree([e for row in self.entries for e in row])

    @classmethod
    def _computed(cls, entries: tuple[tuple[TruncSeries, ...], ...]) -> "SeriesMatrix":
        """A matrix computed from checked operands: its entries are set, not checked again."""
        m = object.__new__(cls)
        m.__dict__["entries"] = entries
        return m

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
        """The diagonal matrix of checked series, which must agree as the constructor requires."""
        if not diag:
            raise DimensionMismatch("rank must be at least 1")
        _check_agree(diag)
        zero = TruncSeries.zero(diag[0].field, diag[0].var, diag[0].precision)
        n = len(diag)
        return cls._computed(
            tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))
        )

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
        """fn of every entry, checked as the constructor checks."""
        return SeriesMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def _map(self, fn: Callable[[TruncSeries], TruncSeries]) -> "SeriesMatrix":
        """fn of every entry, for an fn that keeps agreeing entries agreeing: not checked again."""
        return SeriesMatrix._computed(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def _coefficients(self) -> list[list[tuple[int, ...]]]:
        return [[e.coeffs for e in row] for row in self.entries]

    def _built(self, rows) -> tuple[tuple[TruncSeries, ...], ...]:
        """Series of this matrix's field and variable from a kernel's coefficient lists."""
        f, var = self.field, self.var
        return tuple([tuple([TruncSeries._computed(f, var, tuple(cs)) for cs in row]) for row in rows])

    def truncate(self, precision: int) -> "SeriesMatrix":
        return self._map(lambda e: e.truncate(precision))

    def _check_peer(self, other: "SeriesMatrix") -> None:
        if self.rank != other.rank:
            raise DimensionMismatch("matrix ranks differ")
        self.entries[0][0]._check_peer(other.entries[0][0])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_peer(other)
        return SeriesMatrix._computed(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_peer(other)
        return SeriesMatrix._computed(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        """The product at the smaller precision: one ``series_matmul`` call."""
        self._check_peer(other)
        f = self.field
        out = impl.series_matmul(self._coefficients(), other._coefficients(), f.p, f.k, f.modulus)
        return SeriesMatrix._computed(self._built(out))

    def matvec(self, vec: Sequence[TruncSeries]) -> tuple[TruncSeries, ...]:
        """The product with a column of series at the least precision: ``series_matmul``, c = 1.

        Each entry of vec is checked against the matrix's field and variable, in order.
        """
        if len(vec) != self.rank:
            raise DimensionMismatch("vector length does not match rank")
        e00 = self.entries[0][0]
        for v in vec:
            e00._check_peer(v)
        f = self.field
        column = [[v.coeffs] for v in vec]
        out = impl.series_matmul(self._coefficients(), column, f.p, f.k, f.modulus)
        return tuple(row[0] for row in self._built(out))

    def derivative(self) -> "SeriesMatrix":
        return self._map(lambda e: e.derivative())

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
        """Invert by elimination over the local ring (one ``series_matinv`` call); pivots are units.

        A unit pivot always exists in some row when the matrix is
        invertible over the series ring, i.e. when its constant-term
        matrix is invertible over the field; otherwise SingularGauge.
        """
        f = self.field
        out = impl.series_matinv(self._coefficients(), f.p, f.k, f.modulus)
        if out is None:
            raise SingularGauge("constant-term matrix is singular")
        return SeriesMatrix._computed(self._built(out))

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

    def descend_pth_power(self) -> "SeriesMatrix":
        return self._map(lambda e: e.descend_pth_power())

    def expand_pth_power(self) -> "SeriesMatrix":
        return self._map(lambda e: e.expand_pth_power())


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
    """Characteristic invariants of a matrix by Berkowitz's recursion, one ``series_charpoly`` call."""
    n = m.rank
    if n > MAX_RANK:
        raise RankTooLarge(f"rank {n} exceeds the supported bound {MAX_RANK}")
    f = m.field
    out = impl.series_charpoly(m._coefficients(), f.p, f.k, f.modulus)
    return InvariantTuple(m._built([out])[0])
