"""Truncated power series with first-class precision.

A ``TruncSeries`` stores the coefficients of z^0 .. z^(N-1) and nothing
else; N is the precision.  Precision is data, not padding: every operation
returns the largest precision actually warranted by its inputs and nothing
is ever silently zero-filled.

    add, mul, dot   min(N_a, N_b, ...)
    inverse         N_a           (unit constant term required)
    derivative      N_a - 1
    descend         ceil(N / p)   (see descend_pth_power)

This arithmetic, with ``SeriesMatrix`` built on it, is the one place
precision is met: operands of different precision combine at the smaller
one, and ``agrees_with`` compares at the common precision, so callers never
truncate before arithmetic or comparison.

Two coordinates exist: "z" on the disk and "z'" on its Frobenius twist.
Term strings in JSON always spell the letter z; the ``var`` tag names the
coordinate.  Coordinate conventions, fixed globally: the relative
Frobenius pulls back z' to z^p and fixes coefficients; the twist
projection sends z to z' and raises coefficients to the p-th power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Iterable, TypeVar

from .backend import impl
from .errors import (
    FieldMismatch,
    NonUnitConstantTerm,
    NotAPthPower,
    VarMismatch,
    ZeroPrecision,
)
from .field import FieldSpec

VAR_DISK = "z"
VAR_TWIST = "z'"


@dataclass(frozen=True)
class TruncSeries:
    """An element of O/z^N (var "z") or O'/z'^N (var "z'")."""

    field: FieldSpec
    var: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.var not in (VAR_DISK, VAR_TWIST):
            raise VarMismatch(f"unknown variable {self.var!r}")
        object.__setattr__(self, "coeffs", tuple(self.field.validate(c) for c in self.coeffs))

    # -- construction -----------------------------------------------------

    @classmethod
    def make(
        cls, field: FieldSpec, var: str, coeffs: Iterable[int], precision: int | None = None
    ) -> "TruncSeries":
        """Build from leading coefficients, zero-extending up to ``precision``.

        Extending with explicit zeros is a statement of knowledge by the
        caller; arithmetic itself never pads.
        """
        cs = list(coeffs)
        if precision is not None:
            if len(cs) > precision:
                raise ValueError("more coefficients than the stated precision")
            cs += [0] * (precision - len(cs))
        return cls(field, var, tuple(cs))

    @classmethod
    def zero(cls, field: FieldSpec, var: str, precision: int) -> "TruncSeries":
        return cls(field, var, (0,) * precision)

    @classmethod
    def one(cls, field: FieldSpec, var: str, precision: int) -> "TruncSeries":
        return cls.constant(field, var, 1, precision)

    @classmethod
    def constant(cls, field: FieldSpec, var: str, c: int, precision: int) -> "TruncSeries":
        return cls.monomial(field, var, 0, precision, c)

    @classmethod
    def monomial(
        cls, field: FieldSpec, var: str, exponent: int, precision: int, coeff: int = 1
    ) -> "TruncSeries":
        if exponent >= precision:
            return cls.zero(field, var, precision)
        return cls.make(field, var, [0] * exponent + [coeff], precision)

    # -- basics -----------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return self.precision >= 1 and self.coeffs[0] != 0

    def coeff(self, m: int) -> int:
        """Coefficient of z^m; m must be below the precision."""
        if not 0 <= m < self.precision:
            raise ZeroPrecision(f"coefficient {m} beyond precision {self.precision}")
        return self.coeffs[m]

    def truncate(self, precision: int) -> "TruncSeries":
        if precision > self.precision:
            raise ZeroPrecision(
                f"cannot raise precision {self.precision} to {precision}"
            )
        return TruncSeries(self.field, self.var, self.coeffs[:precision])

    def _check_peer(self, other: "TruncSeries") -> None:
        if self.field != other.field:
            raise FieldMismatch("operands live over different coefficient fields")
        if self.var != other.var:
            raise VarMismatch(f"operands mix {self.var} with {other.var}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_peer(other)
        f = self.field
        out = impl.series_add(self.coeffs, other.coeffs, f.p, f.k, f.modulus)
        return TruncSeries(f, self.var, tuple(out))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __neg__(self) -> "TruncSeries":
        f = self.field
        out = impl.series_neg(self.coeffs, f.p, f.k, f.modulus)
        return TruncSeries(f, self.var, tuple(out))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_peer(other)
        f = self.field
        nout = min(self.precision, other.precision)
        out = impl.series_mul(self.coeffs, other.coeffs, nout, f.p, f.k, f.modulus)
        return TruncSeries(f, self.var, tuple(out))

    def scale(self, c: int) -> "TruncSeries":
        """Multiply by a field element."""
        f = self.field
        c = f.validate(c)
        return TruncSeries(f, self.var, tuple(f.mul(c, x) for x in self.coeffs))

    def scale_int(self, c: int) -> "TruncSeries":
        """Multiply by an integer through the prime subfield."""
        f = self.field
        return TruncSeries(f, self.var, tuple(f.scalar_mul(c, x) for x in self.coeffs))

    def inverse(self) -> "TruncSeries":
        if self.precision == 0:
            raise ZeroPrecision("cannot invert a precision-0 series")
        if self.coeffs[0] == 0:
            raise NonUnitConstantTerm("constant term is not a unit")
        f = self.field
        c0inv = f.inv(self.coeffs[0])
        out = impl.series_inv(self.coeffs, self.precision, c0inv, f.p, f.k, f.modulus)
        return TruncSeries(f, self.var, tuple(out))

    def derivative(self) -> "TruncSeries":
        """d/dz, dropping one order of precision."""
        if self.precision == 0:
            raise ZeroPrecision("cannot differentiate a precision-0 series")
        f = self.field
        out = tuple(
            f.scalar_mul(m + 1, self.coeffs[m + 1]) for m in range(self.precision - 1)
        )
        return TruncSeries(f, self.var, out)

    def __pow__(self, e: int) -> "TruncSeries":
        if e < 0:
            raise ValueError("negative exponent: invert the series first")
        result = TruncSeries.one(self.field, self.var, self.precision)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Frobenius-side maps ----------------------------------------------

    def descend_pth_power(self) -> "TruncSeries":
        """Untwist a series of p-th powers: sum c_{ip} z^{ip} -> sum c_{ip} z'^i.

        Every known coefficient at an exponent not divisible by p must
        vanish; the first offender is reported in NotAPthPower.  The output
        keeps every determined coefficient, so its precision is ceil(N/p).
        """
        if self.var != VAR_DISK:
            raise VarMismatch("descend consumes a z-series")
        if self.precision == 0:
            raise ZeroPrecision("cannot descend a precision-0 series")
        p = self.field.p
        for m, c in enumerate(self.coeffs):
            if c != 0 and m % p != 0:
                raise NotAPthPower(m, c)
        n = self.precision
        out = tuple(self.coeffs[i * p] for i in range((n + p - 1) // p))
        return TruncSeries(self.field, VAR_TWIST, out)

    def expand_pth_power(self) -> "TruncSeries":
        """Pull back along the relative Frobenius: z' -> z^p, coefficients fixed."""
        if self.var != VAR_TWIST:
            raise VarMismatch("expand consumes a z'-series")
        p = self.field.p
        out = [0] * (self.precision * p)
        for i, c in enumerate(self.coeffs):
            out[i * p] = c
        return TruncSeries(self.field, VAR_DISK, tuple(out))

    def pi_star(self) -> "TruncSeries":
        """Project to the twist: exponents kept, coefficients raised to the p-th power."""
        if self.var != VAR_DISK:
            raise VarMismatch("pi_star consumes a z-series")
        f = self.field
        out = tuple(f.frobenius(c) for c in self.coeffs)
        return TruncSeries(f, VAR_TWIST, out)

    # -- presentation -----------------------------------------------------

    def agrees_with(self, other: "TruncSeries") -> bool:
        """Equality at the common precision."""
        self._check_peer(other)
        n = min(self.precision, other.precision)
        return self.coeffs[:n] == other.coeffs[:n]

    def __str__(self) -> str:
        from .jsonio import format_series

        return format_series(self)


_R = TypeVar("_R")


def dot(xs: Iterable[_R], ys: Iterable[_R]) -> _R:
    """The sum of x * y over paired ring elements, at the least precision among the terms.

    Works for any elements with ``+`` and ``*``: ``TruncSeries`` and
    ``SpectralElement`` alike.  The pairing stops at the shorter input,
    which must not be empty.
    """
    return reduce(add, map(mul, xs, ys))
