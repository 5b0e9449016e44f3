"""Truncated power series with first-class precision.

A ``TruncSeries`` stores the coefficients of z^0 .. z^(N-1) and nothing
else; N is the precision.  Precision is data, not padding: every operation
returns the largest precision actually warranted by its inputs and nothing
is ever silently zero-filled.

    add, sub, mul, dot   min(N_a, N_b, ...)
    inverse              N_a           (unit constant term required)
    derivative           N_a - 1
    pcurv_steps          N_x - steps   (one order per derivative)
    descend              ceil(N / p)   (see descend_pth_power)

This arithmetic, with ``SeriesMatrix`` built on it, is the one place
precision is met: operands of different precision combine at the smaller
one, and ``agrees_with`` compares at the common precision, so callers never
truncate before arithmetic or comparison.

Data is checked where it enters: the public constructor (so ``make``,
``jsonio`` and ``rng`` too) checks that every coefficient encodes a field
element, the whole tuple at once; ``FieldSpec.validate`` runs only to raise
for the first offender.  A result computed from checked operands is built by
``TruncSeries._computed`` without a second check.  Field comparisons between
operands test identity first, since the operands of one computation share
one ``FieldSpec``.

Two coordinates exist: "z" on the disk and "z'" on its Frobenius twist.
Term strings (format_series, also str) always spell the letter z; the
``var`` tag names the coordinate.  Coordinate conventions, fixed globally:
the relative Frobenius pulls back z' to z^p and fixes coefficients; the
twist projection sends z to z' and raises coefficients to the p-th power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def _check_constant(var: str, precision: int) -> None:
    """The refusals of a constant series, in the order ``make`` and the constructor raise them."""
    if precision < 0:
        raise ZeroPrecision(f"negative precision {precision}")
    if var not in (VAR_DISK, VAR_TWIST):
        raise VarMismatch(f"unknown variable {var!r}")


@dataclass(frozen=True)
class TruncSeries:
    """An element of O/z^N (var "z") or O'/z'^N (var "z'")."""

    field: FieldSpec
    var: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        """Check the variable tag and that every coefficient encodes a field element.

        The whole tuple is checked at once: all of type int and within
        range(q).  Only a tuple that fails goes through ``FieldSpec.validate``
        one coefficient at a time, which raises for the first offender (or
        accepts bools, which validate lets through).
        """
        if self.var not in (VAR_DISK, VAR_TWIST):
            raise VarMismatch(f"unknown variable {self.var!r}")
        cs = tuple(self.coeffs)
        if cs and (set(map(type, cs)) != {int} or min(cs) < 0 or max(cs) >= self.field.q):
            cs = tuple(map(self.field.validate, cs))
        object.__setattr__(self, "coeffs", cs)

    # -- construction -----------------------------------------------------

    @classmethod
    def _computed(cls, field: FieldSpec, var: str, coeffs: tuple[int, ...]) -> "TruncSeries":
        """A series computed from checked operands: the fields are set, not checked again."""
        s = object.__new__(cls)
        d = s.__dict__
        d["field"], d["var"], d["coeffs"] = field, var, coeffs
        return s

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
            if precision < 0:
                raise ZeroPrecision(f"negative precision {precision}")
            if len(cs) > precision:
                raise ZeroPrecision("more coefficients than the stated precision")
            cs += [0] * (precision - len(cs))
        return cls(field, var, tuple(cs))

    @classmethod
    def zero(cls, field: FieldSpec, var: str, precision: int) -> "TruncSeries":
        _check_constant(var, precision)
        return cls._computed(field, var, (0,) * precision)

    @classmethod
    def one(cls, field: FieldSpec, var: str, precision: int) -> "TruncSeries":
        _check_constant(var, precision)
        return cls._computed(field, var, ((1,) + (0,) * (precision - 1)) if precision else ())

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
        """The series at a precision no larger than its own; itself at its own."""
        if precision > self.precision:
            raise ZeroPrecision(
                f"cannot raise precision {self.precision} to {precision}"
            )
        if precision < 0:
            raise ZeroPrecision(f"cannot truncate to negative precision {precision}")
        if precision == self.precision:
            return self
        return TruncSeries._computed(self.field, self.var, self.coeffs[:precision])

    def _check_peer(self, other: "TruncSeries") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("operands live over different coefficient fields")
        if self.var != other.var:
            raise VarMismatch(f"operands mix {self.var} with {other.var}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_peer(other)
        f = self.field
        out = impl.series_add(self.coeffs, other.coeffs, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_peer(other)
        f = self.field
        out = impl.series_sub(self.coeffs, other.coeffs, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

    def __neg__(self) -> "TruncSeries":
        f = self.field
        out = impl.series_neg(self.coeffs, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_peer(other)
        f = self.field
        nout = min(self.precision, other.precision)
        out = impl.series_mul(self.coeffs, other.coeffs, nout, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

    def scale(self, c: int) -> "TruncSeries":
        """Multiply by a field element."""
        f = self.field
        c = f.validate(c)
        return TruncSeries._computed(f, self.var, tuple(f.mul(c, x) for x in self.coeffs))

    def scale_int(self, c: int) -> "TruncSeries":
        """Multiply by an integer through the prime subfield."""
        f = self.field
        return TruncSeries._computed(f, self.var, tuple(f.scalar_mul(c, x) for x in self.coeffs))

    def inverse(self) -> "TruncSeries":
        if self.precision == 0:
            raise ZeroPrecision("cannot invert a precision-0 series")
        if self.coeffs[0] == 0:
            raise NonUnitConstantTerm("constant term is not a unit")
        f = self.field
        c0inv = f.inv(self.coeffs[0])
        out = impl.series_inv(self.coeffs, self.precision, c0inv, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

    def derivative(self) -> "TruncSeries":
        """d/dz, dropping one order of precision."""
        if self.precision == 0:
            raise ZeroPrecision("cannot differentiate a precision-0 series")
        f = self.field
        out = impl.series_derivative(self.coeffs, f.p, f.k, f.modulus)
        return TruncSeries._computed(f, self.var, tuple(out))

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
        return TruncSeries._computed(self.field, VAR_TWIST, self.coeffs[::p])

    def expand_pth_power(self) -> "TruncSeries":
        """Pull back along the relative Frobenius: z' -> z^p, coefficients fixed."""
        if self.var != VAR_TWIST:
            raise VarMismatch("expand consumes a z'-series")
        p = self.field.p
        out = [0] * (self.precision * p)
        for i, c in enumerate(self.coeffs):
            out[i * p] = c
        return TruncSeries._computed(self.field, VAR_DISK, tuple(out))

    def pi_star(self) -> "TruncSeries":
        """Project to the twist: exponents kept, coefficients raised to the p-th power."""
        if self.var != VAR_DISK:
            raise VarMismatch("pi_star consumes a z-series")
        f = self.field
        out = tuple(f.frobenius(c) for c in self.coeffs)
        return TruncSeries._computed(f, VAR_TWIST, out)

    # -- presentation -----------------------------------------------------

    def agrees_with(self, other: "TruncSeries") -> bool:
        """Equality at the common precision."""
        self._check_peer(other)
        n = min(self.precision, other.precision)
        return self.coeffs[:n] == other.coeffs[:n]

    def __str__(self) -> str:
        return format_series(self)


def dot(xs: Iterable[TruncSeries], ys: Iterable[TruncSeries]) -> TruncSeries:
    """The sum of x * y over paired series, at the least precision among the terms.

    One ``series_sum_mul`` kernel call builds the one result series.  The
    pairing stops at the shorter input, which must not be empty.  Operands
    are checked in the order of the sum taken term by term: each x against
    its y, then the first x against each later x.
    """
    pairs = list(zip(xs, ys))
    if not pairs:
        raise TypeError("dot of no terms")
    x0, y0 = pairs[0]
    x0._check_peer(y0)
    for x, y in pairs[1:]:
        x._check_peer(y)
        x0._check_peer(x)
    f = x0.field
    cs = [(x.coeffs, y.coeffs) for x, y in pairs]
    nout = min(min(len(a), len(b)) for a, b in cs)
    out = impl.series_sum_mul(cs, nout, f.p, f.k, f.modulus)
    return TruncSeries._computed(f, x0.var, tuple(out))


def pcurv_steps(m, x, steps: int) -> tuple[tuple[TruncSeries, ...], ...]:
    """x -> dx/dz + m x applied ``steps`` times to the columns of x, by one kernel call.

    m is an n x n and x an n x c array of series (rows of entries) over one
    field and variable; x's entries share one precision P, and m's are
    known to at least P - 1.  Each step differentiates, so it keeps
    one order fewer: the result has x's precision minus ``steps``, and
    ZeroPrecision when ``steps`` exceeds it.
    """
    x0 = x[0][0]
    m[0][0]._check_peer(x0)
    if steps > x0.precision:
        raise ZeroPrecision("cannot differentiate a precision-0 series")
    f, var = x0.field, x0.var
    out = impl.series_pcurv(
        [[e.coeffs for e in row] for row in m],
        [[e.coeffs for e in row] for row in x],
        steps,
        f.p,
        f.k,
        f.modulus,
    )
    return tuple(tuple(TruncSeries._computed(f, var, tuple(cs)) for cs in row) for row in out)


def format_element(field: FieldSpec, a: int) -> str:
    if field.k == 1:
        return str(a)
    return "[" + ",".join(str(d) for d in field.decode(a)) + "]"


def format_series(s: TruncSeries) -> str:
    field = s.field
    terms = []
    for m, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if m == 0:
            terms.append(format_element(field, c))
            continue
        zpart = "z" if m == 1 else f"z^{m}"
        if c == 1:
            terms.append(zpart)
        else:
            terms.append(f"{format_element(field, c)}*{zpart}")
    if not terms:
        return "0"
    return " + ".join(terms)
