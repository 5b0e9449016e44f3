"""Flat connections on the trivialized rank-n bundle over the disk.

A connection is the operator d/dz + A for an n x n series matrix A; this
sign is a global convention of the package.  Under it the p-curvature
satisfies dPsi/dz = [Psi, A], equivalently dPsi/dz + A Psi - Psi A = 0,
which check_horizontality asserts.

pcurv has exactly one semantics: the operator applied p times to the
identity matrix, whose columns are the constant basis vectors.  The first
application gives A itself, so the recursion starts there and applies the
operator p - 1 more times, as one call of the kernel that
pdisk.harmonic.pcurv_in_ring shares (series.pcurv_steps, over
_kernels_py.series_pcurv).  Each connection computes its p-curvature once
and keeps it (Connection.p_curvature, under field.Value); its invariants
are those of its matrix (SeriesMatrix.invariants), also computed once.
The rank-1 closed form f^p + (d/dz)^(p-1) f, the identity-seeded p-fold
loop and the matrix loop seeded at A exist in the test suite as
independent oracles and are deliberately not used here.

gauge is the one frame change.  Moving by the inverse of a matrix h,
gauge(h.inverse(), conn), eliminates once: the inverse keeps h as its own
inverse (SeriesMatrix.inverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientPrecision, VarMismatch
from .field import Value
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_DISK, pcurv_steps


@dataclass(frozen=True)
class Connection(Value):
    """d/dz + matrix, acting on column vectors of z-series."""

    matrix: SeriesMatrix

    def __post_init__(self) -> None:
        if self.matrix.var != VAR_DISK:
            raise VarMismatch("a connection matrix lives in the z coordinate")

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def precision(self) -> int:
        return self.matrix.precision

    @property
    def field(self):
        return self.matrix.field

    @cached_property
    def p_curvature(self) -> "FHiggs":
        """The p-curvature, computed on first read; InsufficientPrecision below N = p + 1.

        The operator sends the identity to A exactly (dI/dz = 0, A I = A),
        so the recursion is seeded at A and applies X -> dX/dz + A X p - 1
        times, in one pcurv_steps call with m = x = A: each application
        costs one order, leaving N - p + 1.
        """
        p = self.field.p
        if self.precision < p + 1:
            raise InsufficientPrecision(f"need precision >= p + 1 = {p + 1}, have {self.precision}")
        a = self.matrix.entries
        return FHiggs(SeriesMatrix._computed(pcurv_steps(a, a, p - 1)))


@dataclass(frozen=True)
class FHiggs:
    """A p-curvature matrix: twist-linear endomorphism of weight p."""

    matrix: SeriesMatrix

    @property
    def twist_weight(self) -> int:
        return self.matrix.field.p


def gauge(g: SeriesMatrix, conn: Connection) -> Connection:
    """Change frame by the unit matrix g: A becomes g A g^(-1) + g d(g^(-1)).

    The defining property, apply(gauge(g, conn), g v) = g apply(conn, v),
    is checked in the tests with their apply (tests/conftest.py), the
    operator dv/dz + A v on a column vector.
    """
    g_inv = g.inverse()
    return Connection(g @ (conn.matrix @ g_inv + g_inv.derivative()))


def pcurv(conn: Connection) -> FHiggs:
    """The p-curvature: the p-fold composite of X -> dX/dz + A X, applied to I.

    Computed once per connection (Connection.p_curvature: p - 1 steps of
    one kernel recursion seeded at A, the first application) and returned
    from there on every later call.  The result holds N - p + 1 orders.
    """
    return conn.p_curvature


def check_horizontality(conn: Connection, psi: FHiggs) -> SeriesMatrix:
    """Residual of the defining identity: dPsi/dz + A Psi - Psi A.

    Zero (exactly, coefficient by coefficient) when psi is the connection's
    p-curvature.
    """
    if conn.precision < conn.field.p + 2:
        raise InsufficientPrecision("need precision >= p + 2 for the residual")
    m = psi.matrix
    a = conn.matrix
    return m.derivative() + (a @ m) - (m @ a)


def dlog(g) -> TruncSeries:
    """Logarithmic derivative g^(-1) dg/dz of a unit series or spectral unit."""
    inverse = g.inverse()
    derivative = g.derivative()
    return inverse * derivative
