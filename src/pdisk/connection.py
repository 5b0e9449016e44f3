"""Flat connections on the trivialized rank-n bundle over the disk.

A connection is the operator d/dz + A for an n x n series matrix A; this
sign is a global convention of the package.  Under it the p-curvature
satisfies dPsi/dz = [Psi, A], equivalently dPsi/dz + A Psi - Psi A = 0,
which check_horizontality asserts.

pcurv has exactly one semantics: apply the operator p times to the
identity matrix, whose columns are the constant basis vectors.  The rank-1
closed form f^p + (d/dz)^(p-1) f exists in the test suite as an independent
oracle and is deliberately not used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InsufficientPrecision, VarMismatch
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_DISK


@dataclass(frozen=True)
class Connection:
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

    def apply(self, vec: Sequence[TruncSeries]) -> tuple[TruncSeries, ...]:
        """The operator applied to a column vector: dv/dz + A v."""
        if len(vec) != self.rank:
            raise DimensionMismatch("vector length does not match rank")
        av = self.matrix.matvec(vec)
        return tuple(v.derivative() + w for v, w in zip(vec, av))


@dataclass(frozen=True)
class FHiggs:
    """A p-curvature matrix: twist-linear endomorphism of weight p."""

    matrix: SeriesMatrix

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def twist_weight(self) -> int:
        return self.matrix.field.p


def gauge(g: SeriesMatrix, conn: Connection) -> Connection:
    """Change frame by the unit matrix g: A becomes g A g^(-1) + g d(g^(-1)).

    The defining property (checked in the tests, not here) is
    apply(gauge(g, conn), g v) = g apply(conn, v).
    """
    g_inv = g.inverse()
    a_new = (g @ conn.matrix @ g_inv) + (g @ g_inv.derivative())
    return Connection(a_new)


def pcurv(conn: Connection) -> FHiggs:
    """The p-curvature, by p-fold application of X -> dX/dz + A X to the identity.

    The identity is exactly known at every order, so it is seeded one order
    above A, the first application costs no precision and the result holds
    N - p + 1 orders.
    """
    p = conn.field.p
    nprec = conn.precision
    if nprec < p + 1:
        raise InsufficientPrecision(
            f"need precision >= p + 1 = {p + 1}, have {nprec}"
        )
    x = SeriesMatrix.identity(conn.field, VAR_DISK, conn.rank, nprec + 1)
    for _ in range(p):
        x = x.derivative() + conn.matrix @ x
    return FHiggs(x)


def check_horizontality(conn: Connection, psi: FHiggs | None = None) -> SeriesMatrix:
    """Residual of the defining identity: dPsi/dz + A Psi - Psi A.

    Zero (exactly, coefficient by coefficient) on every valid pair.  When
    psi is omitted it is computed from the connection.
    """
    if conn.precision < conn.field.p + 2:
        raise InsufficientPrecision("need precision >= p + 2 for the residual")
    if psi is None:
        psi = pcurv(conn)
    m = psi.matrix
    a = conn.matrix
    return m.derivative() + (a @ m) - (m @ a)


def dlog(g) -> TruncSeries:
    """Logarithmic derivative g^(-1) dg/dz of a unit series or spectral unit."""
    inverse = g.inverse()
    derivative = g.derivative()
    return inverse * derivative
