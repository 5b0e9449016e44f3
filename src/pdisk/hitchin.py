"""Descent of characteristic invariants, the companion section and the p-Hitchin map.

The invariants are a fact of the matrix (``SeriesMatrix.invariants``, by
``matrix.char_invariants``, whose module fixes the sign convention).
companion_section is the companion matrix of det(t I - M) under that
convention, so char_invariants(companion_section(b)) = b for every p: it is
the multiplication matrix of t in the spectral ring O[t]/(char_b)
(``spectral.regular_rep``), ones below the diagonal and -char_b in the
last column.
"""

from __future__ import annotations

from .connection import Connection, pcurv
from .errors import InsufficientPrecision, InternalInconsistency, NotAPthPower, VarMismatch
# re-exported: the invariants live in matrix, and every older import path stays
from .matrix import MAX_RANK, InvariantTuple, SeriesMatrix, char_invariants, poly_mul  # noqa: F401
from .series import TruncSeries, VAR_TWIST
from .spectral import SpectralRing, regular_rep


def companion_section(b: InvariantTuple) -> SeriesMatrix:
    """The companion matrix of det(t I - M), t's regular_rep; a section of char_invariants."""
    return regular_rep(SpectralRing(b).tautological())


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
    return descend_invariants(pcurv(conn).matrix.invariants)


def frobenius_base_pullback(b_twist: InvariantTuple) -> InvariantTuple:
    """Pull an invariant tuple back along the relative Frobenius: z' -> z^p."""
    if b_twist.var != VAR_TWIST:
        raise VarMismatch("pullback consumes a z'-side tuple")
    return InvariantTuple(tuple(e.expand_pth_power() for e in b_twist.entries))

