"""The Cartier operator, the additive curvature map, and flat sections.

Chart rules on the disk, under the package's coordinate conventions
(relative Frobenius fixes coefficients, the twist projection raises them
to the p-th power):

    cartier_op:  sum c_m z^m dz  ->  sum over m = jp+p-1 of c_m z'^j dz'
    hp_map(zeta, w) = zeta^[p] (x) pi_star(w)  -  zeta (x) cartier_op(w)

A one-form c dz (or c dz') is passed as its coefficient series c, whose
var names the chart.  Each map checks the chart of the form it consumes
when called and raises VarMismatch for the other one: cartier_op, hp_map
and kernel_unit consume z-series, solve_hp a z'-series.

For a scalar Lie coefficient zeta = 1 the map computes exactly the
descended p-curvature of d/dz + f, which the test suite checks against
the independent closed form f^p + (d/dz)^(p-1) f.

flat_matrix_section solves (d/dz + A) h = 0 from h(0) = I order by
order, the fundamental flat frame of d/dz + A; it is the one such
recursion here, and kernel_unit (the rank-1 flat section of d/dz - w) runs
through it.  The coefficient recursion multiplies by m+1, which vanishes
in characteristic p at every p-th step; those steps are obstructed exactly
by the p-curvature, and the first nonvanishing residual is reported as a
certificate.
"""

from __future__ import annotations

from .backend import impl
from .connection import Connection
from .errors import NonzeroPCurvature, VarMismatch, ZeroPrecision
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_DISK, VAR_TWIST


def cartier_op(w: TruncSeries) -> TruncSeries:
    """The Cartier operator in the chart.

    Keeps the coefficients c_m with m = p-1 mod p, relabelled to exponent
    (m-p+1)/p on the twist.  Input precision N determines which of those
    are known: the output precision is ceil((N-p+1)/p), floored at 0.
    """
    if w.var != VAR_DISK:
        raise VarMismatch("cartier_op consumes a z-series")
    p = w.field.p
    return TruncSeries._computed(w.field, VAR_TWIST, w.coeffs[p - 1 :: p])


def hp_map(zeta: int, w: TruncSeries) -> TruncSeries:
    """The additive curvature map with a scalar Lie coefficient.

    zeta^[p] is the field p-th power.  Spectral-ring Lie coefficients are
    handled componentwise by the harmonic module, which reduces them to
    this scalar case in an eigen frame.
    """
    if w.var != VAR_DISK:
        raise VarMismatch("hp_map consumes a z-series")
    field = w.field
    zeta = field.validate(zeta)
    return w.pi_star().scale(field.frobenius(zeta)) - cartier_op(w).scale(zeta)


def solve_hp(target: TruncSeries) -> TruncSeries:
    """A preimage of the target under hp_map(1, .), built triangularly.

    Writing the unknown as sum u_m z^m dz, the equation at z'^j reads
    u_j^p - u_{jp+p-1} = eta_j, which determines the coefficients at
    exponents p-1 mod p from earlier ones; all unconstrained coefficients
    are set to zero, so the output is deterministic.  The result carries
    precision p * N' and maps back onto the target exactly.
    """
    if target.var != VAR_TWIST:
        raise VarMismatch("solve_hp consumes a z'-series")
    field = target.field
    p = field.p
    nprime = target.precision
    if nprime == 0:
        raise ZeroPrecision("cannot solve against a precision-0 target")
    u = [0] * (p * nprime)
    for j in range(nprime):
        u[j * p + p - 1] = field.sub(field.frobenius(u[j]), target.coeffs[j])
    return TruncSeries(field, VAR_DISK, tuple(u))


def kernel_unit(w: TruncSeries) -> TruncSeries:
    """A unit g with dlog g = w, for w in the kernel of hp_map(1, .).

    g is the flat section with g(0) = 1 of the rank-1 connection d/dz - w,
    the flat frame flat_matrix_section builds; its recursion is obstructed
    at the p-th steps exactly by the p-curvature of d/dz - w, which
    vanishes when hp_map(1, w) = 0.  Raises NonzeroPCurvature otherwise,
    whose residual is the coefficient of w g at the obstructed order.
    """
    if w.var != VAR_DISK:
        raise VarMismatch("kernel_unit consumes a z-series")
    try:
        h = flat_matrix_section(Connection(SeriesMatrix.diagonal([-w])))
    except NonzeroPCurvature as exc:
        # the recursion's residual is the coefficient of -w g
        raise NonzeroPCurvature(exc.order, w.field.neg(exc.residual)) from None
    return h.entry(0, 0)


def flat_matrix_section(conn: Connection) -> SeriesMatrix:
    """The fundamental flat frame of a connection with zero p-curvature.

    Solves (d/dz + A) h = 0 with h(0) = I.  At order m+1 the recursion
    reads (m+1) h_{m+1} = -(A h)_m; whenever p divides m+1 the left side
    dies and the right side must vanish, which happens for every column
    exactly when the p-curvature is zero within precision.  The first
    offending order and its residual are reported; free coefficients at
    the obstructed orders are set to zero.

    On success the returned matrix h satisfies gauge(h^(-1), conn) =
    trivial connection.
    """
    f = conn.field
    p = f.p
    n = conn.rank
    a = [[conn.matrix.entry(i, j).coeffs for j in range(n)] for i in range(n)]
    # h[i][j]: the coefficients of solution entry (i, j) found so far
    h = [[[1 if i == j else 0] for j in range(n)] for i in range(n)]
    for m in range(conn.precision):
        # resid[i][j]: the coefficient of z^m in (A h)[i][j], one dot product
        # of entries of A with entries of h reversed
        resid = [
            [
                impl.series_dot(
                    [(a[i][t], reversed(h[t][j])) for t in range(n)], p, f.k, f.modulus
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        if (m + 1) % p == 0:
            bad = [c for row in resid for c in row if c != 0]
            if bad:
                raise NonzeroPCurvature(m, resid[0][0] if n == 1 else resid)
            for row in h:
                for entry in row:
                    entry.append(0)
        else:
            inv = pow(m + 1, p - 2, p)
            for i in range(n):
                for j in range(n):
                    h[i][j].append(f.mul(inv, f.neg(resid[i][j])))
    return SeriesMatrix._computed(
        tuple(tuple(TruncSeries._computed(f, VAR_DISK, tuple(entry)) for entry in row) for row in h)
    )
