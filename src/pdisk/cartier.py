"""The Cartier operator, the additive curvature map, and flat sections.

Chart rules on the disk, under the package's coordinate conventions
(relative Frobenius fixes coefficients, the twist projection raises them
to the p-th power):

    cartier_op:  sum c_m z^m dz  ->  sum over m = jp+p-1 of c_m z'^j dz'
    hp_map(zeta, w) = zeta^[p] (x) pi_star(w)  -  zeta (x) cartier_op(w)

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

from dataclasses import dataclass
from typing import ClassVar

from .backend import impl
from .connection import Connection
from .errors import NonzeroPCurvature, VarMismatch, ZeroPrecision
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_DISK, VAR_TWIST


@dataclass(frozen=True)
class _CoefficientForm:
    """c dx with c a series in the coordinate x; precision is that of c.

    Subclasses name the coordinate and the message for a mismatch.
    """

    var: ClassVar[str]
    var_mismatch: ClassVar[str]
    coefficient: TruncSeries

    def __post_init__(self) -> None:
        if self.coefficient.var != self.var:
            raise VarMismatch(self.var_mismatch)

    @property
    def precision(self) -> int:
        return self.coefficient.precision

    @property
    def field(self):
        return self.coefficient.field

    def __add__(self, other: "_CoefficientForm") -> "_CoefficientForm":
        return type(self)(self.coefficient + other.coefficient)

    def __sub__(self, other: "_CoefficientForm") -> "_CoefficientForm":
        return type(self)(self.coefficient - other.coefficient)

    def __neg__(self) -> "_CoefficientForm":
        return type(self)(-self.coefficient)

    def is_zero(self) -> bool:
        return self.coefficient.is_zero()

    def agrees_with(self, other: "_CoefficientForm") -> bool:
        return self.coefficient.agrees_with(other.coefficient)


class OneForm(_CoefficientForm):
    """f dz with f a z-series; precision is that of f."""

    var = VAR_DISK
    var_mismatch = "a one-form on the disk needs a z-series coefficient"


class TwistOneForm(_CoefficientForm):
    """g dz' with g a z'-series."""

    var = VAR_TWIST
    var_mismatch = "a one-form on the twist needs a z'-series coefficient"


def cartier_op(w: OneForm) -> TwistOneForm:
    """The Cartier operator in the chart.

    Keeps the coefficients c_m with m = p-1 mod p, relabelled to exponent
    (m-p+1)/p on the twist.  Input precision N determines which of those
    are known: the output precision is ceil((N-p+1)/p), floored at 0.
    """
    s = w.coefficient
    p = s.field.p
    n = s.precision
    nout = max(0, -(-(n - p + 1) // p))
    out = []
    for j in range(nout):
        out.append(s.coeffs[j * p + p - 1])
    return TwistOneForm(TruncSeries(s.field, VAR_TWIST, tuple(out)))


def pi_star_form(w: OneForm) -> TwistOneForm:
    """Coefficientwise twist projection of a one-form; precision preserved."""
    return TwistOneForm(w.coefficient.pi_star())


def hp_map(zeta: int, w: OneForm) -> TwistOneForm:
    """The additive curvature map with a scalar Lie coefficient.

    zeta^[p] is the field p-th power.  Spectral-ring Lie coefficients are
    handled componentwise by the harmonic module, which reduces them to
    this scalar case in an eigen frame.
    """
    field = w.field
    zeta = field.validate(zeta)
    zp = field.frobenius(zeta)
    left = pi_star_form(w).coefficient.scale(zp)
    right = cartier_op(w).coefficient.scale(zeta)
    return TwistOneForm(left - right)


def solve_hp(target: TwistOneForm) -> OneForm:
    """A preimage of the target under hp_map(1, .), built triangularly.

    Writing the unknown as sum u_m z^m dz, the equation at z'^j reads
    u_j^p - u_{jp+p-1} = eta_j, which determines the coefficients at
    exponents p-1 mod p from earlier ones; all unconstrained coefficients
    are set to zero, so the output is deterministic.  The result carries
    precision p * N' and maps back onto the target exactly.
    """
    eta = target.coefficient
    field = eta.field
    p = field.p
    nprime = eta.precision
    if nprime == 0:
        raise ZeroPrecision("cannot solve against a precision-0 target")
    nout = p * nprime
    u = [0] * nout
    for j in range(nprime):
        m = j * p + p - 1
        u[m] = field.sub(field.frobenius(u[j]), eta.coeffs[j])
    return OneForm(TruncSeries(field, VAR_DISK, tuple(u)))


def kernel_unit(w: OneForm) -> TruncSeries:
    """A unit g with dlog g = w, for w in the kernel of hp_map(1, .).

    g is the flat section with g(0) = 1 of the rank-1 connection d/dz - w,
    the flat frame flat_matrix_section builds; its recursion is obstructed
    at the p-th steps exactly by the p-curvature of d/dz - w, which
    vanishes when hp_map(1, w) = 0.  Raises NonzeroPCurvature otherwise,
    whose residual is the coefficient of w g at the obstructed order.
    """
    s = w.coefficient
    try:
        h = flat_matrix_section(Connection(SeriesMatrix.diagonal([-s])))
    except NonzeroPCurvature as exc:
        # the recursion's residual is the coefficient of -w g
        raise NonzeroPCurvature(exc.order, s.field.neg(exc.residual)) from None
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
            inv = f.scalar(pow(m + 1, p - 2, p))
            for i in range(n):
                for j in range(n):
                    h[i][j].append(f.mul(inv, f.neg(resid[i][j])))
    return SeriesMatrix(
        tuple(tuple(TruncSeries(f, VAR_DISK, tuple(entry)) for entry in row) for row in h)
    )
