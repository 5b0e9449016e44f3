"""Chart-level Hitchin equations and the flat/Higgs correspondence.

A harmonic datum over an invariant base b' is an element theta of the
spectral ring R of the pulled-back base b = F*(b'), certified so that the
scalar-in-R connection d + theta has p-curvature equal to the
tautological class lambda (the class of t).  Pairing theta with a Higgs
field phi' realizing b' rebuilds a flat connection with p-Hitchin image
b' (cmap); twisting a flat connection by the inverse datum cancels its
p-curvature, and Cartier descent of the twisted frame recovers the Higgs
side (cinv).

Scope: rank 1 always; higher rank on the regular-semisimple split
stratum, where an eigen frame for the p-curvature exists.  The
non-semisimple strata have no effective construction here.

Two harmonic data over the same base differ by a dlog-unit of R; the
difference and, when the kernel search succeeds, the unit itself are
produced by torsor_difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cartier import OneForm, flat_sections, kernel_unit
from .connection import Connection, dlog, gauge, pcurv
from .errors import (
    BaseMismatch,
    CurvatureNonzero,
    CurvatureNotCancelled,
    DimensionMismatch,
    InsufficientPrecision,
    InternalInconsistency,
    NonSplitResidue,
    NonzeroPCurvature,
    RepeatedResidueRoot,
    VarMismatch,
    ZeroPrecision,
)
from .hitchin import (
    InvariantTuple,
    char_invariants,
    descend_certified,
    descend_invariants,
    frobenius_base_pullback,
    phitchin,
)
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_TWIST, dot
from .spectral import SpectralElement, SpectralRing, check_residue_split, hensel_eigen


# what a failed descent of a horizontal (Cartier-descended) matrix reports
_HORIZONTAL = "horizontal matrix failed to descend"


def pcurv_in_ring(theta: SpectralElement) -> SpectralElement:
    """p-curvature of the scalar connection d + theta inside its ring.

    Computed the same way as the matrix p-curvature: p-fold application
    of r -> dr + theta*r to 1, seeded one order above theta so the first
    step loses nothing.  Output precision: theta's minus p - 1.
    """
    ring = theta.ring
    p = ring.field.p
    seed_prec = min(theta.precision + 1, ring.precision)
    r = ring.one().truncate(seed_prec)
    for _ in range(p):
        r = r.derivative() + theta * r
    return r


@dataclass(frozen=True)
class HarmonicDatum:
    """A certified solution theta of the chart Hitchin equations.

    curvature_sign is +1 for a forward datum (p-curvature of d + theta is
    +lambda) and -1 for an inverse datum (-lambda).  Construction certifies
    that p-curvature; inverse carries the certificate over.
    """

    b_prime: InvariantTuple
    theta: SpectralElement
    frame: str
    curvature_sign: int = 1

    def __post_init__(self) -> None:
        if self.frame not in ("rank1", "eigen"):
            raise DimensionMismatch(f"unknown frame tag {self.frame!r}")
        if self.curvature_sign not in (1, -1):
            raise DimensionMismatch("curvature_sign must be +1 or -1")
        if self.b_prime.var != VAR_TWIST:
            raise VarMismatch("harmonic base must live in the twist coordinate")
        pulled = frobenius_base_pullback(self.b_prime)
        if self.theta.ring.rank != pulled.rank or not self.theta.ring.b.agrees_with(pulled):
            raise BaseMismatch("theta's spectral ring does not match the pulled-back base")
        try:
            pc = pcurv_in_ring(self.theta)
        except ZeroPrecision as exc:
            raise InsufficientPrecision(
                "theta precision too small to certify its p-curvature"
            ) from exc
        taut = self.theta.ring.tautological()
        expected = taut if self.curvature_sign == 1 else -taut
        if not pc.agrees_with(expected):
            raise CurvatureNonzero(
                "theta's p-curvature is not the signed tautological class"
            )

    @property
    def rank(self) -> int:
        return self.b_prime.rank

    @property
    def ring(self) -> SpectralRing:
        return self.theta.ring

    def endomorphism(self, psi: SeriesMatrix) -> SeriesMatrix:
        """regular_rep of theta along a concrete p-curvature matrix.

        Evaluating the cyclic representative at psi lands in the
        commutant of psi, which is frame-free: in an eigen frame it is
        g diag(theta(mu_i)) g^(-1).
        """
        return self.theta.eval_matrix(psi)


@dataclass(frozen=True)
class CorrespondencePackage:
    """One full instance of the correspondence, with linking gauge.

    gauge carries the input frame to the frame where the Higgs side
    lives: the eigen frame for solve_harmonic, the Cartier-descended flat
    frame for cinv.  flat_frame is the fundamental solution certifying
    that the theta-twisted connection is curvature-free.
    """

    harmonic: HarmonicDatum
    connection: Connection
    higgs: SeriesMatrix
    gauge: SeriesMatrix
    flat_frame: SeriesMatrix = dc_field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.higgs.var != VAR_TWIST:
            raise VarMismatch("the Higgs side lives in the twist coordinate")
        if not char_invariants(self.higgs).agrees_with(self.harmonic.b_prime):
            raise InternalInconsistency("Higgs invariants disagree with the harmonic base")

    @property
    def b_prime(self) -> InvariantTuple:
        return self.harmonic.b_prime


def _lagrange_element(
    ring: SpectralRing, mus: tuple[TruncSeries, ...], values: list[TruncSeries]
) -> SpectralElement:
    """The ring element taking value values[i] at eigenvalue mus[i]."""
    return dot([ring.from_series(v) for v in values], ring.lagrange_basis(mus))


def solve_harmonic(conn: Connection) -> CorrespondencePackage:
    """Solve the chart Hitchin equations for a flat connection.

    Rank 1: theta is the connection matrix itself.  Higher rank: pass to
    the eigen frame of the p-curvature, where the connection matrix is
    provably diagonal; theta is the Lagrange class of that diagonal, and
    the Higgs side is the descended eigenvalue diagonal.  Certificates
    checked before returning: theta's in-ring p-curvature is lambda, its
    endomorphism commutes with the p-curvature, and the theta-twisted
    connection admits a full flat frame.
    """
    p = conn.field.p
    n = conn.rank
    if conn.precision < 2 * p + 2:
        raise InsufficientPrecision(
            f"need precision >= 2p + 2 = {2 * p + 2}, have {conn.precision}"
        )
    psi = pcurv(conn)
    b = char_invariants(psi.matrix)
    b_prime = descend_invariants(b)
    ring = SpectralRing(b)

    if n == 1:
        theta = ring.from_series(conn.matrix.entry(0, 0))
        higgs = SeriesMatrix.diagonal([b_prime.entries[0]])
        link = SeriesMatrix.identity(conn.field, conn.matrix.var, 1, psi.matrix.precision)
        datum = HarmonicDatum(b_prime, theta, "rank1")
    else:
        eigen = hensel_eigen(psi, b)
        in_frame = gauge(eigen.gauge_inv, conn)
        a_eig = in_frame.matrix
        diag = []
        for i in range(n):
            for j in range(n):
                if i != j and not a_eig.entry(i, j).is_zero():
                    raise InternalInconsistency(
                        "connection matrix is not diagonal in the eigen frame",
                        row=i,
                        column=j,
                    )
            diag.append(a_eig.entry(i, i))
        theta = _lagrange_element(ring, eigen.mus, diag)
        higgs = descend_certified(SeriesMatrix.diagonal(eigen.mus), "matrix", _HORIZONTAL)
        link = eigen.gauge
        datum = HarmonicDatum(b_prime, theta, "eigen")

    endo = datum.endomorphism(psi.matrix)
    if not ((psi.matrix @ endo) - (endo @ psi.matrix)).is_zero():
        raise InternalInconsistency("theta's endomorphism does not commute with psi")
    twisted = Connection(conn.matrix - endo)
    try:
        flat_frame = flat_sections(twisted)
    except NonzeroPCurvature as exc:
        raise InternalInconsistency(
            "theta-twisted connection is not curvature-free",
            order=exc.details.get("order"),
        ) from exc
    return CorrespondencePackage(datum, conn, higgs, link, flat_frame)


def cmap(harmonic: HarmonicDatum, higgs: SeriesMatrix) -> Connection:
    """Rebuild the flat connection from a harmonic datum and a Higgs field.

    The connection is the canonical (trivial) connection on the Frobenius
    pullback plus the endomorphism of theta evaluated at the pulled-back
    Higgs matrix.  Postcondition, verified: its p-Hitchin image is the
    common base b'.
    """
    if harmonic.curvature_sign != 1:
        raise BaseMismatch("cmap consumes a forward harmonic datum, not an inverse one")
    if higgs.var != VAR_TWIST:
        raise VarMismatch("the Higgs side lives in the twist coordinate")
    n = higgs.rank
    if n != harmonic.rank:
        raise DimensionMismatch("Higgs rank does not match the harmonic base")
    if not char_invariants(higgs).agrees_with(harmonic.b_prime):
        raise BaseMismatch("Higgs invariants differ from the harmonic base")
    if n > 1:
        check_residue_split(higgs.field, harmonic.ring.residue_char(), n)
    pulled = higgs.expand_pth_power()
    conn = Connection(harmonic.endomorphism(pulled))
    if not phitchin(conn).agrees_with(harmonic.b_prime):
        raise InternalInconsistency("rebuilt connection has the wrong p-Hitchin image")
    return conn


def cinv(conn: Connection, inverse_harmonic: HarmonicDatum) -> CorrespondencePackage:
    """Recover the Higgs side of a flat connection via an inverse datum.

    Twisting by the inverse endomorphism cancels the p-curvature exactly;
    the fundamental flat frame of the twist realizes Cartier descent, and
    the p-curvature transported to that frame is constant in z, hence
    descends to the Higgs matrix over the twist coordinate.
    """
    if inverse_harmonic.curvature_sign != -1:
        raise BaseMismatch("cinv consumes an inverse harmonic datum (p-curvature -lambda)")
    if conn.rank != inverse_harmonic.rank:
        raise DimensionMismatch("connection rank does not match the harmonic base")
    psi = pcurv(conn)
    b = char_invariants(psi.matrix)
    if not descend_invariants(b).agrees_with(inverse_harmonic.b_prime):
        raise BaseMismatch("connection's p-Hitchin image differs from the datum base")
    twisted = Connection(conn.matrix + inverse_harmonic.endomorphism(psi.matrix))
    try:
        flat_frame = flat_sections(twisted)
    except NonzeroPCurvature as exc:
        raise CurvatureNotCancelled(
            "twisted connection still obstructed",
            order=exc.details.get("order"),
            residual=exc.details.get("residual"),
        ) from exc
    psi_flat = psi.matrix.conjugate_by(flat_frame)
    higgs = descend_certified(psi_flat, "matrix", _HORIZONTAL)
    return CorrespondencePackage(inverse_harmonic, conn, higgs, flat_frame, flat_frame)


def inverse(h: HarmonicDatum) -> HarmonicDatum:
    """The sign-flipped datum: element -theta, opposite curvature sign.

    h's certificate carries over without recomputing: psi(d - theta) =
    -psi(d + theta) in a commutative ring of characteristic p, by Jacobson's
    formula psi(d + theta) = theta^p + d^(p-1) theta (N. Katz, Publ. IHES
    39, 1970), at the same precision.  tests/test_harmonic.py checks the
    identity (test_pcurv_sign_identity).
    """
    # built without __init__, so __post_init__ does not certify again
    flipped = object.__new__(HarmonicDatum)
    flipped.__dict__.update(h.__dict__, theta=-h.theta, curvature_sign=-h.curvature_sign)
    return flipped


def torsor_difference(
    h1: HarmonicDatum, h2: HarmonicDatum
) -> tuple[SpectralElement, SpectralElement | None]:
    """delta = theta_1 - theta_2, plus a unit u with dlog u = delta.

    Two data over the same base have curvature-free difference; this is
    certified, and CurvatureNonzero reports a caller error (mismatched
    construction) when it fails.  The unit is found by the scalar kernel
    construction at each eigenvalue of the ring (SpectralRing.eigenvalues)
    and reassembled in the ring's Lagrange basis; None when the ring is
    not split (never on the strata the solver accepts).
    """
    if h1.rank != h2.rank or not h1.b_prime.agrees_with(h2.b_prime):
        raise BaseMismatch("harmonic data live over different bases")
    if h1.curvature_sign != h2.curvature_sign:
        raise BaseMismatch("harmonic data have opposite curvature signs")
    delta = h1.theta - h2.theta
    pc = pcurv_in_ring(delta)
    if not pc.is_zero():
        raise CurvatureNonzero("difference of harmonic data has nonzero p-curvature")

    ring = delta.ring
    n = ring.rank
    if n == 1:
        u = ring.from_series(kernel_unit(OneForm(delta.coeffs[0])))
    else:
        try:
            mus = ring.eigenvalues()
        except (NonSplitResidue, RepeatedResidueRoot):
            return delta, None
        units = [kernel_unit(OneForm(delta.eval_series(mu))) for mu in mus]
        u = _lagrange_element(ring, mus, units)
    if not dlog(u).agrees_with(delta):
        raise InternalInconsistency("kernel unit does not reproduce the difference")
    return delta, u
