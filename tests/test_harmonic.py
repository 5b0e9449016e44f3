"""The flat-connection / Higgs-field correspondence and its torsor structure."""

from __future__ import annotations

import pickle

import pytest

from pdisk import matrix
from pdisk.connection import Connection, dlog, gauge, pcurv
from pdisk.errors import (
    BaseMismatch,
    CurvatureNonzero,
    CurvatureNotCancelled,
    DerivationUnavailable,
    DimensionMismatch,
    InsufficientPrecision,
    NonSplitResidue,
    PdiskError,
    RepeatedResidueRoot,
    VarMismatch,
    ZeroPrecision,
)
from pdisk.field import FieldSpec
from pdisk.harmonic import (
    CorrespondencePackage,
    HarmonicDatum,
    cinv,
    cmap,
    inverse,
    pcurv_in_ring,
    solve_harmonic,
    torsor_difference,
)
from pdisk.hitchin import (
    InvariantTuple,
    char_invariants,
    descend_invariants,
    frobenius_base_pullback,
    phitchin,
)
from pdisk.jsonio import harmonic_from_json, harmonic_to_json
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST
from pdisk.spectral import SpectralRing, hensel_eigen

from conftest import M, S, ring_one

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2, (1, 0, 1))


def rank1_datum(field: FieldSpec, a_text: str, precision: int) -> HarmonicDatum:
    """Forward datum of the scalar connection d/dz + a."""
    conn = Connection(M(field, [[a_text]], precision))
    return solve_harmonic(conn).harmonic


def accepted(rng: SplitMix64, field: FieldSpec, n: int, precision: int):
    """A random connection that the solver accepts, by rejection."""
    for _ in range(400):
        conn = Connection(rng.matrix(field, VAR_DISK, n, precision))
        try:
            return conn, solve_harmonic(conn)
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
    raise AssertionError("no accepted instance found")


# ==========================================================================
# solve_harmonic
# ==========================================================================


class TestSolveHarmonic:
    def test_trivial_rank_one(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["0"]], 8)))
        assert pkg.harmonic.frame == "rank1"
        assert pkg.harmonic.theta.is_zero()
        assert pkg.higgs.is_zero()
        assert str(pkg.harmonic.b_prime.entries[0]) == "0"

    def test_constant_rank_one(self) -> None:
        # psi(d + 1) = 1 at p = 2, descending to the unit Higgs field
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        assert [str(c) for c in pkg.harmonic.theta.coeffs] == ["1"]
        assert str(pkg.higgs.entry(0, 0)) == "1"
        assert str(pkg.harmonic.b_prime.entries[0]) == "1"
        assert pkg.flat_frame.rank == 1

    def test_diagonal_rank_two(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["0", "0"], ["0", "1"]], 8)))
        assert pkg.harmonic.frame == "eigen"
        assert [str(b) for b in pkg.harmonic.b_prime.entries] == ["1", "0"]
        assert [str(c) for c in pkg.harmonic.theta.coeffs] == ["0", "1"]
        assert [str(pkg.higgs.entry(i, i)) for i in range(2)] == ["0", "1"]
        assert pkg.higgs.entry(0, 1).is_zero() and pkg.higgs.entry(1, 0).is_zero()

    def test_rank_two_runs_one_elimination(self, monkeypatch) -> None:
        # the eigen gauge is inverted once; gauge reads the inverse's own inverse back
        for field in (F3, F5, F9):
            conn, _ = accepted(SplitMix64(field.q + 30), field, 2, 2 * field.p + 3)
            runs = []
            eliminate = SeriesMatrix._eliminate
            monkeypatch.setattr(SeriesMatrix, "_eliminate", lambda m: runs.append(m) or eliminate(m))
            pkg = solve_harmonic(Connection(SeriesMatrix(conn.matrix.entries)))
            monkeypatch.undo()
            assert len(runs) == 1 and runs[0] is pkg.gauge

    def test_package_pickles(self) -> None:
        # == leaves flat_frame out (compare=False); tests/test_values.py checks the rest
        for field, n, precision in ((F5, 2, 16), (F3, 1, 10), (F9, 2, 9)):
            _, pkg = accepted(SplitMix64(field.q + 40), field, n, precision)
            back = pickle.loads(pickle.dumps(pkg))
            assert back.flat_frame == pkg.flat_frame

    def test_insufficient_precision(self) -> None:
        with pytest.raises(InsufficientPrecision):
            solve_harmonic(Connection(M(F2, [["1"]], 5)))
        with pytest.raises(InsufficientPrecision):
            solve_harmonic(Connection(M(F3, [["1"]], 7)))

    def test_split_requirement_surfaces(self) -> None:
        # companion of t^2 + 1 over F_3 has irreducible residue spectrum
        conn = Connection(M(F3, [["0", "2"], ["1", "0"]], 10))
        with pytest.raises(NonSplitResidue):
            solve_harmonic(conn)

    def test_equations_hold_on_random_instances(self) -> None:
        rng = SplitMix64(60)
        for field, n in ((F2, 1), (F3, 1), (F2, 2), (F3, 2)):
            prec = 3 * field.p + 4
            for _ in range(6):
                conn, pkg = accepted(rng.split(), field, n, prec)
                psi = pcurv(conn)
                a_theta = pkg.harmonic.endomorphism(psi.matrix)
                m = psi.matrix.truncate(a_theta.precision)
                # commutation
                assert ((m @ a_theta) - (a_theta @ m)).is_zero()
                # the twist is curvature-free, witnessed by its flat frame
                twisted = Connection(
                    conn.matrix.truncate(a_theta.precision) - a_theta
                )
                h = pkg.flat_frame
                back = gauge(h.inverse().truncate(twisted.precision), twisted)
                assert back.matrix.is_zero()
                # psi transported to the flat frame is constant in z
                common = min(psi.matrix.precision, h.precision)
                moved = psi.matrix.truncate(common).conjugate_by(h.truncate(common))
                assert moved.derivative().is_zero()

    def test_package_higgs_must_be_twisted(self) -> None:
        pkg = solve_harmonic(Connection(M(F3, [["1 + z"]], 10)))
        higgs_z = pkg.higgs.expand_pth_power()
        with pytest.raises(VarMismatch) as exc:
            CorrespondencePackage(pkg.harmonic, pkg.connection, higgs_z, pkg.gauge, pkg.flat_frame)
        assert str(exc.value) == "the Higgs side lives in the twist coordinate"

    def test_package_invariants(self) -> None:
        rng = SplitMix64(61)
        conn, pkg = accepted(rng, F3, 2, 13)
        assert char_invariants(pkg.higgs).agrees_with(pkg.harmonic.b_prime)
        assert phitchin(conn).agrees_with(pkg.harmonic.b_prime)


# ==========================================================================
# datum construction guards
# ==========================================================================


class TestDatumValidation:
    def test_sign_checked(self) -> None:
        h = rank1_datum(F2, "1", 8)
        with pytest.raises(DimensionMismatch):
            HarmonicDatum(h.b_prime, h.theta, curvature_sign=2)

    @pytest.mark.parametrize("sign", [-1.0, 1.0, True], ids=["minus-1.0", "1.0", "true"])
    def test_non_integer_sign_refused(self, sign) -> None:
        # each compares equal to 1 or -1, but none is the integer
        h = rank1_datum(F2, "1", 8)
        with pytest.raises(DimensionMismatch) as exc:
            HarmonicDatum(h.b_prime, h.theta, curvature_sign=sign)
        assert str(exc.value) == "curvature_sign must be +1 or -1"

    def test_base_must_be_twisted(self) -> None:
        h = rank1_datum(F2, "1", 8)
        base_z = frobenius_base_pullback(h.b_prime)
        with pytest.raises(VarMismatch):
            HarmonicDatum(base_z, h.theta)

    def test_ring_must_match_pulled_base(self) -> None:
        h = rank1_datum(F2, "1", 8)
        other = InvariantTuple((S(F2, "z", h.b_prime.precision, var="z'"),))
        with pytest.raises(BaseMismatch):
            HarmonicDatum(other, h.theta)

    def test_curvature_certificate_enforced(self) -> None:
        # theta = 1 over the zero base has p-curvature 1, not 0
        zero_b = InvariantTuple((S(F2, "0", 4, var="z'"),))
        ring = SpectralRing(frobenius_base_pullback(zero_b))
        theta = ring.element([S(F2, "1", 8)])
        with pytest.raises(CurvatureNonzero):
            HarmonicDatum(zero_b, theta)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_precision_too_small_to_certify(self, p: int) -> None:
        # the zero datum over the zero base: the p - 1 derivatives after the
        # first step need min(theta's precision, the ring's - 1) >= p - 1
        f = FieldSpec(p)
        for k in range(4):
            b_prime = InvariantTuple((TruncSeries.zero(f, VAR_TWIST, k),))
            ring = SpectralRing(frobenius_base_pullback(b_prime))
            for tp in range(ring.precision + 1):
                theta = ring.element([TruncSeries.zero(f, VAR_DISK, tp)])
                if min(tp, ring.precision - 1) >= p - 1:
                    assert HarmonicDatum(b_prime, theta).theta == theta
                else:
                    with pytest.raises(InsufficientPrecision):
                        HarmonicDatum(b_prime, theta)

    def test_ring_of_precision_zero_refuses_to_differentiate(self) -> None:
        # the seed's cut stays at 0, so the first derivative refuses, not the cut
        for n in (1, 2):
            ring = SpectralRing(InvariantTuple((TruncSeries.zero(F3, VAR_DISK, 0),) * n))
            theta = ring.element([TruncSeries.zero(F3, VAR_DISK, 0)] * n)
            with pytest.raises(ZeroPrecision, match="cannot differentiate a precision-0 series"):
                pcurv_in_ring(theta)

    def test_ring_without_derivation_refuses_first(self) -> None:
        # rank 2 over the zero base: char = t^2, whose t-derivative is no unit;
        # only a ring of precision 0 fails on precision instead
        for k in range(3):
            b_prime = InvariantTuple((TruncSeries.zero(F3, VAR_TWIST, k),) * 2)
            ring = SpectralRing(frobenius_base_pullback(b_prime))
            for tp in range(ring.precision + 1):
                theta = ring.element([TruncSeries.zero(F3, VAR_DISK, tp)] * 2)
                error = DerivationUnavailable if ring.precision else InsufficientPrecision
                with pytest.raises(error):
                    HarmonicDatum(b_prime, theta)

    def test_in_ring_curvature_matches_scalar(self) -> None:
        # rank 1: the in-ring computation is the scalar closed form
        f = S(F3, "1 + z + 2*z^2", 12)
        ring = SpectralRing(InvariantTuple((S(F3, "0", 12),)))
        theta = ring.element([f])
        got = pcurv_in_ring(theta).coeffs[0]
        conn = Connection(SeriesMatrix.from_rows([[f]]))
        assert got.agrees_with(pcurv(conn).matrix.entry(0, 0))


# ==========================================================================
# cmap
# ==========================================================================


class TestCmap:
    def test_zero_datum_rebuilds_bare_derivative(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["0"]], 8)))
        conn = cmap(pkg.harmonic, pkg.higgs)
        assert conn.matrix.is_zero()

    def test_rank_one_pinned(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        conn = cmap(pkg.harmonic, pkg.higgs)
        assert str(conn.matrix.entry(0, 0)) == "1"
        assert phitchin(conn).agrees_with(pkg.harmonic.b_prime)

    def test_diagonal_pinned(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["0", "0"], ["0", "1"]], 8)))
        conn = cmap(pkg.harmonic, pkg.higgs)
        assert [str(conn.matrix.entry(i, i)) for i in range(2)] == ["0", "1"]
        assert conn.matrix.entry(0, 1).is_zero()
        assert pcurv(conn).matrix.agrees_with(
            SeriesMatrix.diagonal([S(F2, "0", 5), S(F2, "1", 5)])
        )

    def test_hitchin_image_postcondition(self) -> None:
        rng = SplitMix64(62)
        for field, n in ((F2, 2), (F3, 2), (F5, 1)):
            conn, pkg = accepted(rng.split(), field, n, 3 * field.p + 4)
            rebuilt = cmap(pkg.harmonic, pkg.higgs)
            assert phitchin(rebuilt).agrees_with(pkg.harmonic.b_prime)

    def test_package_higgs_invariants_not_recomputed(self, monkeypatch) -> None:
        # the package computed the Higgs invariants; cmap reads them and computes
        # only those of its rebuilt connection's p-curvature, for the postcondition
        for n in (1, 2):
            _, pkg = accepted(SplitMix64(40 + n), F5, n, 19)
            calls = []
            original = matrix.char_invariants
            monkeypatch.setattr(matrix, "char_invariants", lambda m: calls.append(m) or original(m))
            conn = cmap(pkg.harmonic, pkg.higgs)
            monkeypatch.undo()
            assert len(calls) == 1 and calls[0] is pcurv(conn).matrix

    def test_inverse_datum_refused(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        with pytest.raises(BaseMismatch):
            cmap(inverse(pkg.harmonic), pkg.higgs)

    def test_untwisted_higgs_refused(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        with pytest.raises(VarMismatch):
            cmap(pkg.harmonic, M(F2, [["1"]], 4))

    def test_rank_mismatch_refused(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        bad = SeriesMatrix.identity(F2, VAR_TWIST, 2, 4)
        with pytest.raises(DimensionMismatch):
            cmap(pkg.harmonic, bad)

    def test_wrong_invariants_refused(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        wrong = M(F2, [["z"]], 4, var="z'")
        with pytest.raises(BaseMismatch):
            cmap(pkg.harmonic, wrong)


# ==========================================================================
# cinv
# ==========================================================================


class TestCinv:
    def test_bare_derivative(self) -> None:
        conn = Connection(M(F2, [["0"]], 8))
        pkg = solve_harmonic(conn)
        out = cinv(conn, inverse(pkg.harmonic))
        assert out.higgs.is_zero()
        assert out.flat_frame == SeriesMatrix.identity(
            F2, VAR_DISK, 1, out.flat_frame.precision
        )

    def test_rank_one_pinned(self) -> None:
        # twisting d + 1 by -theta = +1 in F_2 gives the bare derivative
        conn = Connection(M(F2, [["1"]], 8))
        pkg = solve_harmonic(conn)
        out = cinv(conn, inverse(pkg.harmonic))
        assert str(out.higgs.entry(0, 0)) == "1"
        assert out.flat_frame == SeriesMatrix.identity(
            F2, VAR_DISK, 1, out.flat_frame.precision
        )

    def test_diagonal_pinned(self) -> None:
        conn = Connection(M(F2, [["0", "0"], ["0", "1"]], 8))
        pkg = solve_harmonic(conn)
        out = cinv(conn, inverse(pkg.harmonic))
        assert [str(out.higgs.entry(i, i)) for i in range(2)] == ["0", "1"]
        assert out.higgs.entry(1, 0).is_zero()

    def test_forward_datum_refused(self) -> None:
        conn = Connection(M(F2, [["1"]], 8))
        pkg = solve_harmonic(conn)
        with pytest.raises(BaseMismatch):
            cinv(conn, pkg.harmonic)

    def test_base_mismatch_refused(self) -> None:
        conn = Connection(M(F2, [["1"]], 8))
        other = solve_harmonic(Connection(M(F2, [["0"]], 8)))
        with pytest.raises(BaseMismatch):
            cinv(conn, inverse(other.harmonic))

    def test_rank_mismatch_refused(self) -> None:
        conn = Connection(M(F2, [["0", "0"], ["0", "1"]], 8))
        scalar = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        with pytest.raises(DimensionMismatch):
            cinv(conn, inverse(scalar.harmonic))

    def test_error_certificate_type_exists(self) -> None:
        # cancellation is theorem-backed on accepted inputs; the failure
        # class stays available as a defensive certificate
        assert issubclass(CurvatureNotCancelled, PdiskError)

    def test_higgs_invariants_match(self) -> None:
        rng = SplitMix64(63)
        for field, n in ((F2, 2), (F3, 2)):
            conn, pkg = accepted(rng.split(), field, n, 3 * field.p + 4)
            out = cinv(conn, inverse(pkg.harmonic))
            assert char_invariants(out.higgs).agrees_with(pkg.harmonic.b_prime)


# ==========================================================================
# inverse and the torsor structure
# ==========================================================================


class TestInverseAndTorsor:
    def test_inverse_flips_sign_and_element(self) -> None:
        h = rank1_datum(F3, "1 + z", 10)
        hi = inverse(h)
        assert hi.curvature_sign == -1
        assert (h.theta + hi.theta).is_zero()
        assert inverse(hi) == h

    def test_inverse_carries_fields_only(self) -> None:
        # anything kept on h beside its fields stays behind
        h = rank1_datum(F3, "1 + z", 10)
        h.__dict__["planted"] = 1
        hi = inverse(h)
        assert "planted" not in vars(hi)
        assert inverse(hi) == h and "planted" not in vars(inverse(hi))

    def test_inverse_nontrivial_at_odd_p(self) -> None:
        h = rank1_datum(F3, "1", 10)
        assert [str(c) for c in inverse(h).theta.coeffs] == ["2"]

    @pytest.mark.parametrize(
        "field, n",
        [(F2, 1), (F2, 2), (F3, 1), (F3, 2), (F3, 3), (F5, 1), (F5, 2), (F5, 3), (F9, 1), (F9, 2), (F9, 3)],
        ids=lambda v: f"q{v.q}" if isinstance(v, FieldSpec) else f"rank{v}",
    )
    def test_inverse_keeps_its_certificate(self, field: FieldSpec, n: int) -> None:
        # inverse does not recompute the p-curvature; check that what it
        # carries over holds, and that a document of it certifies again
        rng = SplitMix64(1000 * field.q + n)
        for _ in range(2):
            _, pkg = accepted(rng, field, n, 2 * field.p + 3)
            h = pkg.harmonic
            hi = inverse(h)
            assert hi.curvature_sign == -1
            assert pcurv_in_ring(hi.theta).agrees_with(-h.ring.tautological())
            assert inverse(hi) == h
            doc = harmonic_to_json(hi)
            back = harmonic_from_json(doc)
            # the document cuts the ring's base to theta's precision, which
            # is one below it in the eigen frame; at rank 1 nothing is cut
            if n == 1:
                assert back == hi
            assert (back.b_prime, back.theta.coeffs) == (hi.b_prime, hi.theta.coeffs)
            assert (back.frame, back.curvature_sign) == (hi.frame, -1)
            assert harmonic_to_json(back) == doc

    def test_document_with_unflipped_theta_refused(self) -> None:
        h = rank1_datum(F3, "1 + z", 10)
        assert not h.ring.tautological().is_zero()
        doc = harmonic_to_json(h)
        doc["curvature_sign"] = -1
        with pytest.raises(CurvatureNonzero):
            harmonic_from_json(doc)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("field", [F2, F3, F5, F9], ids=["F2", "F3", "F5", "F9"])
    def test_pcurv_sign_identity(self, field: FieldSpec, n: int) -> None:
        # psi(d - theta) = -psi(d + theta) in a commutative ring of
        # characteristic p, by Jacobson's formula psi(d + theta) =
        # theta^p + d^(p-1) theta (N. Katz, Publ. IHES 39, 1970)
        rng = SplitMix64(100 * field.q + n)
        precision = 3 * field.p + 4
        checked = 0
        while checked < 6:
            ring = SpectralRing(
                InvariantTuple(tuple(rng.series(field, VAR_DISK, precision) for _ in range(n)))
            )
            try:
                ring.derivation()
            except DerivationUnavailable:
                continue
            theta = ring.element([rng.series(field, VAR_DISK, precision) for _ in range(n)])
            forward, backward = pcurv_in_ring(theta), pcurv_in_ring(-theta)
            assert backward.precision == forward.precision
            assert backward.agrees_with(-forward)
            checked += 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("field", [F2, F3, F5, F9], ids=["F2", "F3", "F5", "F9"])
    def test_seeded_pcurv_in_ring_matches_loop_from_one(self, field: FieldSpec, n: int) -> None:
        # pcurv_in_ring starts at theta, the first step from 1; the loop from
        # 1, taken one order above theta, is the definition
        def from_one(theta):
            ring = theta.ring
            r = ring_one(ring).truncate(min(theta.precision + 1, ring.precision))
            for _ in range(field.p):
                r = r.derivative() + theta * r
            return r

        def outcome(compute, theta):
            try:
                return compute(theta)
            except PdiskError as exc:
                return type(exc)

        rng = SplitMix64(7 * field.q + n)
        checked = 0
        while checked < 4:
            precision = rng.below(3 * field.p + 4) + 1
            ring = SpectralRing(
                InvariantTuple(tuple(rng.series(field, VAR_DISK, precision) for _ in range(n)))
            )
            for cut in (0, 1, 3):
                theta_prec = max(0, precision - cut)
                theta = ring.element(
                    [rng.series(field, VAR_DISK, theta_prec) for _ in range(n)]
                )
                want = outcome(from_one, theta)
                assert outcome(pcurv_in_ring, theta) == want
            checked += want is not DerivationUnavailable

    def test_eigen_gauge_is_the_exact_inverse(self) -> None:
        # solve_harmonic moves to the eigen frame by gauge(eigen.gauge.inverse(), conn)
        for field in (F3, F5, F9):
            rng = SplitMix64(field.q + 20)
            conn, _ = accepted(rng, field, 2, 2 * field.p + 3)
            eigen = hensel_eigen(pcurv(conn))
            inv = eigen.gauge.inverse()
            assert inv.inverse() is eigen.gauge
            # a fresh matrix of the same entries keeps nothing, so it eliminates again
            assert SeriesMatrix(inv.entries).inverse() == eigen.gauge

    def test_identical_data(self) -> None:
        h = rank1_datum(F2, "1", 8)
        delta, u = torsor_difference(h, h)
        assert delta.is_zero()
        assert u is not None and (u - ring_one(u.ring)).is_zero()

    def test_pinned_dlog_difference(self) -> None:
        h1 = rank1_datum(F2, "1", 8)
        # 1 + dlog(1 + z) = 1 + 1/(1 + z), expanded mod 2 to precision 8
        h2 = rank1_datum(F2, "z + z^2 + z^3 + z^4 + z^5 + z^6 + z^7", 8)
        delta, u = torsor_difference(h2, h1)
        want = dlog(S(F2, "1 + z", 9))
        assert delta.coeffs[0].agrees_with(want)
        assert u is not None
        assert str(u.coeffs[0]) == "1 + z"

    def test_gauge_equivalent_rank_two(self) -> None:
        rng = SplitMix64(64)
        conn, pkg1 = accepted(rng, F2, 2, 10)
        g = rng.unit_matrix(F2, VAR_DISK, 2, conn.precision)
        pkg2 = solve_harmonic(gauge(g, conn))
        delta, u = torsor_difference(pkg1.harmonic, pkg2.harmonic)
        assert u is not None
        assert dlog(u).agrees_with(delta)

    def test_difference_with_curvature_refused(self) -> None:
        # two certified data over one base always differ by a flat element, so
        # the second is built without its certificate: theta + 1 over F_2
        h1 = rank1_datum(F2, "1", 8)
        h2 = object.__new__(HarmonicDatum)
        h2.__dict__.update(h1.__getstate__(), theta=h1.theta + ring_one(h1.ring))
        with pytest.raises(CurvatureNonzero) as exc:
            torsor_difference(h1, h2)
        assert str(exc.value) == "difference of harmonic data has nonzero p-curvature"

    def test_ring_that_does_not_split_has_no_unit(self) -> None:
        # char = t^2 + 1 is irreducible over F_3; theta = 2 z^2 t has theta'' = t
        # and theta^3 = t z^6, beyond the certified precision 6
        b_prime = InvariantTuple((S(F3, "0", 3, var="z'"), S(F3, "1", 3, var="z'")))
        ring = SpectralRing(frobenius_base_pullback(b_prime))
        h = HarmonicDatum(b_prime, ring.element([S(F3, "0", 9), S(F3, "2*z^2", 9)]))
        with pytest.raises(NonSplitResidue):
            ring.eigenvalues
        delta, u = torsor_difference(h, h)
        assert delta.is_zero() and u is None

    def test_mismatched_bases_refused(self) -> None:
        h1 = rank1_datum(F2, "1", 8)
        h2 = rank1_datum(F2, "0", 8)
        with pytest.raises(BaseMismatch):
            torsor_difference(h1, h2)

    def test_mixed_signs_refused(self) -> None:
        h = rank1_datum(F2, "1", 8)
        with pytest.raises(BaseMismatch):
            torsor_difference(h, inverse(h))
