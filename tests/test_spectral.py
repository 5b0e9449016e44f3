"""Spectral chart rings, Hensel eigen splitting, regular representations."""

from __future__ import annotations

import pickle

import pytest

from pdisk.connection import FHiggs, dlog
from pdisk.errors import (
    BaseMismatch,
    DerivationUnavailable,
    DimensionMismatch,
    NonSplitResidue,
    NonUnit,
    RepeatedResidueRoot,
    ZeroPrecision,
)
from pdisk.field import FieldSpec
from pdisk.hitchin import (
    InvariantTuple,
    char_invariants,
    companion_section,
    frobenius_base_pullback,
)
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST
from pdisk.spectral import EigenData, SpectralRing, hensel_eigen, regular_rep

from conftest import M, S, companion_layout, spectral_product

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F4 = FieldSpec(2, 2, (1, 1, 1))
F9 = FieldSpec(3, 2, (1, 0, 1))


def inv(field: FieldSpec, texts: list[str], precision: int) -> InvariantTuple:
    return InvariantTuple(tuple(S(field, t, precision) for t in texts))


def random_base(
    rng: SplitMix64, field: FieldSpec, n: int, prec: int, pulled: bool
) -> InvariantTuple:
    """A random rank-n base at precision prec, pulled back from the twist or general."""
    if pulled:
        twist = [rng.series(field, VAR_TWIST, -(-prec // field.p)) for _ in range(n)]
        return frobenius_base_pullback(InvariantTuple(tuple(twist))).truncate(prec)
    return InvariantTuple(tuple(rng.series(field, VAR_DISK, prec) for _ in range(n)))


FIELDS = pytest.mark.parametrize(
    "field", [F2, F3, F5, F7, F4, F9], ids=["F2", "F3", "F5", "F7", "F4", "F9"]
)
BASES = pytest.mark.parametrize("pulled", [True, False], ids=["pulled", "general"])


def artin_schreier_ring(precision: int = 9):
    # char = t^2 + t + z^2 over F_2: trace 1, det z^2
    return SpectralRing(inv(F2, ["1", "z^2"], precision))


# ==========================================================================
# ring construction and the derivation
# ==========================================================================


class TestBuildSpectral:
    def test_rank_one_collapses_to_base(self) -> None:
        f = S(F5, "2 + z^3", 7)
        ring = SpectralRing(InvariantTuple((f,)))
        taut = ring.tautological()
        assert taut.coeffs == (f,)
        # the derivation then continues d/dz
        assert ring.derivation().coeffs[0] == f.derivative()

    def test_char_poly_of_artin_schreier(self) -> None:
        ring = artin_schreier_ring()
        q = ring.char
        assert [str(c) for c in q] == ["z^2", "1", "1"]
        assert ring.residue_char() == [0, 1, 1]

    def test_tautological_satisfies_char(self) -> None:
        ring = artin_schreier_ring()
        t = ring.tautological()
        rel = t * t + t + ring.from_series(S(F2, "z^2", 9))
        assert rel.is_zero()

    def test_separable_derivation_vanishes_here(self) -> None:
        # differentiate t^2 + t + z^2 = 0: (2t + 1) dt = -2z dz, so dt = 0
        ring = artin_schreier_ring()
        assert ring.derivation().is_zero()

    def test_inseparable_cover_has_no_derivation(self) -> None:
        # char = t^2 + z^2 has char' = 2t = 0
        ring = SpectralRing(inv(F2, ["0", "z^2"], 9))
        with pytest.raises(DerivationUnavailable):
            ring.derivation()

    def test_derivation_with_unit_char_prime(self) -> None:
        # char = t^2 - t + z over F_3: char' = 2t - 1, unit residue poly
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        t = ring.tautological()
        # implicit differentiation: dt must solve (2t - 1) dt + 1 = 0
        dt = ring.derivation()
        two_t = t + t
        one = ring.one()
        assert ((two_t - one) * dt + one).is_zero()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_derivation_matches_the_ring_inverse_formula(self, p: int) -> None:
        # the formula dt/dz = -char^{dz}(t) * char'(t)^(-1), inverse and all,
        # is the reference; over pulled-back bases the derivation skips it
        field = FieldSpec(p)
        rng = SplitMix64(p)
        outcomes = set()
        for n in (1, 2, 3):
            for pulled in (True, False):
                for _ in range(4):
                    if pulled:
                        twist = tuple(rng.series(field, VAR_TWIST, 3) for _ in range(n))
                        b = frobenius_base_pullback(InvariantTuple(twist))
                    else:
                        b = InvariantTuple(tuple(rng.series(field, VAR_DISK, 7) for _ in range(n)))
                    ring = SpectralRing(b)
                    dz = ring.element([c.derivative() for c in ring.char[:-1]])
                    try:
                        reference = -(dz * ring.element(ring.dchar).inverse())
                    except NonUnit:
                        with pytest.raises(DerivationUnavailable):
                            ring.derivation()
                        outcomes.add((pulled, None))
                        continue
                    # equal coefficient tuples, so equal precision too
                    assert ring.derivation() == reference
                    outcomes.add((pulled, reference.is_zero()))
        assert {(True, True), (False, False)} <= outcomes
        assert None in {zero for _, zero in outcomes}

    def test_reduction_mod_char(self) -> None:
        ring = artin_schreier_ring()
        t = ring.tautological()
        # t^2 = t + z^2 mod char in characteristic 2
        sq = t * t
        assert str(sq.coeffs[0]) == "z^2"
        assert str(sq.coeffs[1]) == "1"


# ==========================================================================
# element arithmetic
# ==========================================================================


class TestElements:
    def test_inverse(self) -> None:
        rng = SplitMix64(50)
        ring = artin_schreier_ring()
        found = 0
        while found < 15:
            cand = ring.element(
                [rng.series(F2, VAR_DISK, 9), rng.series(F2, VAR_DISK, 9)]
            )
            if not cand.is_unit():
                continue
            found += 1
            assert (cand * cand.inverse() - ring.one()).is_zero()

    @FIELDS
    @pytest.mark.parametrize("n", [1, 2, 3])
    @BASES
    def test_seeded_units_invert(self, field: FieldSpec, n: int, pulled: bool) -> None:
        rng = SplitMix64(100 * field.q + 10 * n + pulled)
        prec = 2 * field.p + 3
        for _ in range(3):
            ring = SpectralRing(random_base(rng, field, n, prec, pulled))
            units = 0
            while units < 4:
                # every other element below the ring's precision
                x = ring.element([rng.series(field, VAR_DISK, prec - units % 2) for _ in range(n)])
                if not x.is_unit():
                    with pytest.raises(NonUnit, match="zero divisor at the residue"):
                        x.inverse()
                    continue
                units += 1
                y = x.inverse()
                assert y.precision == x.precision
                assert x * y == ring.one().truncate(x.precision)
            # z is never a unit, and a precision-0 element has no residue
            z = ring.from_series(TruncSeries.monomial(field, VAR_DISK, 1, prec))
            with pytest.raises(NonUnit, match="zero divisor at the residue"):
                z.inverse()
            with pytest.raises(ZeroPrecision):
                ring.from_series(TruncSeries.one(field, VAR_DISK, 0)).inverse()

    @FIELDS
    @pytest.mark.parametrize("n", [1, 2, 3])
    @BASES
    def test_product_is_the_reduced_convolution(
        self, field: FieldSpec, n: int, pulled: bool
    ) -> None:
        rng = SplitMix64(1000 * field.q + 10 * n + pulled)
        prec = 2 * field.p + 3
        ring = SpectralRing(random_base(rng, field, n, prec, pulled))
        for k in range(4):
            # precisions prec - k and prec - 3 + k never meet
            x = ring.element([rng.series(field, VAR_DISK, prec - k) for _ in range(n)])
            y = ring.element([rng.series(field, VAR_DISK, prec - 3 + k) for _ in range(n)])
            want = spectral_product(x, y)
            for got in (x * y, x * y, y * x):
                assert got.precision == min(x.precision, y.precision)
                assert list(got.coeffs) == want

    def test_multiplication_matrix_is_kept(self, monkeypatch) -> None:
        ring = SpectralRing(inv(F3, ["z", "2 + z^2"], 8))
        a = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        value = (ring.element(list(a.coeffs)), hash(a), repr(a))
        assert a.rep is a.rep
        assert regular_rep(a) is a.rep
        assert (a, hash(a), repr(a)) == value
        assert pickle.loads(pickle.dumps(a)) == a
        eliminated = []
        eliminate = SeriesMatrix._eliminate
        monkeypatch.setattr(
            SeriesMatrix, "_eliminate", lambda m: eliminated.append(m) or eliminate(m)
        )
        assert a.inverse() == a.inverse()
        assert eliminated == [a.rep]

    def test_zero_divisor_refused(self) -> None:
        # in O[t]/(t^2 + t) the class of t kills t + 1
        ring = SpectralRing(inv(F2, ["1", "0"], 6))
        t = ring.tautological()
        assert not t.is_unit()
        with pytest.raises(NonUnit):
            t.inverse()
        other = t + ring.one()
        assert (t * other).is_zero()

    def test_eval_series_is_horner(self) -> None:
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        elt = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        mu = S(F3, "2 + z^2", 8)
        assert elt.eval_series(mu) == S(F3, "2 + z + z^2", 8)

    def test_dlog_of_unit(self) -> None:
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        u = ring.from_series(S(F3, "1 + z", 8))
        got = dlog(u)
        expect = ring.from_series(S(F3, "1 + z", 8).inverse() * S(F3, "1", 7))
        assert got.agrees_with(expect)

    def test_peer_rings_checked(self) -> None:
        a = artin_schreier_ring().one()
        b = SpectralRing(inv(F2, ["0", "z^2"], 9)).one()
        with pytest.raises(BaseMismatch):
            a + b

    def test_agrees_with_checks_the_ring(self) -> None:
        # equal coefficients over different ranks, and over different bases
        one_1 = SpectralRing(inv(F5, ["1"], 6)).one()
        one_2 = SpectralRing(inv(F5, ["1", "0"], 6)).one()
        t = SpectralRing(inv(F5, ["1", "0"], 6)).tautological()
        other_t = SpectralRing(inv(F5, ["2", "1"], 6)).tautological()
        for x, y in ((one_1, one_2), (one_2, one_1), (t, other_t)):
            with pytest.raises(BaseMismatch):
                x.agrees_with(y)
        # a second ring over an agreeing base is a peer
        assert t.agrees_with(SpectralRing(inv(F5, ["1", "0"], 4)).tautological())


# ==========================================================================
# hensel_eigen
# ==========================================================================


def as_psi(m: SeriesMatrix) -> FHiggs:
    return FHiggs(m)


class TestHenselEigen:
    def test_artin_schreier_lift(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        lo, hi = eigen.mus
        # the root over 0 is the lacunary series z^2 + z^4 + z^8 + ...
        assert str(lo) == "z^2 + z^4 + z^8"
        assert hi == lo + S(F2, "1", 9)
        assert (lo + hi) == S(F2, "1", 9)
        assert lo * hi == S(F2, "z^2", 9)

    def test_projector_identities(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        p1, p2 = eigen.projectors
        n = 2
        ident = SeriesMatrix.identity(F2, VAR_DISK, n, p1.precision)
        assert p1 + p2 == ident
        assert p1 @ p1 == p1.truncate(p1.precision)
        assert (p1 @ p2).is_zero()
        recon = p1.scale(eigen.mus[0].truncate(p1.precision)) + p2.scale(
            eigen.mus[1].truncate(p2.precision)
        )
        assert recon.agrees_with(psi.matrix)

    def test_gauge_diagonalises(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        prec = eigen.gauge.precision
        moved = eigen.gauge.inverse() @ psi.matrix.truncate(prec) @ eigen.gauge
        for i in range(2):
            for j in range(2):
                entry = moved.entry(i, j)
                if i == j:
                    assert entry.agrees_with(eigen.mus[i])
                else:
                    assert entry.is_zero()

    def test_diagonal_input_gives_identity_gauge(self) -> None:
        m = M(F5, [["1", "0"], ["0", "3"]], 7)
        eigen = hensel_eigen(as_psi(m))
        assert [str(mu) for mu in eigen.mus] == ["1", "3"]
        assert eigen.gauge == SeriesMatrix.identity(F5, VAR_DISK, 2, 7)

    def test_repeated_residue_root(self) -> None:
        bp = inv(F2, ["0", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        with pytest.raises(RepeatedResidueRoot):
            hensel_eigen(psi)

    def test_nonsplit_residue_suggests_degree(self) -> None:
        # t^2 + 1 is irreducible over F_3
        bp = inv(F3, ["0", "1"], 8)
        psi = as_psi(companion_section(bp))
        with pytest.raises(NonSplitResidue) as exc:
            hensel_eigen(psi)
        assert exc.value.suggested_degree == 2

    def test_same_spectrum_splits_over_f9(self) -> None:
        # the same residue char t^2 + 1 factors over F_9 as (t - x)(t + x)
        bp = inv(F9, ["0", "1"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        assert sorted(mu.coeff(0) for mu in eigen.mus) == [3, 6]

    def test_three_by_three_split(self) -> None:
        m = M(F5, [["0", "z", "0"], ["1", "1", "z^2"], ["0", "0", "3 + z"]], 9)
        eigen = hensel_eigen(as_psi(m))
        p_sum = eigen.projectors[0]
        for pk in eigen.projectors[1:]:
            p_sum = p_sum + pk
        assert p_sum == SeriesMatrix.identity(F5, VAR_DISK, 3, p_sum.precision)
        recon = SeriesMatrix.zero(F5, VAR_DISK, 3, p_sum.precision)
        for mu, pk in zip(eigen.mus, eigen.projectors):
            recon = recon + pk.scale(mu.truncate(p_sum.precision))
        assert recon.agrees_with(m)


# ==========================================================================
# regular_rep
# ==========================================================================


class TestRegularRep:
    def test_one_is_identity(self) -> None:
        ring = artin_schreier_ring()
        assert regular_rep(ring.one()) == SeriesMatrix.identity(F2, VAR_DISK, 2, 9)

    def test_taut_is_companion(self) -> None:
        for field, texts in ((F2, ["1", "z^2"]), (F3, ["z", "2 + z^2"]), (F5, ["1", "z", "4"])):
            b = inv(field, texts, 8)
            ring = SpectralRing(b)
            assert regular_rep(ring.tautological()) == companion_layout(b)

    def test_ring_homomorphism(self) -> None:
        rng = SplitMix64(51)
        ring = SpectralRing(inv(F3, ["z", "2 + z^2"], 8))
        for _ in range(15):
            a = ring.element([rng.series(F3, VAR_DISK, 8) for _ in range(2)])
            b = ring.element([rng.series(F3, VAR_DISK, 8) for _ in range(2)])
            lhs = regular_rep(a * b)
            rhs = regular_rep(a) @ regular_rep(b)
            assert lhs.agrees_with(rhs)
            assert regular_rep(a + b) == regular_rep(a) + regular_rep(b)

    def test_eigen_frame_recovers_psi(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        ring = SpectralRing(bp)
        got = regular_rep(ring.tautological(), eigen)
        assert got.agrees_with(psi.matrix)

    def test_eigen_and_cyclic_share_invariants(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        ring = SpectralRing(bp)
        elt = ring.element([S(F3, "1 + z", 8), S(F3, "2", 8)])
        cyc = regular_rep(elt)
        eig = regular_rep(elt, eigen)
        assert char_invariants(eig).agrees_with(char_invariants(cyc))

    def test_eigen_rank_guard(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        eigen = hensel_eigen(as_psi(companion_section(bp)))
        ring = SpectralRing(inv(F2, ["1"], 9))
        with pytest.raises(DimensionMismatch):
            regular_rep(ring.one(), eigen)

    def test_eval_matrix_on_taut(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        m = companion_section(bp)
        ring = SpectralRing(bp)
        assert ring.tautological().eval_matrix(m) == m
        shifted = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        expect = m + SeriesMatrix.diagonal([S(F3, "z", 8)] * 2)
        assert shifted.eval_matrix(m) == expect
