"""Characteristic data: invariants, companion section, descent of the base."""

from __future__ import annotations

import pytest

from pdisk.connection import Connection, gauge, pcurv
from pdisk.errors import InsufficientPrecision, RankTooLarge
from pdisk.field import FieldSpec
from pdisk.hitchin import (
    InvariantTuple,
    char_invariants,
    companion_section,
    descend_invariants,
    frobenius_base_pullback,
    phitchin,
)
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST
from pdisk.spectral import SpectralRing, regular_rep

from conftest import M, S, companion_layout

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def _tuple_of(field, var, texts, precision):
    return InvariantTuple(tuple(S(field, t, precision, var) for t in texts))


# ==========================================================================
# char_invariants
# ==========================================================================


class TestCharInvariants:
    def test_zero_matrix(self) -> None:
        b = char_invariants(SeriesMatrix.zero(F3, VAR_DISK, 3, 5))
        assert all(e.is_zero() for e in b.entries)

    def test_pinned_p2(self) -> None:
        m = M(F2, [["z", "0"], ["1", "z"]], 6)
        b = char_invariants(m)
        assert [str(e) for e in b.entries] == ["0", "z^2"]

    def test_pinned_p3(self) -> None:
        m = M(F3, [["2", "z"], ["z^2", "1"]], 6)
        b = char_invariants(m)
        assert [str(e) for e in b.entries] == ["0", "2 + 2*z^3"]

    def test_trace_and_det_endpoints(self) -> None:
        rng = SplitMix64(3)
        m = rng.matrix(F5, VAR_DISK, 3, 6)
        b = char_invariants(m)
        assert b.entries[0].agrees_with(m.trace())
        # det via explicit 3x3 expansion
        e = m.entry
        det = (
            e(0, 0) * (e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1))
            - e(0, 1) * (e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0))
            + e(0, 2) * (e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0))
        )
        assert b.entries[2].agrees_with(det)

    def test_cayley_hamilton(self) -> None:
        # det(t I - M) evaluated at M vanishes: the sign bookkeeping check
        rng = SplitMix64(11)
        for n in (2, 3):
            m = rng.matrix(F2, VAR_DISK, n, 6)
            q = SpectralRing(char_invariants(m)).char
            acc = SeriesMatrix.zero(F2, VAR_DISK, n, 6)
            power = SeriesMatrix.identity(F2, VAR_DISK, n, 6)
            for c in q:
                acc = acc + power.scale(c)
                power = power @ m
            assert acc.is_zero()

    def test_rank_budget(self) -> None:
        with pytest.raises(RankTooLarge):
            char_invariants(SeriesMatrix.identity(F2, VAR_DISK, 9, 3))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_sympy(self, p: int, n: int) -> None:
        # independent oracle: det(t I - M) over Z[z] by sympy, then mod (p, z^N)
        import sympy

        z, t = sympy.symbols("z t")
        rng = SplitMix64(100 * p + n)
        prec = 1 + rng.below(8)
        m = rng.matrix(FieldSpec(p), VAR_DISK, n, prec)
        lifted = sympy.Matrix(
            n, n, lambda i, j: sum(c * z**e for e, c in enumerate(m.entry(i, j).coeffs))
        )
        char = lifted.charpoly(t).all_coeffs()
        want = []
        for i in range(1, n + 1):
            b_i = sympy.Poly((-1) ** i * char[i], z)
            want.append(tuple(int(b_i.coeff_monomial(z**e)) % p for e in range(prec)))
        assert [e.coeffs for e in char_invariants(m).entries] == want


# ==========================================================================
# companion_section
# ==========================================================================


class TestCompanion:
    def test_nilpotent(self) -> None:
        b = _tuple_of(F3, VAR_DISK, ["0", "0", "0"], 4)
        c = companion_section(b)
        assert str(c.entry(1, 0)) == "1"
        assert str(c.entry(2, 1)) == "1"
        assert c.entry(0, 0).is_zero()

    def test_rank_one(self) -> None:
        b = _tuple_of(F3, VAR_DISK, ["1 + z"], 4)
        c = companion_section(b)
        assert str(c.entry(0, 0)) == "1 + z"

    def test_pinned_p2(self) -> None:
        b = _tuple_of(F2, VAR_DISK, ["0", "z^2"], 5)
        c = companion_section(b)
        assert str(c.entry(0, 1)) == "z^2"
        assert str(c.entry(1, 0)) == "1"

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_section_property(self, p: int, n: int) -> None:
        f = FieldSpec(p)
        rng = SplitMix64(10 * p + n)
        for _ in range(20):
            b = InvariantTuple(tuple(rng.series(f, VAR_DISK, 5) for _ in range(n)))
            assert char_invariants(companion_section(b)).agrees_with(b)


# ==========================================================================
# phitchin and the base maps
# ==========================================================================


class TestPhitchin:
    def test_zero_connection(self) -> None:
        conn = Connection(SeriesMatrix.zero(F3, VAR_DISK, 2, 10))
        b = phitchin(conn)
        assert b.var == VAR_TWIST
        assert all(e.is_zero() for e in b.entries)

    def test_pinned_p2(self) -> None:
        conn = Connection(M(F2, [["0", "1"], ["z", "0"]], 10))
        b = phitchin(conn)
        assert [str(e) for e in b.entries] == ["0", "z"]

    def test_pinned_p3_rank1(self) -> None:
        conn = Connection(M(F3, [["z"]], 9))
        b = phitchin(conn)
        assert [str(e) for e in b.entries] == ["z"]

    def test_pinned_p3_rank2(self) -> None:
        conn = Connection(M(F3, [["0", "1"], ["z", "0"]], 13))
        b = phitchin(conn)
        assert [str(e) for e in b.entries] == ["0", "2 + 2*z"]

    def test_precision_guard(self) -> None:
        conn = Connection(M(F5, [["z"]], 6))
        with pytest.raises(InsufficientPrecision):
            phitchin(conn)

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
    def test_gauge_invariance(self, p: int, n: int) -> None:
        f = FieldSpec(p)
        rng = SplitMix64(p * 31 + n)
        for _ in range(10):
            conn = Connection(rng.matrix(f, VAR_DISK, n, 3 * p + 4))
            g = rng.unit_matrix(f, VAR_DISK, n, 3 * p + 4)
            assert phitchin(gauge(g, conn)).agrees_with(phitchin(conn))

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (3, 3)])
    def test_invariants_are_constant(self, p: int, n: int) -> None:
        # each characteristic coefficient of the composite has zero derivative
        f = FieldSpec(p)
        rng = SplitMix64(p * 7 + n)
        for _ in range(10):
            conn = Connection(rng.matrix(f, VAR_DISK, n, 3 * p + 4))
            b = char_invariants(pcurv(conn).matrix)
            for e in b.entries:
                assert e.derivative().is_zero()


class TestBasePullback:
    def test_substitution(self) -> None:
        bp = _tuple_of(F2, VAR_TWIST, ["0", "z"], 3)
        b = frobenius_base_pullback(bp)
        assert b.var == VAR_DISK
        assert [str(e) for e in b.entries] == ["0", "z^2"]
        assert b.precision == 6

    def test_constants(self) -> None:
        bp = _tuple_of(F2, VAR_TWIST, ["1", "0"], 3)
        b = frobenius_base_pullback(bp)
        assert [str(e) for e in b.entries] == ["1", "0"]

    def test_pinned_p3(self) -> None:
        bp = _tuple_of(F3, VAR_TWIST, ["0", "2 + 2*z"], 2)
        b = frobenius_base_pullback(bp)
        assert [str(e) for e in b.entries] == ["0", "2 + 2*z^3"]

    def test_inverts_descend(self) -> None:
        rng = SplitMix64(23)
        bp = InvariantTuple(tuple(rng.series(F5, VAR_TWIST, 3) for _ in range(2)))
        assert descend_invariants(frobenius_base_pullback(bp)).agrees_with(bp)


# ==========================================================================
# the tautological element
# ==========================================================================


class TestTau:
    def test_rank_one(self) -> None:
        b = _tuple_of(F3, VAR_DISK, ["1 + z"], 4)
        t = SpectralRing(b).tautological()
        assert len(t.coeffs) == 1
        assert t.coeffs[0].agrees_with(S(F3, "1 + z", 4))

    def test_regular_rep_is_companion(self) -> None:
        b = _tuple_of(F2, VAR_DISK, ["0", "z^2"], 5)
        rep = regular_rep(SpectralRing(b).tautological())
        assert rep.agrees_with(companion_layout(b))

    def test_regular_rep_nilpotent(self) -> None:
        b = _tuple_of(F3, VAR_DISK, ["0", "0", "0"], 4)
        rep = regular_rep(SpectralRing(b).tautological())
        assert rep.agrees_with(companion_layout(b))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regular_rep_random(self, n: int) -> None:
        rng = SplitMix64(n + 77)
        for _ in range(10):
            b = InvariantTuple(tuple(rng.series(F5, VAR_DISK, 4) for _ in range(n)))
            want = companion_layout(b)
            assert regular_rep(SpectralRing(b).tautological()) == want
            assert companion_section(b) == want
