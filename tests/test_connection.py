"""Connections: apply, gauge action, the p-fold composite, horizontality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pdisk import matrix
from pdisk.connection import Connection, check_horizontality, dlog, gauge, pcurv
from pdisk.errors import InsufficientPrecision, NonUnit, SingularGauge, VarMismatch
from pdisk.field import FieldSpec
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK

from conftest import M, S, apply

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


# ==========================================================================
# apply
# ==========================================================================


class TestApply:
    def test_bare_derivative(self) -> None:
        conn = Connection(M(F3, [["0"]], 5))
        (out,) = apply(conn, [S(F3, "z", 5)])
        assert str(out) == "1"

    def test_multiplication_part(self) -> None:
        conn = Connection(M(F3, [["z"]], 5))
        (out,) = apply(conn, [S(F3, "1", 5)])
        assert str(out) == "z"

    def test_product_rule_step(self) -> None:
        conn = Connection(M(F3, [["z"]], 5))
        (out,) = apply(conn, [S(F3, "z", 5)])
        assert str(out) == "1 + z^2"


# ==========================================================================
# gauge
# ==========================================================================


class TestGauge:
    def test_identity_gauge(self) -> None:
        a = M(F3, [["z", "1"], ["0", "2"]], 6)
        g = SeriesMatrix.identity(F3, VAR_DISK, 2, 6)
        out = gauge(g, Connection(a))
        assert out.matrix.agrees_with(a.truncate(out.precision))

    def test_unit_shift_pinned(self) -> None:
        # g = 1+z on the trivial rank-1 connection at p=2
        g = M(F2, [["1 + z"]], 8)
        out = gauge(g, Connection(SeriesMatrix.zero(F2, VAR_DISK, 1, 8)))
        expect = S(F2, "1 + z", 8).inverse().truncate(out.precision)
        assert out.matrix.entry(0, 0).agrees_with(expect)

    def test_composite_law(self) -> None:
        rng = SplitMix64(5)
        a = Connection(rng.matrix(F5, VAR_DISK, 2, 8))
        g1 = rng.unit_matrix(F5, VAR_DISK, 2, 8)
        g2 = rng.unit_matrix(F5, VAR_DISK, 2, 8)
        lhs = gauge(g1, gauge(g2, a))
        rhs = gauge(g1 @ g2, a)
        assert lhs.matrix.agrees_with(rhs.matrix.truncate(lhs.precision))

    def test_defining_property(self) -> None:
        # apply(gauge(g, conn), g v) = g apply(conn, v)
        rng = SplitMix64(9)
        conn = Connection(rng.matrix(F3, VAR_DISK, 2, 9))
        g = rng.unit_matrix(F3, VAR_DISK, 2, 9)
        moved = gauge(g, conn)
        v = [rng.series(F3, VAR_DISK, 9) for _ in range(2)]
        gv = g.matvec(v)
        lhs = apply(moved, [c.truncate(moved.precision) for c in gv])
        rhs = g.matvec(apply(conn, v))
        for x, y in zip(lhs, rhs):
            assert x.agrees_with(y)

    def test_singular_gauge_rejected(self) -> None:
        g = M(F3, [["z"]], 4)
        with pytest.raises(SingularGauge):
            gauge(g, Connection(M(F3, [["0"]], 4)))


# ==========================================================================
# pcurv: pinned anchors
# ==========================================================================


class TestPcurvPinned:
    def test_zero_connection(self) -> None:
        for p in (2, 3, 5):
            f = FieldSpec(p)
            conn = Connection(SeriesMatrix.zero(f, VAR_DISK, 2, 3 * p + 4))
            assert pcurv(conn).matrix.is_zero()

    def test_scalar_anchor_p3(self) -> None:
        conn = Connection(M(F3, [["z"]], 8))
        psi = pcurv(conn)
        assert str(psi.matrix.entry(0, 0)) == "z^3"
        assert psi.twist_weight == 3

    def test_matrix_anchor_p2(self) -> None:
        conn = Connection(M(F2, [["0", "1"], ["z", "0"]], 10))
        psi = pcurv(conn)
        rows = [[str(psi.matrix.entry(i, j)) for j in range(2)] for i in range(2)]
        assert rows == [["z", "0"], ["1", "z"]]

    def test_matrix_anchor_p3(self) -> None:
        conn = Connection(M(F3, [["0", "1"], ["z", "0"]], 13))
        psi = pcurv(conn)
        rows = [[str(psi.matrix.entry(i, j)) for j in range(2)] for i in range(2)]
        assert rows == [["2", "z"], ["z^2", "1"]]

    def test_constant_matrix_power(self) -> None:
        a = M(F3, [["1", "1"], ["0", "2"]], 9)
        psi = pcurv(Connection(a))
        assert psi.matrix.agrees_with((a @ a @ a).truncate(psi.matrix.precision))

    def test_precision_guard(self) -> None:
        conn = Connection(M(F5, [["z"]], 5))
        with pytest.raises(InsufficientPrecision):
            pcurv(conn)

    def test_output_precision(self) -> None:
        conn = Connection(M(F3, [["z"]], 9))
        assert pcurv(conn).matrix.precision == 7  # N - p + 1


# ==========================================================================
# pcurv: oracle and covariance properties
# ==========================================================================


def _closed_form_rank1(a: TruncSeries, p: int) -> TruncSeries:
    d = a
    for _ in range(p - 1):
        d = d.derivative()
    return (a**p).truncate(d.precision) + d


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_form_oracle(p: int) -> None:
    f = FieldSpec(p)
    rng = SplitMix64(p)
    for _ in range(40):
        a = rng.series(f, VAR_DISK, 3 * p + 4)
        psi = pcurv(Connection(SeriesMatrix.from_rows([[a]])))
        assert psi.matrix.entry(0, 0).agrees_with(_closed_form_rank1(a, p))


def _pcurv_from_identity(conn: Connection) -> SeriesMatrix:
    """The p-fold composite applied to I, taken one order above A."""
    x = SeriesMatrix.identity(conn.field, VAR_DISK, conn.rank, conn.precision + 1)
    for _ in range(conn.field.p):
        x = x.derivative() + conn.matrix @ x
    return x


F4 = FieldSpec(2, 2, (1, 1, 1))
F9 = FieldSpec(3, 2, (1, 0, 1))
ORACLE_FIELDS = [F2, F3, F5, FieldSpec(7), F4, F9]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_seeded_pcurv_matches_identity_loop(field: FieldSpec, n: int) -> None:
    # pcurv starts at A, the first application to I; the identity-seeded
    # loop is the definition, so both agree in every entry and in precision
    p = field.p
    rng = SplitMix64(10 * field.q + n)
    for prec in range(p + 1, 3 * p + 5):
        conn = Connection(rng.matrix(field, VAR_DISK, n, prec))
        psi = pcurv(conn).matrix
        assert psi == _pcurv_from_identity(conn)
        assert psi.precision == prec - p + 1
    with pytest.raises(InsufficientPrecision):
        pcurv(Connection(rng.matrix(field, VAR_DISK, n, p)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_gauge_matches_written_out_formula(field: FieldSpec, n: int) -> None:
    # gauge forms g (A g^(-1) + d(g^(-1))), two products; the written-out
    # g A g^(-1) + g d(g^(-1)) is the same matrix at the same precision,
    # with A and g at equal and at unequal precisions
    rng = SplitMix64(20 * field.q + n)
    for prec_a, prec_g in [(7, 7)] * 10 + [(5, 9), (9, 5)] * 5:
        a = rng.matrix(field, VAR_DISK, n, prec_a)
        g = rng.unit_matrix(field, VAR_DISK, n, prec_g)
        g_inv = g.inverse()
        expect = g @ a @ g_inv + g @ g_inv.derivative()
        assert gauge(g, Connection(a)).matrix == expect


class TestPcurvOncePerConnection:
    def test_same_object(self) -> None:
        conn = Connection(SplitMix64(3).matrix(F5, VAR_DISK, 2, 19))
        assert pcurv(conn) is pcurv(conn)

    def test_invariants_computed_once(self, monkeypatch) -> None:
        calls = []
        original = matrix.char_invariants
        monkeypatch.setattr(matrix, "char_invariants", lambda m: calls.append(m) or original(m))
        psi = pcurv(Connection(SplitMix64(4).matrix(F3, VAR_DISK, 2, 13)))
        first = psi.matrix.invariants
        assert psi.matrix.invariants is first
        assert calls == [psi.matrix]
        assert first == original(psi.matrix)

    @pytest.mark.parametrize("precision", [3, 4, 5])
    def test_kept_fact_checks_precision(self, precision: int) -> None:
        # below N = p + 1 the kept fact refuses as pcurv does, on every read
        conn = Connection(SplitMix64(5).matrix(F5, VAR_DISK, 2, precision))
        for read in (lambda: conn.p_curvature, lambda: conn.p_curvature, lambda: pcurv(conn)):
            with pytest.raises(InsufficientPrecision):
                read()


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_gauge_covariance(p: int, n: int) -> None:
    f = FieldSpec(p)
    rng = SplitMix64(100 * p + n)
    for _ in range(10):
        conn = Connection(rng.matrix(f, VAR_DISK, n, 3 * p + 4))
        g = rng.unit_matrix(f, VAR_DISK, n, 3 * p + 4)
        lhs = pcurv(gauge(g, conn)).matrix
        rhs = pcurv(conn).matrix.conjugate_by(g.inverse())
        m = min(lhs.precision, rhs.precision)
        assert lhs.truncate(m).agrees_with(rhs.truncate(m))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_horizontality_always(p: int, n: int) -> None:
    f = FieldSpec(p)
    rng = SplitMix64(7 * p + n)
    for _ in range(15):
        conn = Connection(rng.matrix(f, VAR_DISK, n, 3 * p + 4))
        assert check_horizontality(conn, pcurv(conn)).is_zero()


def test_horizontality_precision_guard() -> None:
    conn = Connection(M(F5, [["z"]], 6))
    with pytest.raises(InsufficientPrecision):
        check_horizontality(conn, pcurv(conn))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pcurv_refusal_names_p_plus_one(p: int) -> None:
    # the bound is p + 1, and the message says so: N = p is refused, N = p + 1 accepted
    f = FieldSpec(p)
    rng = SplitMix64(60 + p)
    with pytest.raises(InsufficientPrecision, match=rf"^need precision >= p \+ 1 = {p + 1}, have {p}$"):
        pcurv(Connection(rng.matrix(f, VAR_DISK, 2, p)))
    assert pcurv(Connection(rng.matrix(f, VAR_DISK, 2, p + 1))).matrix.precision == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_horizontality_guard_at_its_boundary(p: int) -> None:
    # N = p + 2 is the least precision with a residual: zero there; N = p + 1 is refused
    f = FieldSpec(p)
    rng = SplitMix64(70 + p)
    for rank in (1, 2):
        conn = Connection(rng.matrix(f, VAR_DISK, rank, p + 2))
        residual = check_horizontality(conn, pcurv(conn))
        assert residual.is_zero() and residual.precision == 2
        short = Connection(rng.matrix(f, VAR_DISK, rank, p + 1))
        with pytest.raises(InsufficientPrecision, match="need precision >= p \\+ 2"):
            check_horizontality(short, pcurv(short))


def test_dlog_gauge_flat() -> None:
    # the gauge orbit of the trivial connection has vanishing composite
    for p in (2, 3, 5):
        f = FieldSpec(p)
        rng = SplitMix64(p + 41)
        for _ in range(15):
            u = rng.unit_series(f, VAR_DISK, 3 * p + 4)
            conn = Connection(SeriesMatrix.from_rows([[dlog(u)]]))
            assert pcurv(conn).matrix.is_zero()


# ==========================================================================
# dlog
# ==========================================================================


class TestDlog:
    def test_one(self) -> None:
        assert dlog(TruncSeries.one(F3, VAR_DISK, 5)).is_zero()

    def test_constant(self) -> None:
        assert dlog(TruncSeries.monomial(F5, VAR_DISK, 0, 5, 3)).is_zero()

    def test_geometric_pinned(self) -> None:
        u = S(F2, "1 + z", 8)
        assert str(dlog(u)) == "1 + z + z^2 + z^3 + z^4 + z^5 + z^6"

    def test_additive_on_products(self) -> None:
        u = S(F5, "1 + 2*z + z^3", 9)
        v = S(F5, "3 + z^2", 9)
        assert dlog(u * v).agrees_with(dlog(u) + dlog(v))

    def test_nonunit_rejected(self) -> None:
        with pytest.raises(NonUnit):
            dlog(S(F3, "z", 4))


@given(cs=st.lists(st.integers(0, 4), min_size=6, max_size=6), lead=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_dlog_determines_unit_up_to_constant(cs: list[int], lead: int) -> None:
    u = TruncSeries.make(F5, VAR_DISK, [lead] + cs)
    v = u.scale(3)
    assert dlog(u).agrees_with(dlog(v))


def test_connection_lives_in_the_disk_coordinate() -> None:
    with pytest.raises(VarMismatch) as exc:
        Connection(M(F3, [["1"]], 4, var="z'"))
    assert str(exc.value) == "a connection matrix lives in the z coordinate"
