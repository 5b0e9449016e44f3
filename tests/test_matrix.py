"""Matrix layer: shape guards, exact linear algebra, precision behavior."""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pdisk.errors import DimensionMismatch, SingularGauge, VarMismatch
from pdisk.field import FieldSpec
from pdisk.matrix import InvariantTuple, SeriesMatrix, char_invariants
from pdisk.series import TruncSeries, VAR_DISK

from conftest import M, S, residue, trace

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def matrix_strategy(field: FieldSpec, n: int, precision: int):
    cell = st.lists(st.integers(0, field.q - 1), min_size=precision, max_size=precision)
    return st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(
        lambda rows: SeriesMatrix.from_rows(
            [[TruncSeries.make(field, VAR_DISK, c) for c in row] for row in rows]
        )
    )


class TestShape:
    def test_identity_and_zero(self) -> None:
        i = SeriesMatrix.identity(F3, VAR_DISK, 3, 4)
        z = SeriesMatrix.zero(F3, VAR_DISK, 3, 4)
        assert (i @ i).agrees_with(i)
        assert (i + z).agrees_with(i)
        assert i.rank == 3
        assert i.precision == 4

    def test_rank_zero_refused(self) -> None:
        builders = [
            lambda: SeriesMatrix.diagonal([]),
            lambda: SeriesMatrix.identity(F3, VAR_DISK, 0, 3),
            lambda: SeriesMatrix.zero(F3, VAR_DISK, 0, 3),
            lambda: SeriesMatrix(()),
            lambda: InvariantTuple(()),
        ]
        for build in builders:
            with pytest.raises(DimensionMismatch, match="rank must be at least 1"):
                build()

    def test_ragged_rejected(self) -> None:
        one = TruncSeries.one(F3, VAR_DISK, 4)
        with pytest.raises(DimensionMismatch):
            SeriesMatrix.from_rows([[one, one], [one]])

    def test_nonsquare_rejected(self) -> None:
        one = TruncSeries.one(F3, VAR_DISK, 4)
        with pytest.raises(DimensionMismatch):
            SeriesMatrix.from_rows([[one, one]])
        with pytest.raises(DimensionMismatch):
            SeriesMatrix(((),))

    def test_mixed_precision_rejected(self) -> None:
        a = TruncSeries.one(F3, VAR_DISK, 4)
        b = TruncSeries.one(F3, VAR_DISK, 5)
        with pytest.raises(DimensionMismatch):
            SeriesMatrix.from_rows([[a, b], [a, a]])

    def test_mixed_var_rejected(self) -> None:
        a = TruncSeries.one(F3, "z", 4)
        b = TruncSeries.one(F3, "z'", 4)
        with pytest.raises((DimensionMismatch, VarMismatch)):
            SeriesMatrix.from_rows([[a, b], [a, a]])

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: SeriesMatrix.identity(F3, VAR_DISK, 2, 4).matvec([S(F3, "1", 4)]),
                "vector length does not match rank",
            ),
            (
                lambda: InvariantTuple((S(F3, "1", 4), S(F3, "1", 5))),
                "invariant entries disagree on field, var or precision",
            ),
            (
                lambda: InvariantTuple((S(F3, "1", 4),)).agrees_with(
                    InvariantTuple((S(F3, "1", 4),) * 2)
                ),
                "invariant ranks differ",
            ),
        ],
        ids=["matvec-length", "invariant-entries-disagree", "invariant-ranks-differ"],
    )
    def test_shape_guard(self, call, message: str) -> None:
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert str(exc.value) == message

    def test_size_mismatch_in_ops(self) -> None:
        a = SeriesMatrix.identity(F3, VAR_DISK, 2, 4)
        b = SeriesMatrix.identity(F3, VAR_DISK, 3, 4)
        with pytest.raises(DimensionMismatch):
            a @ b


class TestArithmetic:
    def test_matmul_pinned(self) -> None:
        a = M(F3, [["1", "z"], ["0", "1"]], 4)
        b = M(F3, [["1", "0"], ["z", "1"]], 4)
        ab = a @ b
        assert str(ab.entry(0, 0)) == "1 + z^2"
        assert str(ab.entry(0, 1)) == "z"
        assert str(ab.entry(1, 0)) == "z"
        assert str(ab.entry(1, 1)) == "1"

    def test_trace(self) -> None:
        a = M(F5, [["1", "2*z"], ["3", "4"]], 3)
        assert trace(a).is_zero()  # 1+4 = 0 mod 5

    def test_inverse_exact(self) -> None:
        g = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
        gi = g.inverse()
        assert (g @ gi).agrees_with(SeriesMatrix.identity(F5, VAR_DISK, 2, 6))
        assert (gi @ g).agrees_with(SeriesMatrix.identity(F5, VAR_DISK, 2, 6))

    def test_singular_rejected(self) -> None:
        g = M(F3, [["z", "0"], ["0", "1"]], 4)
        with pytest.raises(SingularGauge):
            g.inverse()

    def test_conjugate_by(self) -> None:
        g = M(F5, [["1", "z"], ["0", "1"]], 5)
        m = M(F5, [["2", "0"], ["0", "3"]], 5)
        c = m.conjugate_by(g)
        assert c.agrees_with(g.inverse() @ m @ g)

    def test_derivative_entrywise(self) -> None:
        a = M(F3, [["z^2", "1"], ["z", "2*z^2"]], 4)
        d = a.derivative()
        assert str(d.entry(0, 0)) == "2*z"
        assert d.precision == 3

    def test_scale(self) -> None:
        a = SeriesMatrix.identity(F5, VAR_DISK, 2, 3)
        s = TruncSeries.monomial(F5, VAR_DISK, 0, 3, 3)
        assert str(a.map_entries(lambda e: e * s).entry(0, 0)) == "3"

    def test_residue(self) -> None:
        a = M(F3, [["1 + z", "z"], ["2", "z^2"]], 4)
        r = residue(a)
        assert r == ((1, 0), (2, 0))


class TestKeptFacts:
    """The inverse and the invariants are computed once per matrix and kept."""

    def test_inverse_kept(self) -> None:
        g = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
        assert g.inverse() is g.inverse()
        assert g.inverse().inverse() is g

    def test_inverse_counts_one_elimination(self, monkeypatch) -> None:
        runs = []
        eliminate = SeriesMatrix._eliminate
        monkeypatch.setattr(SeriesMatrix, "_eliminate", lambda m: runs.append(m) or eliminate(m))
        g = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
        g.inverse().inverse().inverse()
        g.conjugate_by(g.inverse())
        assert runs == [g]

    def test_singular_raises_on_every_call(self) -> None:
        g = M(F3, [["z", "0"], ["0", "1"]], 4)
        for _ in range(3):
            with pytest.raises(SingularGauge):
                g.inverse()

    def test_no_reference_cycle(self) -> None:
        # the inverse holds its matrix weakly, so reference counting alone frees it
        gc.disable()
        try:
            g = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
            alive = weakref.ref(g)
            inv = g.inverse()
            del g
            assert alive() is None
            again = inv.inverse()
            assert again == M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
            assert inv.inverse() is again and again.inverse() is inv
        finally:
            gc.enable()

    def test_invariants_kept(self) -> None:
        m = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
        assert m.invariants is m.invariants
        assert m.invariants == char_invariants(M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6))

    def test_pickles_by_entries(self) -> None:
        # the value and pickle checks are tests/test_values.py's; an unpickled
        # matrix keeps its own inverse again, and is that inverse's inverse
        g = M(F5, [["1 + z", "z^2"], ["2", "3 + 4*z"]], 6)
        g.inverse()
        back = pickle.loads(pickle.dumps(g))
        assert back.inverse().inverse() is back


class TestDescentMaps:
    def test_descend_expand_roundtrip(self) -> None:
        m = M(F3, [["1 + z^3", "2*z^3"], ["0", "1"]], 6)
        d = m.descend_pth_power()
        assert d.var == "z'"
        assert d.precision == 2
        back = d.expand_pth_power()
        assert back.agrees_with(m.truncate(back.precision))

    def test_map_entries(self) -> None:
        m = M(F3, [["z"]], 4)
        doubled = m.map_entries(lambda s: s.scale(2))
        assert str(doubled.entry(0, 0)) == "2*z"


@given(
    a=matrix_strategy(F5, 2, 4),
    b=matrix_strategy(F5, 2, 4),
    c=matrix_strategy(F5, 2, 4),
)
@settings(max_examples=50, deadline=None)
def test_matrix_ring_laws(a, b, c) -> None:
    assert ((a @ b) @ c).agrees_with(a @ (b @ c))
    assert (a @ (b + c)).agrees_with(a @ b + a @ c)
    assert trace(a @ b).agrees_with(trace(b @ a))


@given(a=matrix_strategy(F5, 2, 4), b=matrix_strategy(F5, 2, 4))
@settings(max_examples=50, deadline=None)
def test_matrix_leibniz(a, b) -> None:
    lhs = (a @ b).derivative()
    rhs = a.derivative() @ b.truncate(3) + a.truncate(3) @ b.derivative()
    assert lhs.agrees_with(rhs)
