"""Cartier descent: the operator, the additive curvature map, flat frames."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pdisk.cartier import cartier_op, flat_matrix_section, hp_map, kernel_unit, solve_hp
from pdisk.connection import Connection, FHiggs, dlog, gauge, pcurv
from pdisk.errors import NonzeroPCurvature, VarMismatch, ZeroPrecision
from pdisk.field import FieldSpec
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST

from conftest import M, S, apply

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2, (1, 0, 1))


def verify_flat_iff_curvature_zero(conn: Connection, psi: FHiggs) -> bool:
    """Cross-check helper: flat_matrix_section succeeds exactly when psi = 0."""
    try:
        flat_matrix_section(conn)
        return psi.matrix.is_zero()
    except NonzeroPCurvature:
        return not psi.matrix.is_zero()


def twist(field: FieldSpec, text: str, precision: int) -> TruncSeries:
    return S(field, text, precision, var="z'")


# ==========================================================================
# the operator itself
# ==========================================================================


class TestCartierOp:
    def test_exact_form_dies(self) -> None:
        # dz = d(z) has no z^{p-1} part for p > 1
        for field in (F2, F3, F5):
            out = cartier_op(S(field, "1", 9))
            assert out.is_zero()

    def test_logarithmic_generator(self) -> None:
        for field in (F2, F3, F5):
            p = field.p
            w = TruncSeries.monomial(field, VAR_DISK, p - 1, 3 * p)
            out = cartier_op(w)
            assert out.coeff(0) == 1
            assert all(out.coeff(j) == 0 for j in range(1, out.precision))

    def test_pinned_p3(self) -> None:
        # keeps exponents 2 and 5, relabelled to 0 and 1 on the twist
        out = cartier_op(S(F3, "1 + z^2 + z^5", 6))
        assert out == S(F3, "1 + z", 2, var="z'")

    def test_precision_contraction(self) -> None:
        # N = 6, p = 3 keeps exponents 2 and 5: two twist coefficients
        out = cartier_op(S(F3, "z^2", 6))
        assert out.precision == 2
        assert cartier_op(S(F3, "0", 2)).precision == 0

    def test_kills_derivatives(self) -> None:
        rng = SplitMix64(31)
        for field in (F2, F3, F5):
            for _ in range(20):
                f = rng.series(field, VAR_DISK, 4 * field.p)
                assert cartier_op(f.derivative()).is_zero()

    def test_semilinearity_over_the_twist(self) -> None:
        # C((F*t) w) = t C(w): Frobenius pullbacks of functions slide out
        rng = SplitMix64(32)
        for field in (F3, F9):
            for _ in range(20):
                t = rng.series(field, VAR_TWIST, 4)
                w = rng.series(field, VAR_DISK, 4 * field.p)
                lhs = cartier_op(t.expand_pth_power() * w)
                rhs = t * cartier_op(w)
                assert lhs.agrees_with(rhs)

    def test_additive(self) -> None:
        rng = SplitMix64(33)
        for _ in range(20):
            a = rng.series(F5, VAR_DISK, 17)
            b = rng.series(F5, VAR_DISK, 17)
            assert cartier_op(a + b).agrees_with(cartier_op(a) + cartier_op(b))


@pytest.mark.parametrize(
    ("consume", "var"),
    [
        pytest.param(cartier_op, VAR_TWIST, id="cartier_op"),
        pytest.param(lambda w: hp_map(1, w), VAR_TWIST, id="hp_map"),
        pytest.param(kernel_unit, VAR_TWIST, id="kernel_unit"),
        pytest.param(solve_hp, VAR_DISK, id="solve_hp"),
    ],
)
def test_wrong_chart_rejected(consume, var: str) -> None:
    # a one-form is its coefficient series, and each map checks its chart
    # when called instead of relabelling the other chart's coefficients
    with pytest.raises(VarMismatch, match="consumes a"):
        consume(TruncSeries(F3, var, (1, 2, 0, 1, 1, 2)))


# ==========================================================================
# hp_map = zeta^[p] pi* - zeta C
# ==========================================================================


class TestHpMap:
    def test_pinned_p2(self) -> None:
        # pi*(z dz) = z' dz', C(z dz) = dz'; the difference is (z' + 1) dz'
        out = hp_map(1, S(F2, "z", 5))
        assert out == S(F2, "1 + z", 2, var="z'")

    def test_dlog_lands_in_kernel(self) -> None:
        u = S(F2, "1 + z", 8)
        out = hp_map(1, dlog(u))
        assert out.is_zero()

    def test_zeta_zero_kills(self) -> None:
        out = hp_map(0, S(F5, "1 + z + z^4", 11))
        assert out.is_zero()

    def test_zeta_linear_over_prime_field(self) -> None:
        # Fermat makes zeta^[p] = zeta, so scaling commutes over F_p
        w = S(F3, "1 + z^2", 7)
        one = hp_map(1, w)
        two = hp_map(2, w)
        assert two.agrees_with(one.scale(2))

    def test_zeta_semilinear_over_extension(self) -> None:
        # x^[3] = -x in F_9 twists the pi* term against the C term
        x = 3
        w = S(F9, "1 + z^2", 7)
        got = hp_map(x, w)
        linear = hp_map(1, w).scale(x)
        assert not got.agrees_with(linear)
        # x^3 * 1 - x * 1 = -2x = x at the constant term
        assert got.coeff(0) == x

    def test_nonprime_zeta_over_f9(self) -> None:
        # x in F_9 satisfies x^2 = -1, so x^[3] = -x
        x = 3
        w = S(F9, "z^2", 7)
        out = hp_map(x, w)
        # x^3 pi*(z^2 dz) - x C(z^2 dz) = -x z'^... with pi* part zero here
        pi_part = w.pi_star().scale(F9.frobenius(x))
        c_part = cartier_op(w).scale(x)
        assert out.agrees_with(pi_part - c_part)
        assert out.coeff(0) == F9.neg(x)

    def test_rank_one_pcurv_descends_to_hp(self) -> None:
        # for d/dz + f the p-curvature is f^p + d^{p-1}f; its descent
        # along z = z'^{1/p} is exactly hp_map(1, f dz)
        rng = SplitMix64(34)
        for field in (F2, F3, F5, F9):
            p = field.p
            for _ in range(15):
                f = rng.series(field, VAR_DISK, 3 * p + 4)
                conn = Connection(SeriesMatrix.from_rows([[f]]))
                psi = pcurv(conn).matrix.entry(0, 0)
                assert psi.descend_pth_power().agrees_with(hp_map(1, f))


# ==========================================================================
# solve_hp: a deterministic section
# ==========================================================================


class TestSolveHp:
    def test_pinned_constant_target(self) -> None:
        out = solve_hp(twist(F2, "1", 8))
        assert str(out) == "z + z^3 + z^7 + z^15"
        assert out.precision == 16

    def test_pinned_linear_target(self) -> None:
        out = solve_hp(twist(F2, "z'", 8))
        assert str(out) == "z^3 + z^7 + z^15"

    def test_section_identity(self) -> None:
        rng = SplitMix64(35)
        for field in (F2, F3, F5, F9):
            for _ in range(25):
                eta = rng.series(field, VAR_TWIST, 6)
                omega = solve_hp(eta)
                back = hp_map(1, omega)
                assert back.precision == eta.precision
                assert back == eta

    def test_unconstrained_slots_zero(self) -> None:
        out = solve_hp(twist(F5, "2 + z'^2", 3))
        for m in range(out.precision):
            if m % 5 != 4:
                assert out.coeff(m) == 0

    def test_zero_precision_target_rejected(self) -> None:
        with pytest.raises(ZeroPrecision):
            solve_hp(TruncSeries(F3, VAR_TWIST, ()))

    def test_solutions_differ_by_dlog_unit(self) -> None:
        # modify a solution by dlog of a unit: still a solution, and the
        # kernel element is integrated back by kernel_unit
        rng = SplitMix64(36)
        for _ in range(10):
            eta = rng.series(F3, VAR_TWIST, 4)
            omega = solve_hp(eta)
            u = rng.unit_series(F3, VAR_DISK, omega.precision + 1)
            other = omega + dlog(u)
            assert hp_map(1, other).agrees_with(eta)
            diff = other - omega
            g = kernel_unit(diff)
            assert dlog(g).agrees_with(diff)


# ==========================================================================
# kernel_unit: constructive left exactness
# ==========================================================================


class TestKernelUnit:
    def test_logarithmic_differential(self) -> None:
        g = kernel_unit(dlog(S(F2, "1 + z", 6)))
        assert str(g) == "1 + z"

    def test_recovers_up_to_frobenius_pullback(self) -> None:
        # the integral of dlog u is pinned at 1 and fills free slots with
        # zero, so it matches u only up to a unit pulled back from the twist
        rng = SplitMix64(37)
        for field in (F2, F3, F5):
            for _ in range(20):
                u = rng.unit_series(field, VAR_DISK, 3 * field.p)
                g = kernel_unit(dlog(u))
                assert g.coeff(0) == 1
                assert dlog(g).agrees_with(dlog(u))
                ratio = u * g.inverse()
                assert dlog(ratio).is_zero()

    def test_obstruction_reported(self) -> None:
        with pytest.raises(NonzeroPCurvature) as exc:
            kernel_unit(S(F2, "z", 5))
        assert exc.value.order == 1
        assert exc.value.residual == 1

    def test_frobenius_pullbacks_are_the_kernel(self) -> None:
        # dlog g = 0 exactly when g expands a twist unit
        rng = SplitMix64(38)
        for field in (F2, F3, F9):
            for _ in range(15):
                t = rng.unit_series(field, VAR_TWIST, 4)
                g = t.expand_pth_power()
                assert dlog(g).is_zero()
                assert g.descend_pth_power() == t


# ==========================================================================
# flat sections of connections
# ==========================================================================


class TestFlatSections:
    def test_trivial_connection(self) -> None:
        conn = Connection(M(F3, [["0", "0"], ["0", "0"]], 6))
        h = flat_matrix_section(conn)
        assert h == SeriesMatrix.identity(F3, VAR_DISK, 2, 7)

    def test_pinned_obstruction(self) -> None:
        conn = Connection(M(F2, [["1"]], 5))
        with pytest.raises(NonzeroPCurvature) as exc:
            flat_matrix_section(conn)
        assert exc.value.order == 1
        assert exc.value.residual == 1

    def test_rank_one_flat_example(self) -> None:
        # coefficient is dlog(1 + z) mod 2; 1/(1 + z) spans the flat line,
        # and the zero-free-slot representative of that line is 1 + z
        conn = Connection(M(F2, [["1 + z + z^2 + z^3 + z^4 + z^5"]], 6))
        h = flat_matrix_section(conn)
        v = h.entry(0, 0)
        assert str(v) == "1 + z"
        (killed,) = apply(conn, [v.truncate(6)])
        assert killed.is_zero()
        span = S(F2, "1 + z", 7).inverse()
        assert dlog(v).agrees_with(dlog(span))

    def test_returned_frame_trivialises(self) -> None:
        rng = SplitMix64(39)
        hits = 0
        for field, n in ((F2, 1), (F2, 2), (F3, 2), (F5, 3)):
            for _ in range(12):
                g = rng.unit_matrix(field, VAR_DISK, n, 8)
                conn = gauge(g, Connection(SeriesMatrix.zero(field, VAR_DISK, n, 8)))
                h = flat_matrix_section(conn)
                back = gauge(h.inverse(), conn)
                assert back.matrix.is_zero()
                hits += 1
        assert hits == 48

    def test_columns_are_killed_by_the_connection(self) -> None:
        g = SplitMix64(40).unit_matrix(F3, VAR_DISK, 2, 9)
        conn = gauge(g, Connection(SeriesMatrix.zero(F3, VAR_DISK, 2, 9)))
        h = flat_matrix_section(conn)
        cols = [[h.entry(i, j) for i in range(2)] for j in range(2)]
        for col in cols:
            out = apply(conn, [v.truncate(9) for v in col])
            assert all(entry.is_zero() for entry in out)

    def test_flat_iff_zero_pcurv(self) -> None:
        rng = SplitMix64(42)
        for field in (F2, F3):
            for _ in range(15):
                a = rng.matrix(field, VAR_DISK, 2, field.p + 4)
                conn = Connection(a)
                assert verify_flat_iff_curvature_zero(conn, pcurv(conn))


# ==========================================================================
# the recursions against their scalar loops
# ==========================================================================


def scalar_kernel_unit(f: TruncSeries) -> TruncSeries:
    """kernel_unit with every coefficient product a field call."""
    field = f.field
    p = field.p
    n = f.precision
    g = [0] * (n + 1)
    g[0] = 1
    for m in range(n):
        acc = 0
        for i in range(m + 1):
            acc = field.add(acc, field.mul(f.coeffs[i], g[m - i]))
        if (m + 1) % p == 0:
            if acc != 0:
                raise NonzeroPCurvature(m, acc)
            g[m + 1] = 0
        else:
            g[m + 1] = field.mul(pow(m + 1, p - 2, p), acc)
    return TruncSeries(field, VAR_DISK, tuple(g))


def scalar_flat_matrix_section(conn: Connection) -> SeriesMatrix:
    """flat_matrix_section with every coefficient product a field call."""
    field = conn.field
    p = field.p
    n = conn.rank
    nprec = conn.precision
    a = [[conn.matrix.entry(i, j).coeffs for j in range(n)] for i in range(n)]
    h = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for m in range(nprec):
        resid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    for s in range(m + 1):
                        acc = field.add(acc, field.mul(a[i][t][s], h[m - s][t][j]))
                resid[i][j] = acc
        if (m + 1) % p == 0:
            if any(c != 0 for row in resid for c in row):
                raise NonzeroPCurvature(m, resid[0][0] if n == 1 else resid)
            h.append([[0] * n for _ in range(n)])
        else:
            inv = pow(m + 1, p - 2, p)
            h.append(
                [[field.mul(inv, field.neg(resid[i][j])) for j in range(n)] for i in range(n)]
            )
    return SeriesMatrix(
        tuple(
            tuple(
                TruncSeries(field, VAR_DISK, tuple(h[m][i][j] for m in range(nprec + 1)))
                for j in range(n)
            )
            for i in range(n)
        )
    )


def outcome(fn, *args):
    """The result, or the order and residual of the obstruction."""
    try:
        return fn(*args)
    except NonzeroPCurvature as exc:
        return ("obstructed", exc.order, exc.residual)


class TestAgainstScalarLoops:
    FIELDS = (F2, F3, F5, F9)

    def test_flat_sections_of_random_connections(self) -> None:
        # random connections are almost always obstructed; gauge transforms
        # of the trivial one never are
        rng = SplitMix64(43)
        obstructed = flat = 0
        for field in self.FIELDS:
            for n in (1, 2, 3):
                prec = 3 * field.p + 4
                zero = Connection(SeriesMatrix.zero(field, VAR_DISK, n, prec))
                for _ in range(3):
                    for conn in (
                        Connection(rng.matrix(field, VAR_DISK, n, prec)),
                        gauge(rng.unit_matrix(field, VAR_DISK, n, prec), zero),
                    ):
                        got = outcome(flat_matrix_section, conn)
                        assert got == outcome(scalar_flat_matrix_section, conn)
                        if isinstance(got, tuple):
                            obstructed += 1
                        else:
                            flat += 1
        assert obstructed >= 30 and flat >= 36

    def test_kernel_units(self) -> None:
        rng = SplitMix64(45)
        obstructed = 0
        for field in self.FIELDS:
            prec = 4 * field.p + 3
            for _ in range(8):
                u = rng.unit_series(field, VAR_DISK, prec + 1)
                for w in (dlog(u), rng.series(field, VAR_DISK, prec)):
                    got = outcome(kernel_unit, w)
                    assert got == outcome(scalar_kernel_unit, w)
                    obstructed += isinstance(got, tuple)
        assert obstructed >= 16


# ==========================================================================
# hypothesis sweeps
# ==========================================================================


coeff3 = st.lists(st.integers(0, 2), min_size=9, max_size=9)


@given(coeff3)
@settings(max_examples=40, deadline=None)
def test_cartier_pi_star_difference_is_hp(cs: list[int]) -> None:
    w = TruncSeries(F3, VAR_DISK, tuple(cs))
    got = hp_map(1, w)
    expect = w.pi_star() - cartier_op(w).truncate(cartier_op(w).precision)
    assert got == expect.truncate(got.precision)


@given(coeff3, coeff3)
@settings(max_examples=40, deadline=None)
def test_rank_one_additivity(cs: list[int], ds: list[int]) -> None:
    # abelian p-curvature: psi(d + f + g) = psi(d + f) + psi(d + g)
    f = TruncSeries(F3, VAR_DISK, tuple(cs))
    g = TruncSeries(F3, VAR_DISK, tuple(ds))
    one = pcurv(Connection(SeriesMatrix.from_rows([[f]]))).matrix.entry(0, 0)
    two = pcurv(Connection(SeriesMatrix.from_rows([[g]]))).matrix.entry(0, 0)
    both = pcurv(Connection(SeriesMatrix.from_rows([[f + g]]))).matrix.entry(0, 0)
    assert both == one + two
