"""Truncated series: precision laws, exact arithmetic, the three descent maps."""

from __future__ import annotations

from functools import reduce
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from pdisk.errors import (
    FieldMismatch,
    NonUnitConstantTerm,
    NotAPthPower,
    VarMismatch,
    ZeroPrecision,
)
from pdisk.field import FieldSpec
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST, dot

from conftest import S

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2, (1, 0, 1))


def series_strategy(field: FieldSpec, precision: int):
    return st.lists(
        st.integers(0, field.q - 1), min_size=precision, max_size=precision
    ).map(lambda cs: TruncSeries.make(field, VAR_DISK, cs))


# ==========================================================================
# construction and precision bookkeeping
# ==========================================================================


class TestConstruction:
    def test_make_pads_to_precision(self) -> None:
        s = TruncSeries.make(F3, VAR_DISK, [1, 2], 5)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert s.precision == 5

    def test_make_validates_encoding(self) -> None:
        # coefficients must arrive already encoded; reduction is the parser's job
        with pytest.raises(ValueError):
            TruncSeries.make(F3, VAR_DISK, [4])
        with pytest.raises(ValueError):
            TruncSeries.make(F3, VAR_DISK, [-1])

    def test_negative_precision_refused(self) -> None:
        builders = [
            lambda: TruncSeries.zero(F3, VAR_DISK, -2),
            lambda: TruncSeries.one(F3, VAR_DISK, -2),
            lambda: TruncSeries.constant(F9, VAR_TWIST, 5, -2),
            lambda: TruncSeries.make(F3, VAR_DISK, [], -2),
            lambda: TruncSeries.make(F3, VAR_DISK, [1, 2], -2),
        ]
        for build in builders:
            with pytest.raises(ZeroPrecision, match="negative precision -2"):
                build()

    def test_truncate_only_lowers(self) -> None:
        s = TruncSeries.make(F3, VAR_DISK, [1, 2, 1])
        assert s.truncate(2).coeffs == (1, 2)
        with pytest.raises(ZeroPrecision):
            s.truncate(4)

    def test_zero_precision_states(self) -> None:
        empty = TruncSeries.make(F3, VAR_DISK, [])
        assert empty.precision == 0
        with pytest.raises(ZeroPrecision):
            empty.inverse()
        with pytest.raises(ZeroPrecision):
            empty.derivative()
        with pytest.raises(ZeroPrecision):
            empty.descend_pth_power()

    def test_constants_at_precision_zero(self) -> None:
        for s in (TruncSeries.one(F9, VAR_DISK, 0), TruncSeries.constant(F9, VAR_TWIST, 5, 0)):
            assert s.precision == 0 and s.coeffs == ()
        assert TruncSeries.constant(F9, VAR_DISK, 5, 2).coeffs == (5, 0)

    def test_coeff_reads(self) -> None:
        s = S(F3, "1 + 2*z^2", 4)
        assert [s.coeff(m) for m in range(4)] == [1, 0, 2, 0]

    def test_var_mismatch(self) -> None:
        a = TruncSeries.one(F3, VAR_DISK, 3)
        b = TruncSeries.one(F3, VAR_TWIST, 3)
        with pytest.raises(VarMismatch):
            a + b

    def test_field_mismatch(self) -> None:
        a = TruncSeries.one(F3, VAR_DISK, 3)
        b = TruncSeries.one(F5, VAR_DISK, 3)
        with pytest.raises(FieldMismatch):
            a * b


# ==========================================================================
# refusal parity: construction refuses exactly what FieldSpec.validate refuses
# ==========================================================================


def validate_message(field: FieldSpec, a: object) -> str:
    with pytest.raises(ValueError) as info:
        field.validate(a)
    return str(info.value)


BAD_COEFFS = {
    "negative": lambda f: -1,
    "q": lambda f: f.q,
    "str": lambda f: "1",
    "float": lambda f: 1.0,
    "none": lambda f: None,
}


@pytest.mark.parametrize("field", [F5, F9], ids=["q5", "q9"])
class TestRefusalParity:
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", list(BAD_COEFFS))
    def test_bad_coefficient_message(self, field: FieldSpec, position: int, kind: str) -> None:
        bad = BAD_COEFFS[kind](field)
        cs = [1, 0, 2, 3, 4]
        cs[position] = bad
        with pytest.raises(ValueError) as info:
            TruncSeries(field, VAR_DISK, tuple(cs))
        assert str(info.value) == validate_message(field, bad)

    def test_first_offender_reported(self, field: FieldSpec) -> None:
        cs = (1, "x", 0, -1, field.q, None)
        with pytest.raises(ValueError) as info:
            TruncSeries(field, VAR_DISK, cs)
        assert str(info.value) == validate_message(field, "x")
        with pytest.raises(ValueError) as info:
            TruncSeries(field, VAR_DISK, (0, field.q + 7, -2))
        assert str(info.value) == validate_message(field, field.q + 7)

    def test_bools_accepted(self, field: FieldSpec) -> None:
        s = TruncSeries(field, VAR_DISK, (True, False, 1))
        assert s.coeffs == (1, 0, 1)

    def test_list_stored_as_tuple(self, field: FieldSpec) -> None:
        s = TruncSeries(field, VAR_TWIST, [field.q - 1, 0])
        assert isinstance(s.coeffs, tuple) and s.coeffs == (field.q - 1, 0)

    def test_precision_zero_constructs(self, field: FieldSpec) -> None:
        assert TruncSeries(field, VAR_DISK, ()).precision == 0
        assert TruncSeries(field, VAR_DISK, []).coeffs == ()


SERIES_GUARDS = {
    "unknown-var": (lambda: TruncSeries(F3, "w", (1,)), VarMismatch, "unknown variable 'w'"),
    "make-beyond-precision": (
        lambda: TruncSeries.make(F3, VAR_DISK, [1, 2, 0], 2),
        ZeroPrecision,
        "more coefficients than the stated precision",
    ),
    "descend-twist": (
        lambda: S(F3, "1", 3, var="z'").descend_pth_power(),
        VarMismatch,
        "descend consumes a z-series",
    ),
    "expand-disk": (
        lambda: S(F3, "1", 3).expand_pth_power(),
        VarMismatch,
        "expand consumes a z'-series",
    ),
    "pi-star-twist": (
        lambda: S(F3, "1", 3, var="z'").pi_star(),
        VarMismatch,
        "pi_star consumes a z-series",
    ),
}


@pytest.mark.parametrize("call, error, message", SERIES_GUARDS.values(), ids=SERIES_GUARDS.keys())
def test_guard(call, error: type, message: str) -> None:
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def _validates(field: FieldSpec, a: object) -> bool:
    try:
        field.validate(a)
    except ValueError:
        return False
    return True


@given(
    field=st.sampled_from([F5, F9]),
    cs=st.lists(
        st.one_of(
            st.integers(-3, 12),
            st.booleans(),
            st.floats(allow_nan=False),
            st.text(max_size=2),
            st.none(),
        ),
        max_size=8,
    ),
)
@settings(max_examples=200, deadline=None)
def test_construction_refuses_exactly_what_validate_refuses(field: FieldSpec, cs: list) -> None:
    offenders = [c for c in cs if not _validates(field, c)]
    if not offenders:
        assert TruncSeries(field, VAR_DISK, cs).coeffs == tuple(cs)
    else:
        with pytest.raises(ValueError) as info:
            TruncSeries(field, VAR_DISK, cs)
        assert str(info.value) == validate_message(field, offenders[0])


# ==========================================================================
# precision laws (pinned)
# ==========================================================================


class TestPrecisionLaws:
    def test_add_mul_take_min(self) -> None:
        a = TruncSeries.one(F3, VAR_DISK, 7)
        b = TruncSeries.one(F3, VAR_DISK, 4)
        assert (a + b).precision == 4
        assert (a * b).precision == 4

    def test_inverse_keeps_precision(self) -> None:
        u = S(F3, "1 + z", 6)
        assert u.inverse().precision == 6

    def test_derivative_drops_one(self) -> None:
        s = TruncSeries.one(F3, VAR_DISK, 6)
        assert s.derivative().precision == 5

    def test_descend_ceil(self) -> None:
        # p=3, N=7 keeps exponents 0,3,6: three coefficients
        s = S(F3, "1 + 2*z^3 + z^6", 7)
        d = s.descend_pth_power()
        assert d.precision == 3
        assert d.var == VAR_TWIST

    def test_expand_multiplies(self) -> None:
        s = TruncSeries.make(F3, VAR_TWIST, [1, 2], 2)
        e = s.expand_pth_power()
        assert e.precision == 6
        assert e.var == VAR_DISK

    def test_pi_star_keeps_precision(self) -> None:
        s = S(F3, "1 + z", 5)
        t = s.pi_star()
        assert t.precision == 5
        assert t.var == VAR_TWIST


# ==========================================================================
# arithmetic
# ==========================================================================


class TestArithmetic:
    def test_geometric_inverse(self) -> None:
        u = S(F2, "1 + z", 8)
        assert str(u.inverse()) == "1 + z + z^2 + z^3 + z^4 + z^5 + z^6 + z^7"

    def test_inverse_exact(self) -> None:
        u = S(F5, "2 + 3*z + z^2 + 4*z^4", 9)
        prod = u * u.inverse()
        assert prod.agrees_with(TruncSeries.one(F5, VAR_DISK, 9))

    def test_inverse_needs_unit(self) -> None:
        with pytest.raises(NonUnitConstantTerm):
            S(F3, "z", 4).inverse()

    def test_derivative_pinned(self) -> None:
        s = S(F5, "1 + z + 3*z^2 + z^4", 5)
        assert str(s.derivative()) == "1 + z + 4*z^3"

    def test_derivative_kills_pth_powers(self) -> None:
        s = S(F3, "1 + z^3 + 2*z^6", 8)
        assert s.derivative().is_zero()

    def test_pow_binary(self) -> None:
        u = S(F3, "1 + z", 9)
        assert (u**4).agrees_with(u * u * u * u)
        assert (u**0).agrees_with(TruncSeries.one(F3, VAR_DISK, 9))
        with pytest.raises(ValueError):
            u**-1

    def test_freshman_dream(self) -> None:
        a = S(F3, "1 + 2*z + z^2", 9)
        b = S(F3, "2 + z^3", 9)
        assert ((a + b) ** 3).agrees_with(a**3 + b**3)

    def test_scale(self) -> None:
        s = S(F5, "1 + z", 4)
        assert str(s.scale(3)) == "3 + 3*z"
        assert s.scale_int(7).agrees_with(s.scale(2))


# ==========================================================================
# descent maps
# ==========================================================================


class TestDescent:
    def test_descend_pinned(self) -> None:
        s = S(F3, "1 + 2*z^3 + z^6", 7)
        assert str(s.descend_pth_power()) == "1 + 2*z + z^2"

    def test_descend_fixes_coefficients(self) -> None:
        # the base pullback leaves constants alone, so its inverse does too
        x = F9.encode([0, 1])
        s = TruncSeries.make(F9, VAR_DISK, [x], 3)
        d = s.descend_pth_power()
        assert d.coeffs[0] == x

    def test_descend_rejects_stray_exponent(self) -> None:
        with pytest.raises(NotAPthPower) as exc:
            S(F3, "1 + z", 4).descend_pth_power()
        assert exc.value.details["exponent"] == 1

    def test_expand_then_descend(self) -> None:
        s = TruncSeries.make(F5, VAR_TWIST, [2, 1, 0, 3], 4)
        assert s.expand_pth_power().descend_pth_power().agrees_with(s)

    def test_descend_then_expand(self) -> None:
        s = S(F2, "1 + z^2 + z^6", 8)
        back = s.descend_pth_power().expand_pth_power()
        assert back.agrees_with(s.truncate(back.precision))

    def test_expand_fixes_coefficients(self) -> None:
        # expand substitutes z^p for z' and does not touch constants
        x = F9.encode([0, 1])
        s = TruncSeries.make(F9, VAR_TWIST, [x], 2)
        e = s.expand_pth_power()
        assert e.coeffs[0] == x
        assert all(c == 0 for c in e.coeffs[1:])

    def test_pi_star_pinned(self) -> None:
        # z maps to z' and coefficients go to p-th powers
        s = S(F2, "1 + z", 4)
        assert str(s.pi_star()) == "1 + z"
        assert s.pi_star().var == VAR_TWIST

    def test_pi_star_frobenius_coefficients(self) -> None:
        x = F9.encode([0, 1])
        s = TruncSeries.make(F9, VAR_DISK, [x, 1], 3)
        t = s.pi_star()
        assert t.coeffs[0] == F9.pow(x, 3)
        assert t.coeffs[1] == 1


# ==========================================================================
# property tests
# ==========================================================================


@given(a=series_strategy(F5, 6), b=series_strategy(F5, 6), c=series_strategy(F5, 6))
@settings(max_examples=80, deadline=None)
def test_ring_laws(a: TruncSeries, b: TruncSeries, c: TruncSeries) -> None:
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert (a - a).is_zero()


@given(a=series_strategy(F5, 6), b=series_strategy(F5, 6))
@settings(max_examples=60, deadline=None)
def test_leibniz(a: TruncSeries, b: TruncSeries) -> None:
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(5) + a.truncate(5) * b.derivative()
    assert lhs.agrees_with(rhs)


@given(cs=st.lists(st.integers(1, 4), min_size=1, max_size=1), rest=st.lists(st.integers(0, 4), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_inverse_involution(cs: list[int], rest: list[int]) -> None:
    u = TruncSeries.make(F5, VAR_DISK, cs + rest)
    assert u.inverse().inverse().agrees_with(u)


@given(a=series_strategy(F3, 5))
@settings(max_examples=40, deadline=None)
def test_pth_power_descends(a: TruncSeries) -> None:
    cube = a**3
    d = cube.descend_pth_power()
    assert d.precision == (cube.precision + 2) // 3


# ==========================================================================
# one sum of products, one subtraction, no copy at the same precision
# ==========================================================================


def term_by_term(xs: list[TruncSeries], ys: list[TruncSeries]) -> TruncSeries:
    """The sum of products as series arithmetic takes it, one product and one sum at a time."""
    return reduce(add, map(mul, xs, ys))


@st.composite
def dot_operands(draw, field: FieldSpec):
    terms = draw(st.integers(1, 4))
    short = draw(st.integers(0, 1))

    def series():
        n = draw(st.integers(0, 14))
        cs = draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n))
        return TruncSeries(field, VAR_DISK, tuple(cs))

    # the pairing stops at the shorter input, as zip does
    return [series() for _ in range(terms + short)], [series() for _ in range(terms)]


@pytest.mark.parametrize("field", [F5, F9], ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dot_is_the_sum_of_products(field: FieldSpec, data) -> None:
    xs, ys = data.draw(dot_operands(field))
    got, want = dot(xs, ys), term_by_term(xs, ys)
    assert got.coeffs == want.coeffs
    assert got.precision == want.precision
    assert (got.field, got.var) == (want.field, want.var)


def raised(fn, *args) -> tuple[type, str]:
    with pytest.raises((FieldMismatch, VarMismatch)) as info:
        fn(*args)
    return type(info.value), str(info.value)


STRANGERS = {"field": TruncSeries.one(F3, VAR_DISK, 5), "var": TruncSeries.one(F5, VAR_TWIST, 5)}


@pytest.mark.parametrize("stranger", STRANGERS.values(), ids=STRANGERS.keys())
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("side", ["x", "y", "both"])
def test_dot_refuses_mixed_operands_as_the_sum_does(
    stranger: TruncSeries, position: int, side: str
) -> None:
    xs = [S(F5, "1 + z", 5), S(F5, "2 + z^2", 5), S(F5, "3*z", 5)]
    ys = [S(F5, "4", 5), S(F5, "z + z^3", 5), S(F5, "1 + 2*z", 5)]
    if side in ("x", "both"):
        xs[position] = stranger
    if side in ("y", "both"):
        ys[position] = stranger
    assert raised(dot, xs, ys) == raised(term_by_term, xs, ys)


def test_dot_of_nothing_is_refused() -> None:
    with pytest.raises(TypeError):
        dot([], [])


@pytest.mark.parametrize("field", [F5, F9], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sub_is_add_of_neg(field: FieldSpec, data) -> None:
    a = data.draw(series_strategy(field, data.draw(st.integers(0, 12))))
    b = data.draw(series_strategy(field, data.draw(st.integers(0, 12))))
    diff = a - b
    assert diff.coeffs == (a + (-b)).coeffs
    assert diff.precision == min(a.precision, b.precision)


def test_sub_refuses_mixed_operands() -> None:
    a = TruncSeries.one(F5, VAR_DISK, 3)
    with pytest.raises(FieldMismatch):
        a - TruncSeries.one(F3, VAR_DISK, 3)
    with pytest.raises(VarMismatch):
        a - TruncSeries.one(F5, VAR_TWIST, 3)


@pytest.mark.parametrize("field", [F5, F9], ids=str)
def test_truncate_to_own_precision_is_the_series(field: FieldSpec) -> None:
    a = TruncSeries.make(field, VAR_DISK, [1, 2, 0, 3], 6)
    assert a.truncate(a.precision) is a
    assert a.truncate(3).coeffs == a.coeffs[:3]
