"""Precision soundness: no stated coefficient depends on an unknown input one.

Every operation is run twice, once on inputs known to their precision and
once on the same inputs continued by random coefficients beyond it.  The
second run must know at least as much, and agree with the first wherever
the first states a coefficient.  Each test also checks the stated output
precision against the formula its docstring documents.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from pdisk.connection import Connection, pcurv
from pdisk.field import FieldSpec
from pdisk.hitchin import InvariantTuple, char_invariants
from pdisk.matrix import SeriesMatrix
from pdisk.series import TruncSeries, VAR_DISK, dot
from pdisk.spectral import SpectralRing, eval_at

FIELDS = [FieldSpec(3), FieldSpec(5), FieldSpec(3, 2, (1, 0, 1))]
fields = st.sampled_from(FIELDS)
precisions = st.integers(1, 8)
ranks = st.integers(1, 3)


@st.composite
def series_pair(draw, field: FieldSpec, precision: int, unit: bool = False, extra: int = 0):
    """A series known to ``precision`` and the same series known further.

    The continuation has ``extra`` coefficients, or 1 to 4 when it is 0.
    """
    element = st.integers(0, field.q - 1)
    head = draw(st.lists(element, min_size=precision, max_size=precision))
    if unit:
        head[0] = draw(st.integers(1, field.q - 1))
    extra = extra or draw(st.integers(1, 4))
    tail = draw(st.lists(element, min_size=extra, max_size=extra))
    return (
        TruncSeries(field, VAR_DISK, tuple(head)),
        TruncSeries(field, VAR_DISK, tuple(head + tail)),
    )


@st.composite
def matrix_pair(draw, field: FieldSpec, rank: int, precision: int):
    """A series matrix known to ``precision`` and the same matrix known further."""
    extra = draw(st.integers(1, 4))
    cells = [
        [draw(series_pair(field, precision, extra=extra)) for _ in range(rank)]
        for _ in range(rank)
    ]
    known = SeriesMatrix.from_rows([[c[0] for c in row] for row in cells])
    extended = SeriesMatrix.from_rows([[c[1] for c in row] for row in cells])
    return known, extended


def assert_sound(stated, extended) -> None:
    assert extended.precision >= stated.precision
    assert stated.agrees_with(extended)


# -- TruncSeries --------------------------------------------------------------


@given(data=st.data(), field=fields, na=precisions, nb=precisions)
@settings(max_examples=60, deadline=None)
def test_series_ring_operations(data, field: FieldSpec, na: int, nb: int) -> None:
    a, a_ext = data.draw(series_pair(field, na))
    b, b_ext = data.draw(series_pair(field, nb))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        out = op(a, b)
        assert out.precision == min(na, nb)
        assert_sound(out, op(a_ext, b_ext))


@given(data=st.data(), field=fields, n=precisions)
@settings(max_examples=60, deadline=None)
def test_series_unary_operations(data, field: FieldSpec, n: int) -> None:
    a, a_ext = data.draw(series_pair(field, n, unit=True))
    for op, want in (
        (TruncSeries.inverse, n),
        (TruncSeries.derivative, n - 1),
        (TruncSeries.pi_star, n),
    ):
        out = op(a)
        assert out.precision == want
        assert_sound(out, op(a_ext))


@given(
    data=st.data(),
    field=fields,
    ns=st.lists(st.tuples(precisions, precisions), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_dot(data, field: FieldSpec, ns: list[tuple[int, int]]) -> None:
    xs = [data.draw(series_pair(field, nx)) for nx, _ in ns]
    ys = [data.draw(series_pair(field, ny)) for _, ny in ns]
    out = dot([x for x, _ in xs], [y for y, _ in ys])
    assert out.precision == min(min(pair) for pair in ns)
    assert_sound(out, dot([x for _, x in xs], [y for _, y in ys]))


# -- spectral ring ------------------------------------------------------------


@given(data=st.data(), field=fields, n=ranks, nb=precisions, na=precisions, nc=precisions)
@settings(max_examples=40, deadline=None)
def test_spectral_element_operations(data, field: FieldSpec, n: int, nb: int, na: int, nc: int) -> None:
    extra = data.draw(st.integers(1, 4))
    b = [data.draw(series_pair(field, nb, extra=extra)) for _ in range(n)]
    ring = SpectralRing(InvariantTuple(tuple(e for e, _ in b)))
    ring_ext = SpectralRing(InvariantTuple(tuple(e for _, e in b)))
    a = [data.draw(series_pair(field, na)) for _ in range(n)]
    c = [data.draw(series_pair(field, nc)) for _ in range(n)]
    x, x_ext = ring.element([s for s, _ in a]), ring_ext.element([s for _, s in a])
    y, y_ext = ring.element([s for s, _ in c]), ring_ext.element([s for _, s in c])
    for op in (lambda u, v: u + v, lambda u, v: u * v):
        out = op(x, y)
        assert out.precision == min(na, nc, nb)
        assert_sound(out, op(x_ext, y_ext))


@given(
    data=st.data(),
    field=fields,
    ns=st.lists(precisions, min_size=1, max_size=4),
    nmu=precisions,
)
@settings(max_examples=60, deadline=None)
def test_eval_at(data, field: FieldSpec, ns: list[int], nmu: int) -> None:
    coeffs = [data.draw(series_pair(field, n)) for n in ns]
    mu, mu_ext = data.draw(series_pair(field, nmu))
    out = eval_at([c for c, _ in coeffs], mu)
    assert out.precision == min(ns + [nmu])
    assert_sound(out, eval_at([c for _, c in coeffs], mu_ext))


# -- matrices -----------------------------------------------------------------


@given(data=st.data(), field=fields, n=ranks, na=precisions, nb=precisions)
@settings(max_examples=40, deadline=None)
def test_matrix_product(data, field: FieldSpec, n: int, na: int, nb: int) -> None:
    a, a_ext = data.draw(matrix_pair(field, n, na))
    b, b_ext = data.draw(matrix_pair(field, n, nb))
    out = a @ b
    assert out.precision == min(na, nb)
    assert_sound(out, a_ext @ b_ext)


@given(data=st.data(), field=fields, n=ranks, extra=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_pcurv(data, field: FieldSpec, n: int, extra: int) -> None:
    p = field.p
    a, a_ext = data.draw(matrix_pair(field, n, p + extra))
    out = pcurv(Connection(a)).matrix
    assert out.precision == a.precision - p + 1
    assert_sound(out, pcurv(Connection(a_ext)).matrix)


@given(data=st.data(), field=fields, n=ranks, prec=precisions)
@settings(max_examples=40, deadline=None)
def test_char_invariants(data, field: FieldSpec, n: int, prec: int) -> None:
    m, m_ext = data.draw(matrix_pair(field, n, prec))
    out = char_invariants(m)
    assert out.precision == prec
    assert_sound(out, char_invariants(m_ext))
