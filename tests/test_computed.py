"""Computed results skip the constructor's check and still pass it.

``TruncSeries._computed`` and ``SeriesMatrix._computed`` build a result from
operands that were checked when they entered, without checking it again.
Every operation that builds through them runs here over F_2, F_5, F_4 and
F_9 on seeded operands, and each result must equal its rebuild through the
checked public constructor, with every coefficient stored as an int.  The
matrix product, inverse and invariants, and spectral products and inverses
through them, come from one kernel call on coefficient lists each.

The planted defects show the check can fail: a kernel that writes q, one
past the largest encoded element, into one slot of its output gives a
result that the rebuild refuses.
"""

from __future__ import annotations

import pytest

from pdisk import _kernels_py
from pdisk.cartier import cartier_op, flat_matrix_section
from pdisk.connection import Connection, gauge
from pdisk.errors import DerivationUnavailable, DimensionMismatch, VarMismatch, ZeroPrecision
from pdisk.field import FieldSpec
from pdisk.harmonic import pcurv_in_ring
from pdisk.matrix import InvariantTuple, SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK as Z, VAR_TWIST as TW, dot
from pdisk.spectral import SpectralElement, SpectralRing

FIELDS = {
    "F2": FieldSpec(2),
    "F5": FieldSpec(5),
    "F4": FieldSpec(2, 2, (1, 1, 1)),
    "F9": FieldSpec(3, 2, (1, 0, 1)),
}
# below and above the packed-product threshold, and one-byte and wider slots over F_5
PRECISIONS = [4, 12, 40]


def _descended(r: SplitMix64, f: FieldSpec, n: int) -> TruncSeries:
    # a p-th power series whose last known coefficient sits off the p-multiples
    return r.series(f, TW, n).expand_pth_power().truncate(n * f.p - 1).descend_pth_power()


def _flat_frame(r: SplitMix64, f: FieldSpec, n: int) -> SeriesMatrix:
    # a gauge transform of the trivial connection has zero p-curvature
    g = r.unit_matrix(f, Z, 2, n)
    return flat_matrix_section(gauge(g, Connection(SeriesMatrix.zero(f, Z, 2, n))))


def _spectral_ring(r: SplitMix64, f: FieldSpec, n: int) -> SpectralRing:
    return SpectralRing(InvariantTuple(tuple(r.series(f, Z, n) for _ in range(3))))


def _spectral_element(r: SplitMix64, f: FieldSpec, n: int, ring: SpectralRing) -> SpectralElement:
    return ring.element([r.series(f, Z, n) for _ in range(ring.rank)])


def _spectral_product(r: SplitMix64, f: FieldSpec, n: int) -> SpectralElement:
    ring = _spectral_ring(r, f, n)
    return _spectral_element(r, f, n, ring) * _spectral_element(r, f, n, ring)


def _spectral_inverse(r: SplitMix64, f: FieldSpec, n: int) -> SpectralElement:
    ring = _spectral_ring(r, f, n)
    while True:
        x = _spectral_element(r, f, n, ring)
        if x.is_unit():
            return x.inverse()


def _descended_matrix(r: SplitMix64, f: FieldSpec, n: int) -> SeriesMatrix:
    return r.matrix(f, TW, 2, n).expand_pth_power().truncate(n * f.p - 1).descend_pth_power()


def _theta_curvature(r: SplitMix64, f: FieldSpec, n: int) -> SpectralElement:
    # a rank-2 ring with a derivation, at a precision the p - 1 steps leave nonzero
    while True:
        ring = SpectralRing(InvariantTuple(tuple(r.series(f, Z, n + f.p) for _ in range(2))))
        try:
            ring.derivation()
        except DerivationUnavailable:
            continue
        return pcurv_in_ring(ring.element([r.series(f, Z, n + f.p) for _ in range(2)]))


OPERATIONS = {
    "add": lambda r, f, n: r.series(f, Z, n) + r.series(f, Z, n + 1),
    "sub": lambda r, f, n: r.series(f, Z, n + 1) - r.series(f, Z, n),
    "neg": lambda r, f, n: -r.series(f, Z, n),
    "mul": lambda r, f, n: r.series(f, Z, n) * r.series(f, Z, n),
    "scale": lambda r, f, n: r.series(f, Z, n).scale(r.below(f.q)),
    "scale_int": lambda r, f, n: r.series(f, Z, n).scale_int(r.below(1000) - 500),
    "inverse": lambda r, f, n: r.unit_series(f, Z, n).inverse(),
    "derivative": lambda r, f, n: r.series(f, Z, n).derivative(),
    "truncate": lambda r, f, n: r.series(f, Z, n).truncate(n // 2),
    "descend_pth_power": _descended,
    "expand_pth_power": lambda r, f, n: r.series(f, TW, n).expand_pth_power(),
    "pi_star": lambda r, f, n: r.series(f, Z, n).pi_star(),
    "dot": lambda r, f, n: dot(
        [r.series(f, Z, n) for _ in range(3)], [r.series(f, Z, n) for _ in range(3)]
    ),
    "cartier_op": lambda r, f, n: cartier_op(r.series(f, Z, n)),
    "flat_matrix_section": _flat_frame,
    "matrix-add": lambda r, f, n: r.matrix(f, Z, 2, n) + r.matrix(f, Z, 2, n),
    "matrix-sub": lambda r, f, n: r.matrix(f, Z, 2, n) - r.matrix(f, Z, 2, n),
    "matmul": lambda r, f, n: r.matrix(f, Z, 2, n) @ r.matrix(f, Z, 2, n),
    "matvec": lambda r, f, n: r.matrix(f, Z, 3, n).matvec([r.series(f, Z, n) for _ in range(3)]),
    # a fresh matrix has kept no inverse, so this runs _eliminate
    "eliminate": lambda r, f, n: r.unit_matrix(f, Z, 3, n).inverse(),
    "invariants": lambda r, f, n: r.matrix(f, Z, 3, n).invariants,
    "matrix-truncate": lambda r, f, n: r.matrix(f, Z, 2, n).truncate(n // 2),
    "matrix-derivative": lambda r, f, n: r.matrix(f, Z, 2, n).derivative(),
    "matrix-descend_pth_power": _descended_matrix,
    "matrix-expand_pth_power": lambda r, f, n: r.matrix(f, TW, 2, n).expand_pth_power(),
    "rep": lambda r, f, n: _spectral_element(r, f, n, _spectral_ring(r, f, n)).rep,
    "spectral-product": _spectral_product,
    "spectral-inverse": _spectral_inverse,
    "zero": lambda r, f, n: TruncSeries.zero(f, TW, n),
    "one": lambda r, f, n: TruncSeries.one(f, Z, n),
    "diagonal": lambda r, f, n: SeriesMatrix.diagonal([r.series(f, Z, n) for _ in range(3)]),
    "identity": lambda r, f, n: SeriesMatrix.identity(f, TW, 2, n),
    "pcurv": lambda r, f, n: Connection(r.matrix(f, Z, 2, n + f.p)).p_curvature.matrix,
    "pcurv_in_ring": _theta_curvature,
}


def rebuilt(s: TruncSeries) -> TruncSeries:
    assert type(s.coeffs) is tuple
    assert all(type(c) is int for c in s.coeffs)
    return TruncSeries(s.field, s.var, s.coeffs)


def assert_rebuilds(result) -> None:
    """The result equals its rebuild through the checked constructor, which refuses bad data.

    A result is a series, a matrix, a spectral element, invariants or a tuple of series.
    """
    if isinstance(result, SeriesMatrix):
        assert result == SeriesMatrix(tuple(tuple(map(rebuilt, row)) for row in result.entries))
    elif isinstance(result, SpectralElement):
        assert result.coeffs == tuple(map(rebuilt, result.coeffs))
    elif isinstance(result, InvariantTuple):
        assert result == InvariantTuple(tuple(map(rebuilt, result.entries)))
    elif isinstance(result, tuple):
        assert result == tuple(map(rebuilt, result))
    else:
        assert result == rebuilt(result)


@pytest.mark.parametrize("n", PRECISIONS)
@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("op", OPERATIONS.values(), ids=OPERATIONS.keys())
def test_computed_result_passes_the_check(op, field: FieldSpec, n: int) -> None:
    rng = SplitMix64(1000 * field.q + n)
    for _ in range(3):
        assert_rebuilds(op(rng, field, n))


# -- planted defects: a kernel writes q into one slot of its output ------------


def _writes_q(kernel):
    """The kernel, with q written into the middle of its first coefficient list.

    A kernel returns one coefficient list, a list of them (the invariants)
    or rows of them (matrices).
    """

    def planted(*args):
        out = kernel(*args)
        p, k = args[-3], args[-2]
        entry = out
        while isinstance(entry[0], list):
            entry = entry[0]
        entry[len(entry) // 2] = p**k
        return out

    return planted


# each kernel, with the operations above that build their result from it
PLANTED = {
    "series_add": ["add", "matrix-add"],
    "series_sub": ["sub", "matrix-sub"],
    "series_neg": ["neg"],
    "series_sum_mul": ["mul", "dot"],
    "series_inv": ["inverse"],
    "series_derivative": ["derivative"],
    "series_pcurv": ["pcurv", "pcurv_in_ring"],
    "series_matmul": ["matmul", "matvec", "spectral-product"],
    "series_matinv": ["eliminate", "spectral-inverse"],
    "series_charpoly": ["invariants"],
}


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("kernel, ops", PLANTED.items(), ids=PLANTED.keys())
def test_planted_kernel_defect_is_refused(monkeypatch, kernel: str, ops, field: FieldSpec) -> None:
    monkeypatch.setattr(_kernels_py, kernel, _writes_q(getattr(_kernels_py, kernel)))
    for name in ops:
        result = OPERATIONS[name](SplitMix64(field.q), field, 12)
        with pytest.raises(ValueError, match="is not an encoded element"):
            assert_rebuilds(result)


# -- the refusals of constants and diagonal matrices, built without a second check --


@pytest.mark.parametrize("build", [TruncSeries.zero, TruncSeries.one], ids=["zero", "one"])
def test_constant_refusals(build) -> None:
    f = FIELDS["F5"]
    with pytest.raises(ZeroPrecision, match="^negative precision -1$"):
        build(f, Z, -1)
    with pytest.raises(VarMismatch, match="^unknown variable 'w'$"):
        build(f, "w", 3)
    # a negative precision is reported before an unknown variable, as make did
    with pytest.raises(ZeroPrecision):
        build(f, "w", -1)
    assert build(f, Z, 0).coeffs == ()


def test_constants_equal_their_checked_builds() -> None:
    for f in FIELDS.values():
        for var in (Z, TW):
            for n in range(5):
                assert TruncSeries.zero(f, var, n) == TruncSeries.make(f, var, (), n)
                assert TruncSeries.one(f, var, n) == TruncSeries.make(f, var, (1,)[:n], n)
                assert TruncSeries.one(f, var, n) == TruncSeries.constant(f, var, 1, n)


def test_diagonal_refusals() -> None:
    f5, f9 = FIELDS["F5"], FIELDS["F9"]
    s = TruncSeries.one(f5, Z, 4)
    with pytest.raises(DimensionMismatch, match="^rank must be at least 1$"):
        SeriesMatrix.diagonal([])
    with pytest.raises(DimensionMismatch, match="^rank must be at least 1$"):
        SeriesMatrix.identity(f5, Z, 0, 4)
    for other in (TruncSeries.one(f9, Z, 4), TruncSeries.one(f5, TW, 4)):
        with pytest.raises(DimensionMismatch, match="^entries disagree on field or variable$"):
            SeriesMatrix.diagonal([s, s, other])
    with pytest.raises(DimensionMismatch, match="^entries disagree on precision$"):
        SeriesMatrix.diagonal([s, TruncSeries.one(f5, Z, 3)])
    # the first offender decides, field or variable before precision
    with pytest.raises(DimensionMismatch, match="precision"):
        SeriesMatrix.diagonal([s, TruncSeries.one(f5, Z, 3), TruncSeries.one(f9, Z, 4)])
    with pytest.raises(DimensionMismatch, match="field or variable"):
        SeriesMatrix.diagonal([s, TruncSeries.one(f9, Z, 3)])
    # and the refusals are those of the checked constructor
    for diag in ([s, TruncSeries.one(f9, Z, 4)], [s, TruncSeries.one(f5, Z, 3)]):
        rows = [[d if i == j else TruncSeries.zero(f5, Z, 4) for j in range(2)] for i, d in enumerate(diag)]
        with pytest.raises(DimensionMismatch) as checked:
            SeriesMatrix.from_rows(rows)
        with pytest.raises(DimensionMismatch) as built:
            SeriesMatrix.diagonal(diag)
        assert str(built.value) == str(checked.value)
