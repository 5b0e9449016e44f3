"""Shared builders for the test corpus.

Everything constructs exact objects from short literals so pinned values
stay readable at the call site.
"""

from __future__ import annotations

import pytest

from pdisk.field import FieldSpec
from pdisk.jsonio import parse_series
from pdisk.matrix import InvariantTuple, SeriesMatrix
from pdisk.series import TruncSeries


def S(field: FieldSpec, text: str, precision: int, var: str = "z") -> TruncSeries:
    """Series from grammar text, e.g. S(f3, '1 + 2*z^3', 7)."""
    return parse_series(field, text, var, precision, "test")


def sympy_poly(coeffs, p: int):
    """The polynomial with ascending coefficients over F_p, as a sympy oracle."""
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


def M(field: FieldSpec, rows, precision: int, var: str = "z") -> SeriesMatrix:
    """Matrix from a list of lists of grammar strings."""
    return SeriesMatrix.from_rows(
        [[S(field, cell, precision, var) for cell in row] for row in rows]
    )


def companion_layout(b: InvariantTuple) -> SeriesMatrix:
    """The companion matrix of q = det(t I - M) written out: ones below the
    diagonal and -q in the last column."""
    n, q = b.rank, b.char_poly()
    zero = TruncSeries.zero(b.field, b.var, b.precision)
    one = TruncSeries.one(b.field, b.var, b.precision)
    return SeriesMatrix.from_rows(
        [[-q[i] if j == n - 1 else one if i == j + 1 else zero for j in range(n)] for i in range(n)]
    )


@pytest.fixture
def f2() -> FieldSpec:
    return FieldSpec(2)


@pytest.fixture
def f3() -> FieldSpec:
    return FieldSpec(3)


@pytest.fixture
def f5() -> FieldSpec:
    return FieldSpec(5)


@pytest.fixture
def f4() -> FieldSpec:
    # F_4 = F_2[x]/(x^2+x+1)
    return FieldSpec(2, 2, (1, 1, 1))


@pytest.fixture
def f9() -> FieldSpec:
    # F_9 = F_3[x]/(x^2+1)
    return FieldSpec(3, 2, (1, 0, 1))
