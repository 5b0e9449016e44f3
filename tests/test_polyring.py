"""Polynomials over finite fields against sympy as an independent oracle."""

from __future__ import annotations

import pytest
import sympy

from pdisk import polyring
from pdisk.field import FieldSpec
from pdisk.rng import SplitMix64

from conftest import sympy_poly

def ascending(poly: sympy.Poly, p: int) -> list[int]:
    return polyring.trim([int(c) % p for c in reversed(poly.all_coeffs())])


def draw(rng: SplitMix64, p: int, n: int) -> list[int]:
    """A polynomial of degree n - 1 over F_p."""
    return [rng.below(p) for _ in range(n - 1)] + [1 + rng.below(p - 1)]


@pytest.mark.parametrize("p", [2, 5, 101])
def test_mul_matches_sympy(p: int) -> None:
    # lengths on both sides of the kernels' Kronecker crossover
    field, rng = FieldSpec(p), SplitMix64(p)
    for na, nb in [(1, 1), (1, 7), (3, 4), (6, 6), (9, 14), (30, 17)]:
        a, b = draw(rng, p, na), draw(rng, p, nb)
        want = ascending(sympy_poly(a, p) * sympy_poly(b, p), p)
        assert polyring.mul(field, a, b) == want
    assert polyring.mul(field, [], [1, 1]) == []
    assert polyring.mul(field, [0, 0], [1, 1]) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_degrees_matches_sympy(p: int) -> None:
    field, rng = FieldSpec(p), SplitMix64(10 + p)
    checked = 0
    while checked < 25:
        a = draw(rng, p, 2 + rng.below(8))
        poly = sympy_poly(a, p)
        if sympy.degree(sympy.gcd(poly, poly.diff())) > 0:
            continue  # factor_degrees assumes a squarefree input
        _, factors = poly.factor_list()
        want = sorted(f.degree() for f, e in factors for _ in range(e))
        assert polyring.factor_degrees(field, a) == want
        checked += 1
