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


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_gcd_matches_sympy(p: int) -> None:
    field, rng = FieldSpec(p), SplitMix64(20 + p)
    cases = [([], []), ([], draw(rng, p, 3)), (draw(rng, p, 4), [])]
    for na, nb, nc in [(1, 1, 1), (2, 5, 1), (4, 4, 2), (6, 3, 3), (8, 7, 4)]:
        common = draw(rng, p, nc)
        cases.append(
            (polyring.mul(field, draw(rng, p, na), common), polyring.mul(field, draw(rng, p, nb), common))
        )
    for a, b in cases:
        want = ascending(sympy.gcd(sympy_poly(a, p), sympy_poly(b, p)), p)
        assert polyring.gcd(field, a, b) == want
        assert polyring.gcd(field, b, a) == want


@pytest.mark.parametrize("field", [FieldSpec(2, 2, (1, 1, 1)), FieldSpec(3, 2, (1, 0, 1))], ids=["F4", "F9"])
def test_extgcd_bezout(field: FieldSpec) -> None:
    rng = SplitMix64(field.q)

    def poly(n: int) -> list[int]:
        return [rng.below(field.q) for _ in range(n - 1)] + [1 + rng.below(field.q - 1)]

    for na, nb, nc in [(1, 1, 1), (3, 2, 1), (4, 4, 2), (2, 6, 3), (5, 5, 4)]:
        common = poly(nc)
        a, b = polyring.mul(field, poly(na), common), polyring.mul(field, poly(nb), common)
        g, s, t = polyring.extgcd(field, a, b)
        assert g[-1] == 1
        assert polyring.add(field, polyring.mul(field, s, a), polyring.mul(field, t, b)) == g
        assert polyring.mod(field, a, g) == [] and polyring.mod(field, b, g) == []
        assert polyring.degree(g) >= polyring.degree(common)
        assert polyring.gcd(field, a, b) == g
