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
    # products of 1 to 46 coefficients: short ones, as on the verify grid, and long ones
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


F4 = FieldSpec(2, 2, (1, 1, 1))
F9 = FieldSpec(3, 2, (1, 0, 1))
F101_8 = FieldSpec(101, 8, (2, 0, 0, 0, 0, 0, 0, 0, 1))  # x^8 + 2


@pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
def test_gcd_over_extension_fields(field: FieldSpec) -> None:
    rng = SplitMix64(field.q)

    def poly(n: int) -> list[int]:
        return [rng.below(field.q) for _ in range(n - 1)] + [1 + rng.below(field.q - 1)]

    for na, nb, nc in [(1, 1, 1), (3, 2, 1), (4, 4, 2), (2, 6, 3), (5, 5, 4)]:
        common = poly(nc)
        a, b = polyring.mul(field, poly(na), common), polyring.mul(field, poly(nb), common)
        g = polyring.gcd(field, a, b)
        assert g[-1] == 1
        assert polyring.mod(field, a, g) == [] and polyring.mod(field, b, g) == []
        assert polyring.degree(g) >= polyring.degree(common)
        assert polyring.gcd(field, b, a) == g


@pytest.mark.parametrize("field", [F101_8, F9], ids=["F101^8", "F9"])
def test_linear_roots_never_enumerate_the_field(field: FieldSpec, monkeypatch) -> None:
    rng = SplitMix64(field.p)
    cases = [[rng.below(field.q), 1 + rng.below(field.q - 1)] for _ in range(20)]

    def refuse(self: FieldSpec) -> range:
        raise AssertionError("a linear polynomial enumerated the field")

    monkeypatch.setattr(FieldSpec, "elements", refuse)
    for a in cases:
        (root,) = polyring.roots(field, a)
        assert polyring.eval_at(field, a, root) == 0
        assert polyring.roots(field, a + [0]) == [root]


@pytest.mark.parametrize("field", [F4, FieldSpec(5), F9], ids=["F4", "F5", "F9"])
def test_linear_roots_match_brute_force(field: FieldSpec) -> None:
    for a0 in field.elements():
        for a1 in range(1, field.q):
            want = [x for x in field.elements() if polyring.eval_at(field, [a0, a1], x) == 0]
            assert polyring.roots(field, [a0, a1]) == want
