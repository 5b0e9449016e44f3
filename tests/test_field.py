"""Field arithmetic: construction guards, ring laws, Frobenius."""

from __future__ import annotations

import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pdisk.errors import NonUnit
from pdisk.field import FieldSpec

from conftest import sympy_poly

F8 = FieldSpec(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
FIELDS = [
    FieldSpec(2),
    FieldSpec(3),
    FieldSpec(5),
    FieldSpec(2, 2, (1, 1, 1)),
    FieldSpec(3, 2, (1, 0, 1)),
    F8,
]


# ==========================================================================
# construction
# ==========================================================================


class TestConstruction:
    def test_prime_fields(self) -> None:
        for p in (2, 3, 5, 7, 11, 251):
            assert FieldSpec(p).q == p

    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -3, 561, 3215031751])
    def test_nonprime_rejected(self, p: int) -> None:
        with pytest.raises(ValueError):
            FieldSpec(p)

    def test_large_prime_in_bounded_time(self) -> None:
        start = time.perf_counter()
        assert FieldSpec(2**61 - 1).q == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "p",
        [
            # the bound itself: the least strong pseudoprime to bases 2 .. 41
            3317044064679887385961981,
            2**89 - 1,  # a Mersenne prime above the bound
        ],
    )
    def test_beyond_bound_rejected(self, p: int) -> None:
        with pytest.raises(ValueError, match="bound"):
            FieldSpec(p)

    def test_degree_bounds(self) -> None:
        with pytest.raises(ValueError):
            FieldSpec(2, 0)
        with pytest.raises(ValueError):
            FieldSpec(2, 9, tuple([1] * 10))

    def test_modulus_required_for_extensions(self) -> None:
        with pytest.raises(ValueError):
            FieldSpec(2, 2)

    def test_modulus_forbidden_for_prime_field(self) -> None:
        with pytest.raises(ValueError):
            FieldSpec(3, 1, (1, 1))

    def test_reducible_modulus_rejected(self) -> None:
        # x^2 + 1 = (x+1)^2 over F_2
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 0, 1))

    def test_nonmonic_rejected(self) -> None:
        with pytest.raises(ValueError):
            FieldSpec(3, 2, (1, 0, 2))

    def test_wrong_length_rejected(self) -> None:
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 1, 1, 1))

    def test_modulus_stored_reduced(self) -> None:
        f = FieldSpec(3, 2, (4, 0, 1))
        assert f.modulus == (1, 0, 1)


# ==========================================================================
# encode / decode
# ==========================================================================


class TestEncoding:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
    def test_roundtrip_all_elements(self, field: FieldSpec) -> None:
        for a in field.elements():
            assert field.encode(field.decode(a)) == a

    def test_digits_base_p(self) -> None:
        f = FieldSpec(2, 3, (1, 1, 0, 1))
        assert f.decode(5) == [1, 0, 1]
        assert f.encode([1, 0, 1]) == 5

    def test_validate_range(self) -> None:
        f = FieldSpec(3)
        with pytest.raises(ValueError):
            f.validate(3)
        with pytest.raises(ValueError):
            f.validate(-1)


# ==========================================================================
# arithmetic laws
# ==========================================================================


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
class TestArithmetic:
    def test_ring_laws_exhaustive(self, field: FieldSpec) -> None:
        els = list(field.elements()) if field.q <= 9 else [0, 1, 2, 3, field.q - 1]
        for a in els:
            for b in els:
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                assert field.sub(a, b) == field.add(a, field.neg(b))
                for c in els[:3]:
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )
                    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    def test_identities(self, field: FieldSpec) -> None:
        for a in field.elements():
            assert field.add(a, 0) == a
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            assert field.add(a, field.neg(a)) == 0

    def test_inverse(self, field: FieldSpec) -> None:
        for a in field.elements():
            if a == 0:
                with pytest.raises(NonUnit):
                    field.inv(a)
            else:
                assert field.mul(a, field.inv(a)) == 1

    def test_pow_matches_repeated_mul(self, field: FieldSpec) -> None:
        for a in list(field.elements())[:6]:
            acc = 1
            for e in range(6):
                assert field.pow(a, e) == acc
                acc = field.mul(acc, a)

    def test_frobenius_is_pth_power_and_additive(self, field: FieldSpec) -> None:
        for a in field.elements():
            assert field.frobenius(a) == field.pow(a, field.p)
            for b in list(field.elements())[:4]:
                assert field.frobenius(field.add(a, b)) == field.add(
                    field.frobenius(a), field.frobenius(b)
                )

    def test_fermat(self, field: FieldSpec) -> None:
        # a^q = a for every element
        for a in field.elements():
            assert field.pow(a, field.q) == a


class TestScalars:
    def test_prime_subfield_embedding(self) -> None:
        f = FieldSpec(2, 2, (1, 1, 1))
        assert f.scalar_mul(1, 3) == 3

    def test_f4_multiplication_table(self) -> None:
        # x * x = x + 1 under x^2 + x + 1
        f = FieldSpec(2, 2, (1, 1, 1))
        x = f.encode([0, 1])
        assert f.mul(x, x) == f.encode([1, 1])
        assert f.mul(x, f.mul(x, x)) == 1  # x^3 = 1

    def test_f8_generator_order(self) -> None:
        x = F8.encode([0, 1])
        powers = {F8.pow(x, e) for e in range(7)}
        assert len(powers) == 7  # x generates the unit group


class TestFrobenius:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 53])
    def test_prime_field_fermat(self, p: int) -> None:
        f = FieldSpec(p)
        for a in f.elements():
            assert f.frobenius(a) == pow(a, p, p) == a

    @pytest.mark.parametrize(
        "field", [FieldSpec(2, 2, (1, 1, 1)), FieldSpec(3, 2, (1, 0, 1))], ids=["q4", "q9"]
    )
    def test_extension_field_square_and_multiply(self, field: FieldSpec) -> None:
        # over F_{p^2} the p-power map is the one nontrivial automorphism
        images = [field.frobenius(a) for a in field.elements()]
        assert images == [field.pow(a, field.p) for a in field.elements()]
        assert images != list(field.elements())
        assert [field.frobenius(b) for b in images] == list(field.elements())


@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_f9_hypothesis_laws(a: int, b: int, c: int) -> None:
    f = FieldSpec(3, 2, (1, 0, 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# ==========================================================================
# sympy as an independent oracle
# ==========================================================================

def accepts(p: int, modulus: tuple[int, ...]) -> bool:
    try:
        FieldSpec(p, len(modulus) - 1, modulus)
    except ValueError:
        return False
    return True


# every monic modulus of degree 2-4 over F_2, F_3, F_5 and of degree 5-6 over F_2
MODULUS_GRID = [(p, k) for p in (2, 3, 5) for k in (2, 3, 4)] + [(2, 5), (2, 6)]


@pytest.mark.parametrize("p,k", MODULUS_GRID, ids=lambda v: str(v))
def test_irreducibility_matches_sympy(p: int, k: int) -> None:
    for tail in product(range(p), repeat=k):
        modulus = tail + (1,)
        assert accepts(p, modulus) == sympy_poly(modulus, p).is_irreducible, modulus


SYMPY_FIELDS = [
    FieldSpec(2, 2, (1, 1, 1)),
    F8,
    FieldSpec(3, 2, (1, 0, 1)),
    FieldSpec(5, 2, (2, 1, 1)),  # x^2 + x + 2
]


@pytest.mark.parametrize("field", SYMPY_FIELDS, ids=lambda f: f"q{f.q}")
def test_mul_matches_sympy(field: FieldSpec) -> None:
    p, k = field.p, field.k
    modulus = sympy_poly(field.modulus, p)
    for a in field.elements():
        for b in field.elements():
            rem = (sympy_poly(field.decode(a), p) * sympy_poly(field.decode(b), p)).rem(modulus)
            digits = [int(c) % p for c in reversed(rem.all_coeffs())]
            assert field.mul(a, b) == field.encode(digits + [0] * (k - len(digits)))
