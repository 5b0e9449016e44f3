"""Finite coefficient fields F_{p^k}.

Elements are encoded as integers in ``range(p**k)``: the base-p digits of
the code are the coordinates in the power basis 1, a, ..., a^(k-1) of the
generator a, a root of the supplied monic irreducible modulus.  For k = 1
the code is the residue itself and no modulus is needed.

The encoding keeps series coefficients hashable and cheap to hand to the
series kernels in ``pdisk._kernels_py``.  The module-level ``decode``,
``encode``, ``ext_add``, ``ext_neg``, ``ext_scalar_mul`` and ``ext_mul``
are the one implementation of F_{p^k} digit arithmetic: ``FieldSpec`` and
the k > 1 kernel loops both call them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from .errors import NonUnit

# Miller-Rabin over these bases decides primality exactly below _PRIME_BOUND
# (Sorenson and Webster, Math. Comp. 2017); FieldSpec refuses p beyond it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- element arithmetic on codes, shared with the series kernels -----------
#
# mod is FieldSpec.modulus: the k + 1 digits of the monic modulus.


def decode(a: int, p: int, k: int) -> list[int]:
    """The k base-p digits of a code, lowest first."""
    digs = []
    for _ in range(k):
        digs.append(a % p)
        a //= p
    return digs


def encode(digits: list[int], p: int) -> int:
    """The code of a digit vector, each digit reduced mod p."""
    a = 0
    for d in reversed(digits):
        a = a * p + (d % p)
    return a


def ext_add(a: int, b: int, p: int, k: int) -> int:
    return encode([x + y for x, y in zip(decode(a, p, k), decode(b, p, k))], p)


def ext_neg(a: int, p: int, k: int) -> int:
    return encode([-x for x in decode(a, p, k)], p)


def ext_scalar_mul(c: int, a: int, p: int, k: int) -> int:
    """The integer multiple c * a, through the prime subfield: each digit times c."""
    return encode([c * x for x in decode(a, p, k)], p)


def ext_mul(a: int, b: int, p: int, k: int, mod: tuple[int, ...]) -> int:
    """Product in F_p[x]/(mod): schoolbook on digits, then reduction by mod."""
    if a == 0 or b == 0:
        return 0
    da, db = decode(a, p, k), decode(b, p, k)
    buf = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                buf[i + j] = (buf[i + j] + x * y) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = buf[i]
        if c:
            buf[i] = 0
            for j in range(k):
                buf[i - k + j] = (buf[i - k + j] - c * mod[j]) % p
    return encode(buf[:k], p)


class Value:
    """The one rule for kept facts: a dataclass's value is its fields.

    A fact kept beside them (a cached_property, or SeriesMatrix's kept inverse)
    stays outside ==, hash and repr, which the dataclass builds from the fields,
    and outside pickles.  Each class that keeps a fact inherits this.
    """

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FieldSpec(Value):
    """The coefficient field F_{p^k}, validated at construction."""

    p: int
    k: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.p >= _PRIME_BOUND:
            raise ValueError(f"p = {self.p} is beyond the supported bound {_PRIME_BOUND}")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not 1 <= self.k <= 8:
            raise ValueError(f"extension degree k = {self.k} out of range 1..8")
        if self.k == 1:
            if self.modulus is not None:
                raise ValueError("modulus must be omitted for prime fields")
            return
        if self.modulus is None:
            raise ValueError("extension fields need a monic modulus of degree k")
        mod = tuple(int(c) % self.p for c in self.modulus)
        object.__setattr__(self, "modulus", mod)
        if len(mod) != self.k + 1 or mod[self.k] != 1:
            raise ValueError("modulus must be monic of degree k")
        # imported here: polyring reaches this module again through the kernels
        from .polyring import factor_degrees

        if factor_degrees(FieldSpec(self.p), list(mod)) != [self.k]:
            raise ValueError("modulus is reducible over F_p")

    @cached_property
    def q(self) -> int:
        return self.p**self.k

    # -- encoding ---------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        return decode(a, self.p, self.k)

    def encode(self, digits: list[int]) -> int:
        return encode(digits, self.p)

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an encoded element of F_{self.p}^{self.k}")
        return a

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return ext_add(a, b, self.p, self.k)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return ext_neg(a, self.p, self.k)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return ext_mul(a, b, self.p, self.k, self.modulus)

    def scalar_mul(self, c: int, a: int) -> int:
        if self.k == 1:
            return (c * a) % self.p
        return ext_scalar_mul(c, a, self.p, self.k)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise NonUnit("0 is not invertible")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        """The p-power map, an automorphism of order k (the identity on F_p)."""
        if self.k == 1:
            return a
        return self.pow(a, self.p)

    def elements(self) -> range:
        return range(self.q)
