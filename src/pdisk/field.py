"""Finite coefficient fields F_{p^k}.

Elements are encoded as integers in ``range(p**k)``: the base-p digits of
the code are the coordinates in the power basis 1, a, ..., a^(k-1) of the
generator a, a root of the supplied monic irreducible modulus.  For k = 1
the code is the residue itself and no modulus is needed.

The encoding keeps series coefficients hashable and cheap to hand to the
series kernels in ``pdisk._kernels_py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import NonUnit


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_divmod_fp(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Divide dense F_p[x] polynomials (ascending coefficients, den != 0)."""
    num = list(num)
    dn = len(den) - 1
    while dn >= 0 and den[dn] == 0:
        dn -= 1
    inv_lead = pow(den[dn], p - 2, p) if den[dn] != 1 else 1
    quot = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        q = (c * inv_lead) % p
        quot[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] = (num[i - dn + j] - q * den[j]) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return quot, [c % p for c in num]


def _brute_force_irreducible(modulus: tuple[int, ...], p: int, k: int) -> bool:
    """Check irreducibility by trial division against every candidate factor.

    Enumerates all monic polynomials of degree 1..k//2 over F_p.  Fine at
    desk scale (k <= 8, small p).
    """
    for d in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=d):
            cand = list(tail) + [1]
            _, rem = _poly_divmod_fp(list(modulus), cand, p)
            if all(c == 0 for c in rem):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field F_{p^k}, validated at construction."""

    p: int
    k: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
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
        if not _brute_force_irreducible(mod, self.p, self.k):
            raise ValueError("modulus is reducible over F_p")

    @cached_property
    def q(self) -> int:
        return self.p**self.k

    @cached_property
    def _pows(self) -> tuple[int, ...]:
        return tuple(self.p**i for i in range(self.k))

    # -- encoding ---------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        p = self.p
        digs = []
        for _ in range(self.k):
            digs.append(a % p)
            a //= p
        return digs

    def encode(self, digits: list[int]) -> int:
        p = self.p
        a = 0
        for d in reversed(digits):
            a = a * p + (d % p)
        return a

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an encoded element of F_{self.p}^{self.k}")
        return a

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + y) % p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        return self.encode([(-x) % p for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        da, db = self.decode(a), self.decode(b)
        buf = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    buf[i + j] = (buf[i + j] + x * y) % p
        mod = self.modulus
        assert mod is not None
        for i in range(2 * k - 2, k - 1, -1):
            c = buf[i]
            if c:
                buf[i] = 0
                for j in range(k):
                    buf[i - k + j] = (buf[i - k + j] - c * mod[j]) % p
        return self.encode(buf[:k])

    def scalar(self, c: int) -> int:
        """Embed an integer through F_p."""
        return c % self.p

    def scalar_mul(self, c: int, a: int) -> int:
        c %= self.p
        if self.k == 1:
            return (c * a) % self.p
        return self.encode([(c * x) % self.p for x in self.decode(a)])

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
        """The p-power map, an automorphism of order k."""
        return self.pow(a, self.p)

    def elements(self) -> range:
        return range(self.q)
