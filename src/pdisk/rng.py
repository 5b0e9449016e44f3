"""Deterministic pseudo-randomness for the verification suites.

A splitmix-style 64-bit generator: the state advances by the constant
0x9E3779B97F4A7C15 and each output is finalized by xor-shift-multiply with
the constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Everything random
in this package flows from an explicit seed through this class; no other
entropy source is consulted, so byte-identical reruns are guaranteed.
"""

from __future__ import annotations

from .errors import SingularGauge
from .field import FieldSpec
from .matrix import SeriesMatrix
from .series import TruncSeries

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The seeded generator; ``below(n)`` reduces by remainder.

    The tiny modulo bias is irrelevant here: the suites need reproducible
    variety, not statistical perfection.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def split(self) -> "SplitMix64":
        """An independent child stream."""
        return SplitMix64(self.next_u64())

    # -- structured draws -------------------------------------------------

    def unit(self, field: FieldSpec) -> int:
        return 1 + self.below(field.q - 1)

    def series(self, field: FieldSpec, var: str, precision: int) -> TruncSeries:
        return TruncSeries(field, var, tuple(self.below(field.q) for _ in range(precision)))

    def unit_series(self, field: FieldSpec, var: str, precision: int) -> TruncSeries:
        coeffs = [self.unit(field)]
        coeffs += [self.below(field.q) for _ in range(precision - 1)]
        return TruncSeries(field, var, tuple(coeffs))

    def matrix(self, field: FieldSpec, var: str, rank: int, precision: int) -> SeriesMatrix:
        return SeriesMatrix(
            tuple(
                tuple(self.series(field, var, precision) for _ in range(rank))
                for _ in range(rank)
            )
        )

    def unit_matrix(self, field: FieldSpec, var: str, rank: int, precision: int) -> SeriesMatrix:
        """A matrix invertible over the series ring (unit constant-term determinant)."""
        while True:
            m = self.matrix(field, var, rank, precision)
            try:
                m.truncate(1).inverse()
            except SingularGauge:
                continue
            return m
