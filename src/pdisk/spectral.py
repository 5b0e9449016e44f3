"""Spectral rings, their derivations, and eigen decompositions.

The spectral ring of an invariant tuple b is R = O[t]/(char_b) with
char_b = det(t I - M) for any matrix M realizing b.  Elements are stored
as their unique degree < n representatives with truncated-series
coefficients (the cyclic frame).

The z-derivation of O extends to R exactly when char_b'(t) is a unit in
R, by differentiating the defining relation:

    dt/dz = - char_b^{dz}(t) * char_b'(t)^(-1)

where char_b^{dz} differentiates the coefficients only (zero over a base
F*(b'), so no inverse is formed).  When char_b'(t) is not a unit, the
ring is flagged derivation-free and derivative-taking operations refuse.

An element acts on the rank-n bundle by its kept multiplication matrix in
the cyclic frame (SpectralElement.rep), t by the companion matrix.  A
product applies it to the right operand's coordinates; a unit (its residue
prime to the residue of char_b) inverts through it: column 0 of its inverse.

On the split stratum a spectral ring carries two more facts, each cached:
its eigenvalues (the residue roots of char_b, lifted by Newton iteration
at doubling precision) and the Lagrange basis at them.  hensel_eigen
builds the ring of a p-curvature matrix's own invariants, evaluates that
basis at the matrix to get its projectors and an eigenbasis, and keeps the
ring; the preconditions (split, simple residue spectrum) are reported
precisely when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence

from . import polyring
from .connection import FHiggs
from .errors import (
    BaseMismatch,
    DerivationUnavailable,
    InternalInconsistency,
    NonSplitResidue,
    NonUnit,
    RepeatedResidueRoot,
)
from .field import Value
from .matrix import InvariantTuple, SeriesMatrix
from .series import TruncSeries


def eval_at(coeffs: Sequence[TruncSeries], mu: TruncSeries) -> TruncSeries:
    """sum coeffs[i] * mu^i by Horner, at the least precision among the inputs.

    The leading coefficient is cut to mu's precision, so a single
    coefficient is too; the series arithmetic meets every other precision.
    """
    *rest, lead = coeffs
    acc = lead.truncate(min(lead.precision, mu.precision))
    for c in reversed(rest):
        acc = acc * mu + c
    return acc


def t_derivative(coeffs: Sequence[TruncSeries]) -> list[TruncSeries]:
    """d/dt of a t-polynomial given by ascending series coefficients."""
    return [c.scale_int(i) for i, c in enumerate(coeffs[1:], 1)]


@dataclass(frozen=True)
class SpectralRing(Value):
    """O[t]/(char_b), b an invariant tuple in either coordinate."""

    b: InvariantTuple

    @property
    def rank(self) -> int:
        return self.b.rank

    @property
    def field(self):
        return self.b.field

    @property
    def var(self) -> str:
        return self.b.var

    @property
    def precision(self) -> int:
        return self.b.precision

    @cached_property
    def char(self) -> list[TruncSeries]:
        """char_b = det(t I - M) as ascending t-coefficients (length n + 1, monic)."""
        b = self.b
        signed = [x if i % 2 == 0 else -x for i, x in enumerate(b.entries, 1)]
        return signed[::-1] + [TruncSeries.one(b.field, b.var, b.precision)]

    @cached_property
    def dchar(self) -> list[TruncSeries]:
        """The t-derivative char_b' (length n)."""
        return t_derivative(self.char)

    def residue_char(self) -> list[int]:
        return [c.coeff(0) for c in self.char]

    # -- element construction ---------------------------------------------

    def element(self, coeffs: list[TruncSeries]) -> "SpectralElement":
        n = self.rank
        coeffs = list(coeffs)
        if len(coeffs) > n:
            coeffs = self._reduce(coeffs)
        prec = min([c.precision for c in coeffs] + [self.precision])
        padded = [c.truncate(prec) for c in coeffs]
        if len(padded) < n:
            padded += [TruncSeries.zero(self.field, self.var, prec)] * (n - len(padded))
        return SpectralElement(self, tuple(padded))

    def one(self) -> "SpectralElement":
        return self.element([TruncSeries.one(self.field, self.var, self.precision)])

    def tautological(self) -> "SpectralElement":
        """The class of t; reduces to b_1 when n = 1."""
        prec = self.precision
        zero = TruncSeries.zero(self.field, self.var, prec)
        one = TruncSeries.one(self.field, self.var, prec)
        return self.element([zero, one])

    def _reduce(self, coeffs: list[TruncSeries]) -> list[TruncSeries]:
        """Reduce a t-polynomial by monic char_b; a constant-one lead forms no product."""
        n = self.rank
        q = self.char
        out = list(coeffs)
        for i in range(len(out) - 1, n - 1, -1):
            lead = out.pop()
            if lead.is_zero():
                continue
            one = lead.coeffs[0] == 1 and not any(lead.coeffs[1:])
            for j in range(n):
                term = q[j].truncate(min(lead.precision, q[j].precision)) if one else lead * q[j]
                out[i - n + j] = out[i - n + j] - term
        return out

    # -- split stratum ----------------------------------------------------

    @cached_property
    def eigenvalues(self) -> tuple[TruncSeries, ...]:
        """The n roots of char_b in the series ring, at the ring's precision N.

        Requires the residue characteristic polynomial to have n distinct
        roots in the coefficient field (check_residue_split).  The roots
        come ascending by field encoding, which fixes every downstream
        ordering.  A Newton step doubles the known orders of a simple root,
        so each residue root is lifted at precisions 1, 2, 4, ..., N and
        certified at N: char_b(mu) = 0, else InternalInconsistency.
        """
        f, var, prec = self.field, self.var, self.precision
        char, dchar = self.char, self.dchar
        mus = []
        for r in check_residue_split(f, self.residue_char()):
            mu = TruncSeries.constant(f, var, r, 1)
            while mu.precision < prec:
                mu = TruncSeries._computed(f, var, (mu.coeffs + (0,) * mu.precision)[:prec])
                mu = mu - eval_at(char, mu) * eval_at(dchar, mu).inverse()
            if not eval_at(char, mu).is_zero():
                raise InternalInconsistency("Newton lifting failed to converge")
            mus.append(mu)
        return tuple(mus)

    @cached_property
    def lagrange_basis(self) -> tuple["SpectralElement", ...]:
        """The elements L_i with L_i(mu_j) = 1 if i = j, else 0, at the eigenvalues.

        L_i = prod over j != i of (t - mu_j) / (mu_i - mu_j), at precision N
        and of degree n - 1 in t; the differences are units on the split stratum.
        """
        basis = []
        for i, mu in enumerate(self.eigenvalues):
            elt = self.one()
            for j, other in enumerate(self.eigenvalues):
                if j != i:
                    c = (mu - other).inverse()
                    elt = elt * self.element([-(other * c), c])
            basis.append(elt)
        return tuple(basis)

    # -- derivation -------------------------------------------------------

    @cached_property
    def _derivation_table(self) -> "SpectralElement | None":
        """dt/dz as a ring element (zero over a pulled-back base), or None when unavailable."""
        dz = self.element([c.derivative() for c in self.char[:-1]])
        dchar = self.element(self.dchar)
        if not dchar.is_unit():
            return None
        return dz if dz.is_zero() else -(dz * dchar.inverse())

    def derivation(self) -> "SpectralElement":
        dt = self._derivation_table
        if dt is None:
            raise DerivationUnavailable(
                "char' is not a unit in the spectral ring; no canonical derivation"
            )
        return dt


@dataclass(frozen=True)
class SpectralElement(Value):
    """A degree < n representative in the cyclic frame of a spectral ring."""

    ring: SpectralRing
    coeffs: tuple[TruncSeries, ...]

    @property
    def precision(self) -> int:
        return self.coeffs[0].precision

    def _check_peer(self, other: "SpectralElement") -> None:
        if self.ring is other.ring:
            return
        if self.ring.rank != other.ring.rank or not self.ring.b.agrees_with(other.ring.b):
            raise BaseMismatch("spectral elements live over different rings")

    def __add__(self, other: "SpectralElement") -> "SpectralElement":
        self._check_peer(other)
        return self.ring.element([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "SpectralElement") -> "SpectralElement":
        return self + (-other)

    def __neg__(self) -> "SpectralElement":
        return self.ring.element([-c for c in self.coeffs])

    def __mul__(self, other: "SpectralElement") -> "SpectralElement":
        self._check_peer(other)
        return self.ring.element(list(self.rep.matvec(other.coeffs)))

    @cached_property
    def rep(self) -> SeriesMatrix:
        """Multiplication on 1, t, ..., t^(n-1), kept beside the value (field.Value).

        Column j + 1 is t times column j; for t this is the companion matrix.
        """
        ring = self.ring
        n = ring.rank
        zero = TruncSeries.zero(ring.field, ring.var, self.precision)
        cols = [self.coeffs]
        for _ in range(n - 1):
            cols.append(ring.element([zero, *cols[-1]]).coeffs)
        return SeriesMatrix._computed(tuple(tuple(col[i] for col in cols) for i in range(n)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def agrees_with(self, other: "SpectralElement") -> bool:
        self._check_peer(other)
        return all(a.agrees_with(b) for a, b in zip(self.coeffs, other.coeffs))

    def truncate(self, precision: int) -> "SpectralElement":
        return self.ring.element([c.truncate(precision) for c in self.coeffs])

    # -- unit structure ---------------------------------------------------

    def is_unit(self) -> bool:
        residue = polyring.trim([c.coeff(0) for c in self.coeffs])
        g = polyring.gcd(self.ring.field, residue, self.ring.residue_char())
        return polyring.degree(g) == 0

    def inverse(self) -> "SpectralElement":
        """Column 0 of the kept matrix's kept inverse: the coordinates of self^(-1) * 1."""
        if not self.is_unit():
            raise NonUnit("element is a zero divisor at the residue")
        inv = self.rep.inverse()
        return self.ring.element([inv.entry(i, 0) for i in range(self.ring.rank)])

    def derivative(self) -> "SpectralElement":
        """The extended z-derivation: coefficientwise d/dz plus dt/dz (kept matrix) d/dt.

        Over a pulled-back base dt/dz is zero and the coefficientwise part is
        the whole: the same bytes and precision, since an element is never
        more precise than its ring and dt/dz has the ring's precision less one.
        """
        ring = self.ring
        dz_part = ring.element([c.derivative() for c in self.coeffs])
        dt = ring.derivation()
        if dt.is_zero():
            return dz_part
        return dz_part + dt * ring.element(t_derivative(self.coeffs))

    # -- evaluation -------------------------------------------------------

    def eval_matrix(self, m: SeriesMatrix) -> SeriesMatrix:
        """Evaluate the representative at a matrix value of t (Horner).

        As in eval_at, the leading coefficient is cut to m's precision.
        """
        n = m.rank
        *rest, lead = self.coeffs
        acc = SeriesMatrix.diagonal([lead.truncate(min(lead.precision, m.precision))] * n)
        for c in reversed(rest):
            acc = (acc @ m) + SeriesMatrix.diagonal([c] * n)
        return acc


@dataclass(frozen=True)
class EigenData:
    """Split spectral data of a p-curvature matrix, ordered as ring.eigenvalues."""

    ring: SpectralRing
    projectors: tuple[SeriesMatrix, ...]
    gauge: SeriesMatrix


def check_residue_split(field, res_char: list[int]) -> list[int]:
    """The deg(res_char) residue roots of a simple split spectrum; precise errors otherwise.

    NonSplitResidue carries the extension degree that would rationalize
    the whole residue spectrum: the lcm of the residue factor degrees.
    """
    sqfree_gcd = polyring.gcd(field, res_char, polyring.deriv(field, res_char))
    if polyring.degree(sqfree_gcd) > 0:
        raise RepeatedResidueRoot("residue characteristic polynomial has a repeated root")
    res_roots = polyring.roots(field, res_char)
    if len(res_roots) < polyring.degree(res_char):
        raise NonSplitResidue(
            "residue spectrum does not split over the coefficient field",
            suggested_degree=lcm(*polyring.factor_degrees(field, res_char)),
        )
    return res_roots


def hensel_eigen(psi: FHiggs) -> EigenData:
    """Split eigen structure of a p-curvature matrix.

    The ring is SpectralRing(psi.matrix.invariants), the invariants the
    matrix computes once; the eigenvalues are the ring's eigenvalues,
    ascending by the field encoding of their residues.  The projectors are
    the ring's Lagrange basis evaluated at the matrix, and a unit column of
    each projector makes the eigenbasis, all at the matrix's precision.  The
    returned EigenData carries that ring, so its eigenvalues and Lagrange
    basis are not computed again.

    NonSplitResidue suggests the extension degree (over the current
    coefficient field) that would make the whole residue spectrum
    rational: the lcm of the residue factor degrees.
    """
    m = psi.matrix
    n = m.rank
    ring = SpectralRing(m.invariants)
    projectors = [basis.eval_matrix(m) for basis in ring.lagrange_basis]

    cols = []
    for i in range(n):
        chosen = None
        for kcol in range(n):
            col = tuple(projectors[i].entry(r, kcol) for r in range(n))
            if any(c.is_unit() for c in col):
                chosen = col
                break
        if chosen is None:
            raise InternalInconsistency("projector has no unit column")
        cols.append(chosen)
    g = SeriesMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))
    return EigenData(ring, tuple(projectors), g)
