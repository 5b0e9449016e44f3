"""Spectral chart rings, Hensel eigen splitting, regular representations."""

from __future__ import annotations

import pytest

from pdisk.connection import Connection, FHiggs, dlog, pcurv
from pdisk.errors import (
    BaseMismatch,
    DerivationUnavailable,
    FieldMismatch,
    NonSplitResidue,
    NonUnit,
    PdiskError,
    RepeatedResidueRoot,
    VarMismatch,
    ZeroPrecision,
)
from pdisk.field import FieldSpec
from pdisk.hitchin import (
    InvariantTuple,
    char_invariants,
    companion_section,
    frobenius_base_pullback,
)
from pdisk.matrix import SeriesMatrix
from pdisk.backend import impl
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST
from pdisk.spectral import (
    EigenData,
    SpectralElement,
    SpectralRing,
    check_residue_split,
    eval_at,
    hensel_eigen,
    t_derivative,
)

from conftest import (
    M,
    S,
    companion_layout,
    doubling_eigenvalues_loop,
    eigen_rep,
    eval_matrix_loop,
    full_precision_eigenvalues,
    lagrange_basis_loop,
    ring_one,
    scale,
    spectral_product,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F4 = FieldSpec(2, 2, (1, 1, 1))
F9 = FieldSpec(3, 2, (1, 0, 1))


def inv(field: FieldSpec, texts: list[str], precision: int) -> InvariantTuple:
    return InvariantTuple(tuple(S(field, t, precision) for t in texts))


def random_base(
    rng: SplitMix64, field: FieldSpec, n: int, prec: int, pulled: bool
) -> InvariantTuple:
    """A random rank-n base at precision prec, pulled back from the twist or general."""
    if pulled:
        twist = [rng.series(field, VAR_TWIST, -(-prec // field.p)) for _ in range(n)]
        return frobenius_base_pullback(InvariantTuple(tuple(twist))).truncate(prec)
    return InvariantTuple(tuple(rng.series(field, VAR_DISK, prec) for _ in range(n)))


FIELDS = pytest.mark.parametrize(
    "field", [F2, F3, F5, F7, F4, F9], ids=["F2", "F3", "F5", "F7", "F4", "F9"]
)
BASES = pytest.mark.parametrize("pulled", [True, False], ids=["pulled", "general"])


def artin_schreier_ring(precision: int = 9):
    # char = t^2 + t + z^2 over F_2: trace 1, det z^2
    return SpectralRing(inv(F2, ["1", "z^2"], precision))


# ==========================================================================
# ring construction and the derivation
# ==========================================================================


class TestBuildSpectral:
    def test_rank_one_collapses_to_base(self) -> None:
        f = S(F5, "2 + z^3", 7)
        ring = SpectralRing(InvariantTuple((f,)))
        taut = ring.tautological()
        assert taut.coeffs == (f,)
        # the derivation then continues d/dz
        assert ring.derivation().coeffs[0] == f.derivative()

    def test_char_poly_of_artin_schreier(self) -> None:
        ring = artin_schreier_ring()
        q = ring.char
        assert [str(c) for c in q] == ["z^2", "1", "1"]
        assert ring.residue_char() == [0, 1, 1]

    def test_tautological_satisfies_char(self) -> None:
        ring = artin_schreier_ring()
        t = ring.tautological()
        rel = t * t + t + ring.element([S(F2, "z^2", 9)])
        assert rel.is_zero()

    def test_separable_derivation_vanishes_here(self) -> None:
        # differentiate t^2 + t + z^2 = 0: (2t + 1) dt = -2z dz, so dt = 0
        ring = artin_schreier_ring()
        assert ring.derivation().is_zero()

    def test_inseparable_cover_has_no_derivation(self) -> None:
        # char = t^2 + z^2 has char' = 2t = 0
        ring = SpectralRing(inv(F2, ["0", "z^2"], 9))
        with pytest.raises(DerivationUnavailable):
            ring.derivation()

    def test_derivation_with_unit_char_prime(self) -> None:
        # char = t^2 - t + z over F_3: char' = 2t - 1, unit residue poly
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        t = ring.tautological()
        # implicit differentiation: dt must solve (2t - 1) dt + 1 = 0
        dt = ring.derivation()
        two_t = t + t
        one = ring_one(ring)
        assert ((two_t - one) * dt + one).is_zero()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_derivation_matches_the_ring_inverse_formula(self, p: int) -> None:
        # the formula dt/dz = -char^{dz}(t) * char'(t)^(-1), inverse and all,
        # is the reference; over pulled-back bases the derivation skips it
        field = FieldSpec(p)
        rng = SplitMix64(p)
        outcomes = set()
        for n in (1, 2, 3):
            for pulled in (True, False):
                for _ in range(4):
                    if pulled:
                        twist = tuple(rng.series(field, VAR_TWIST, 3) for _ in range(n))
                        b = frobenius_base_pullback(InvariantTuple(twist))
                    else:
                        b = InvariantTuple(tuple(rng.series(field, VAR_DISK, 7) for _ in range(n)))
                    ring = SpectralRing(b)
                    dz = ring.element([c.derivative() for c in ring.char[:-1]])
                    try:
                        reference = -(dz * ring.element(ring.dchar).inverse())
                    except NonUnit:
                        with pytest.raises(DerivationUnavailable):
                            ring.derivation()
                        outcomes.add((pulled, None))
                        continue
                    # equal coefficient tuples, so equal precision too
                    assert ring.derivation() == reference
                    outcomes.add((pulled, reference.is_zero()))
        assert {(True, True), (False, False)} <= outcomes
        assert None in {zero for _, zero in outcomes}

    @FIELDS
    @BASES
    def test_element_derivative_matches_the_full_formula(self, field: FieldSpec, pulled: bool) -> None:
        # coefficientwise d/dz plus dt * d/dt, the product formed even when dt is
        # zero; equal coefficient tuples, so equal bytes and precision
        rng = SplitMix64(40 * field.q + pulled)
        zeros = set()
        for n in (1, 2, 3):
            for prec in (1, field.p, 2 * field.p + 3):
                ring = SpectralRing(random_base(rng, field, n, prec, pulled))
                try:
                    dt = ring.derivation()
                except DerivationUnavailable:
                    continue
                zeros.add(dt.is_zero())
                for cut in range(min(2, prec)):
                    x = ring.element([rng.series(field, VAR_DISK, prec - cut) for _ in range(n)])
                    dz_part = ring.element([c.derivative() for c in x.coeffs])
                    full = dz_part + dt * ring.element(t_derivative(x.coeffs))
                    assert x.derivative() == full
                    assert x.derivative().precision == full.precision == x.precision - 1
        if pulled:
            assert zeros == {True}
        else:
            # a general base known past order 0 has a nonzero derivation
            assert False in zeros

    def test_element_derivative_refusal_order(self) -> None:
        # a precision-0 element refuses to differentiate before a ring without a
        # derivation is asked for one, as the formula did
        ring = SpectralRing(inv(F2, ["0", "z^2"], 9))
        x = ring.element([TruncSeries.zero(F2, VAR_DISK, 0)] * 2)
        with pytest.raises(ZeroPrecision):
            x.derivative()
        with pytest.raises(DerivationUnavailable):
            ring.tautological().derivative()

    def test_reduction_mod_char(self) -> None:
        ring = artin_schreier_ring()
        t = ring.tautological()
        # t^2 = t + z^2 mod char in characteristic 2
        sq = t * t
        assert str(sq.coeffs[0]) == "z^2"
        assert str(sq.coeffs[1]) == "1"

    @pytest.mark.parametrize(
        "lead, want", [("1", "1 + z^3"), ("1 + z^3", "1")], ids=["one", "general"]
    )
    def test_reduction_meets_the_lead_precision(self, lead: str, want: str) -> None:
        # z + z^3 t + lead t^2 with lead known to 4 orders: t^2 = t + z^2,
        # and the constant-one lead, which forms no product, is cut the same
        ring = artin_schreier_ring()
        elt = ring.element([S(F2, "z", 9), S(F2, "z^3", 9), S(F2, lead, 4)])
        assert elt.precision == 4
        assert [str(c) for c in elt.coeffs] == ["z + z^2", want]


# ==========================================================================
# element arithmetic
# ==========================================================================


class TestElements:
    def test_inverse(self) -> None:
        rng = SplitMix64(50)
        ring = artin_schreier_ring()
        found = 0
        while found < 15:
            cand = ring.element(
                [rng.series(F2, VAR_DISK, 9), rng.series(F2, VAR_DISK, 9)]
            )
            if not cand.is_unit():
                continue
            found += 1
            assert (cand * cand.inverse() - ring_one(ring)).is_zero()

    @FIELDS
    @pytest.mark.parametrize("n", [1, 2, 3])
    @BASES
    def test_seeded_units_invert(self, field: FieldSpec, n: int, pulled: bool) -> None:
        rng = SplitMix64(100 * field.q + 10 * n + pulled)
        prec = 2 * field.p + 3
        for _ in range(3):
            ring = SpectralRing(random_base(rng, field, n, prec, pulled))
            units = 0
            while units < 4:
                # every other element below the ring's precision
                x = ring.element([rng.series(field, VAR_DISK, prec - units % 2) for _ in range(n)])
                if not x.is_unit():
                    with pytest.raises(NonUnit, match="zero divisor at the residue"):
                        x.inverse()
                    continue
                units += 1
                y = x.inverse()
                assert y.precision == x.precision
                assert x * y == ring_one(ring).truncate(x.precision)
            # z is never a unit, and a precision-0 element has no residue
            z = ring.element([TruncSeries.monomial(field, VAR_DISK, 1, prec)])
            with pytest.raises(NonUnit, match="zero divisor at the residue"):
                z.inverse()
            with pytest.raises(ZeroPrecision):
                ring.element([TruncSeries.one(field, VAR_DISK, 0)]).inverse()

    @FIELDS
    @pytest.mark.parametrize("n", [1, 2, 3])
    @BASES
    def test_product_is_the_reduced_convolution(
        self, field: FieldSpec, n: int, pulled: bool
    ) -> None:
        rng = SplitMix64(1000 * field.q + 10 * n + pulled)
        prec = 2 * field.p + 3
        ring = SpectralRing(random_base(rng, field, n, prec, pulled))
        for k in range(4):
            # precisions prec - k and prec - 3 + k never meet
            x = ring.element([rng.series(field, VAR_DISK, prec - k) for _ in range(n)])
            y = ring.element([rng.series(field, VAR_DISK, prec - 3 + k) for _ in range(n)])
            want = spectral_product(x, y)
            for got in (x * y, x * y, y * x):
                assert got.precision == min(x.precision, y.precision)
                assert list(got.coeffs) == want

    def test_multiplication_matrix_is_kept(self, monkeypatch) -> None:
        ring = SpectralRing(inv(F3, ["z", "2 + z^2"], 8))
        a = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        assert a.rep is a.rep
        eliminated = []
        eliminate = SeriesMatrix._eliminate
        monkeypatch.setattr(
            SeriesMatrix, "_eliminate", lambda m: eliminated.append(m) or eliminate(m)
        )
        assert a.inverse() == a.inverse()
        assert eliminated == [a.rep]

    def test_zero_divisor_refused(self) -> None:
        # in O[t]/(t^2 + t) the class of t kills t + 1
        ring = SpectralRing(inv(F2, ["1", "0"], 6))
        t = ring.tautological()
        assert not t.is_unit()
        with pytest.raises(NonUnit):
            t.inverse()
        other = t + ring_one(ring)
        assert (t * other).is_zero()

    def test_eval_series_is_horner(self) -> None:
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        elt = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        mu = S(F3, "2 + z^2", 8)
        assert eval_at(elt.coeffs, mu) == S(F3, "2 + z + z^2", 8)

    def test_dlog_of_unit(self) -> None:
        ring = SpectralRing(inv(F3, ["1", "z"], 8))
        u = ring.element([S(F3, "1 + z", 8)])
        got = dlog(u)
        expect = ring.element([S(F3, "1 + z", 8).inverse() * S(F3, "1", 7)])
        assert got.agrees_with(expect)

    def test_peer_rings_checked(self) -> None:
        a = ring_one(artin_schreier_ring())
        b = ring_one(SpectralRing(inv(F2, ["0", "z^2"], 9)))
        with pytest.raises(BaseMismatch):
            a + b

    def test_agrees_with_checks_the_ring(self) -> None:
        # equal coefficients over different ranks, and over different bases
        one_1 = ring_one(SpectralRing(inv(F5, ["1"], 6)))
        one_2 = ring_one(SpectralRing(inv(F5, ["1", "0"], 6)))
        t = SpectralRing(inv(F5, ["1", "0"], 6)).tautological()
        other_t = SpectralRing(inv(F5, ["2", "1"], 6)).tautological()
        for x, y in ((one_1, one_2), (one_2, one_1), (t, other_t)):
            with pytest.raises(BaseMismatch):
                x.agrees_with(y)
        # a second ring over an agreeing base is a peer
        assert t.agrees_with(SpectralRing(inv(F5, ["1", "0"], 4)).tautological())


# ==========================================================================
# hensel_eigen
# ==========================================================================


def as_psi(m: SeriesMatrix) -> FHiggs:
    return FHiggs(m)


class TestHenselEigen:
    def test_artin_schreier_lift(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        lo, hi = eigen.ring.eigenvalues
        # the root over 0 is the lacunary series z^2 + z^4 + z^8 + ...
        assert str(lo) == "z^2 + z^4 + z^8"
        assert hi == lo + S(F2, "1", 9)
        assert (lo + hi) == S(F2, "1", 9)
        assert lo * hi == S(F2, "z^2", 9)

    def test_projector_identities(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        p1, p2 = eigen.projectors
        n = 2
        ident = SeriesMatrix.identity(F2, VAR_DISK, n, p1.precision)
        assert p1 + p2 == ident
        assert p1 @ p1 == p1.truncate(p1.precision)
        assert (p1 @ p2).is_zero()
        recon = scale(p1, eigen.ring.eigenvalues[0].truncate(p1.precision)) + scale(
            p2, eigen.ring.eigenvalues[1].truncate(p2.precision)
        )
        assert recon.agrees_with(psi.matrix)

    def test_gauge_diagonalises(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        prec = eigen.gauge.precision
        moved = eigen.gauge.inverse() @ psi.matrix.truncate(prec) @ eigen.gauge
        for i in range(2):
            for j in range(2):
                entry = moved.entry(i, j)
                if i == j:
                    assert entry.agrees_with(eigen.ring.eigenvalues[i])
                else:
                    assert entry.is_zero()

    def test_diagonal_input_gives_identity_gauge(self) -> None:
        m = M(F5, [["1", "0"], ["0", "3"]], 7)
        eigen = hensel_eigen(as_psi(m))
        assert [str(mu) for mu in eigen.ring.eigenvalues] == ["1", "3"]
        assert eigen.gauge == SeriesMatrix.identity(F5, VAR_DISK, 2, 7)

    def test_repeated_residue_root(self) -> None:
        bp = inv(F2, ["0", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        with pytest.raises(RepeatedResidueRoot):
            hensel_eigen(psi)

    def test_nonsplit_residue_suggests_degree(self) -> None:
        # t^2 + 1 is irreducible over F_3
        bp = inv(F3, ["0", "1"], 8)
        psi = as_psi(companion_section(bp))
        with pytest.raises(NonSplitResidue) as exc:
            hensel_eigen(psi)
        assert exc.value.suggested_degree == 2

    def test_same_spectrum_splits_over_f9(self) -> None:
        # the same residue char t^2 + 1 factors over F_9 as (t - x)(t + x)
        bp = inv(F9, ["0", "1"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        assert sorted(mu.coeff(0) for mu in eigen.ring.eigenvalues) == [3, 6]

    def test_three_by_three_split(self) -> None:
        m = M(F5, [["0", "z", "0"], ["1", "1", "z^2"], ["0", "0", "3 + z"]], 9)
        eigen = hensel_eigen(as_psi(m))
        p_sum = eigen.projectors[0]
        for pk in eigen.projectors[1:]:
            p_sum = p_sum + pk
        assert p_sum == SeriesMatrix.identity(F5, VAR_DISK, 3, p_sum.precision)
        recon = SeriesMatrix.zero(F5, VAR_DISK, 3, p_sum.precision)
        for mu, pk in zip(eigen.ring.eigenvalues, eigen.projectors):
            recon = recon + scale(pk, mu.truncate(p_sum.precision))
        assert recon.agrees_with(m)


# ==========================================================================
# eigenvalues against the full-precision lift
# ==========================================================================

# every precision to 40, each side of the doubling points 64 and 128, and
# the precision of the deep harmonic solve (160) on either side
ORACLE_PRECISIONS = [*range(1, 41), 63, 64, 65, 128, 129, 156, 161]
# over F_4 and F_9 a series product is quadratic in scalar products, so the
# full-precision lift of one rank-3 ring takes 0.4 s at N = 65, 2.6 s at 161
EXTENSION_PRECISIONS = [*range(1, 17), 31, 32, 33]


def pcurv_invariants(field: FieldSpec, n: int, precision: int) -> InvariantTuple:
    """The invariants of a seeded connection's p-curvature, split where the field allows.

    The p-curvature's residue needs only the connection's first p + 1
    orders.  Up to 200 such draws are tried; the first that splits (else
    the last) is continued to precision + p - 1 orders, whose p-curvature
    has the given precision.
    """
    rng = SplitMix64(n)
    for _ in range(200):
        a = rng.matrix(field, VAR_DISK, n, field.p + 1)
        ring = SpectralRing(pcurv(Connection(a)).matrix.invariants)
        try:
            check_residue_split(field, ring.residue_char())
            break
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
    more = precision - 2
    a = SeriesMatrix.from_rows(
        [
            [TruncSeries(field, VAR_DISK, e.coeffs + rng.series(field, VAR_DISK, more).coeffs)
             for e in row]
            for row in a.entries
        ]
    )
    return pcurv(Connection(a)).matrix.invariants


def lifted(lift, ring: SpectralRing):
    """The list of roots a lift returns, or the type and payload of the error it raises."""
    try:
        return list(lift(ring))
    except PdiskError as exc:
        return type(exc), exc.payload()


def doubling(ring: SpectralRing) -> tuple[TruncSeries, ...]:
    """SpectralRing.eigenvalues, the lift at doubling precision, as a function of the ring."""
    return ring.eigenvalues


@FIELDS
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalues_match_the_full_precision_lift(field: FieldSpec, n: int) -> None:
    """Equal roots (or equal errors: F_2 has no three distinct residue roots)."""
    precisions = ORACLE_PRECISIONS if field.k == 1 else EXTENSION_PRECISIONS
    b = pcurv_invariants(field, n, precisions[-1])
    for prec in precisions:
        ring = SpectralRing(b.truncate(prec))
        want = lifted(full_precision_eigenvalues, ring)
        assert lifted(doubling, ring) == want, prec
        assert isinstance(want, list) == (field.q >= n), prec


@pytest.mark.parametrize(
    "field, texts, want",
    [
        (F5, ["3", "2"], [(1,), (2,)]),
        (F9, ["0", "1"], [(3,), (6,)]),
        (
            F5,
            ["2", "1"],
            (RepeatedResidueRoot, "residue characteristic polynomial has a repeated root"),
        ),
        (
            F3,
            ["0", "1"],
            (NonSplitResidue, "residue spectrum does not split over the coefficient field"),
        ),
    ],
    ids=["split-F5", "split-F9", "repeated", "nonsplit"],
)
def test_eigenvalues_at_precision_one(field: FieldSpec, texts: list[str], want) -> None:
    """At N = 1 the roots are the residue roots: no Newton step is taken."""
    ring = SpectralRing(inv(field, texts, 1))
    out = lifted(doubling, ring)
    assert out == lifted(full_precision_eigenvalues, ring)
    if isinstance(out, list):
        assert [mu.coeffs for mu in out] == want
    else:
        assert (out[0], out[1]["message"]) == want


def test_eigenvalues_at_precision_zero() -> None:
    """No residue to read: the residue characteristic polynomial refuses."""
    zero = TruncSeries.zero(F5, VAR_DISK, 0)
    ring = SpectralRing(InvariantTuple((zero, zero)))
    for lift in (doubling, full_precision_eigenvalues):
        with pytest.raises(ZeroPrecision, match="coefficient 0 beyond precision 0"):
            lift(ring)


# ==========================================================================
# the eigen split on coefficient lists against the object-level loops
# ==========================================================================

# the primes of tests/test_backend_parity.py, then F_4 and F_9
SPLIT_FIELDS = [FieldSpec(p) for p in (2, 3, 5, 7, 2**31 - 1, 4294967311)] + [F4, F9]
SPLIT_PRECISIONS = [0, 1, 2, 3, 4, 5, 8, 13, 19, 160]
# a series product over F_4 and F_9 is quadratic in scalar products: the
# loops' ring and matrix products at rank 4 take about a second at N = 19
EXTENSION_SPLIT_PRECISIONS = {1: [0, 1, 2, 5, 19], 2: [0, 1, 2, 5, 19], 3: [0, 1, 2, 5, 19], 4: [0, 1, 2, 5, 8]}
SPLIT = pytest.mark.parametrize(
    "field", SPLIT_FIELDS, ids=["F2", "F3", "F5", "F7", "F2^31-1", "F4294967311", "F4", "F9"]
)


def split_matrix(field: FieldSpec, n: int, precision: int, seed: int) -> tuple[SeriesMatrix, list[int]]:
    """A seeded matrix whose residue is upper triangular, and its diagonal, distinct where q allows.

    Its residue characteristic polynomial is the product of t minus the
    diagonal, so it splits; over a field with fewer than n elements the
    diagonal repeats, and the residue root with it.
    """
    rng = SplitMix64(seed)
    m = rng.matrix(field, VAR_DISK, n, precision)
    start = rng.below(field.q)
    diagonal = [(start + i) % field.q for i in range(n)]
    if not precision:
        return m, diagonal
    rows = [
        [
            TruncSeries(field, VAR_DISK, (diagonal[i] if i == j else e.coeff(0) if j > i else 0,) + e.coeffs[1:])
            for j, e in enumerate(row)
        ]
        for i, row in enumerate(m.entries)
    ]
    return SeriesMatrix.from_rows(rows), diagonal


def kernel_basis(ring: SpectralRing) -> tuple:
    return ring.lagrange_basis


def kernel_split(ring: SpectralRing, roots: list[int]) -> tuple:
    """The roots and Lagrange basis from the two kernels, lifted from the given residue roots."""
    f, var = ring.field, ring.var
    char = [c.coeffs for c in ring.char]
    mus, invs = impl.series_hensel_roots(char, roots, ring.precision, f.p, f.k, f.modulus)
    basis = impl.series_lagrange(char, mus, invs, f.p, f.k, f.modulus)
    return (
        tuple(TruncSeries(f, var, tuple(mu)) for mu in mus),
        tuple(SpectralElement(ring, tuple(TruncSeries(f, var, tuple(c)) for c in e)) for e in basis),
    )


@SPLIT
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigen_split_matches_the_loops(field: FieldSpec, n: int) -> None:
    """Roots, basis and hensel_eigen equal the loops, precision included, or raise as they do.

    Root finding tries every element of the field (polyring.roots), so over
    the two large primes the residue roots come from the residue diagonal
    and the kernels are called with them; the other fields, and N = 0, run
    the ring's cached properties and hensel_eigen.
    """
    precisions = SPLIT_PRECISIONS if field.k == 1 else EXTENSION_SPLIT_PRECISIONS[n]
    for prec in precisions:
        m, diagonal = split_matrix(field, n, prec, 100 * n + prec)
        b = m.invariants
        if field.q > 2**16 and prec:
            roots = sorted(diagonal)
            ring = SpectralRing(b)
            mus = doubling_eigenvalues_loop(ring, roots)
            assert kernel_split(ring, roots) == (mus, lagrange_basis_loop(ring, roots)), prec
            assert [mu.precision for mu in mus] == [prec] * n
            continue
        want = lifted(doubling_eigenvalues_loop, SpectralRing(b))
        assert lifted(doubling, SpectralRing(b)) == want, prec
        basis = lifted(lagrange_basis_loop, SpectralRing(b))
        assert lifted(kernel_basis, SpectralRing(b)) == basis, prec
        # F_2 and F_3 have too few elements for four distinct residue roots
        assert isinstance(want, list) == (field.q >= n and prec > 0), prec
        if isinstance(want, list):
            eigen = hensel_eigen(FHiggs(SeriesMatrix(m.entries)))
            projectors = [eval_matrix_loop(elt, m) for elt in basis]
            assert (list(eigen.ring.eigenvalues), list(eigen.projectors)) == (want, projectors)
            # the gauge: a unit column of each projector, as hensel_eigen picks it
            cols = [next(c for c in zip(*pk.entries) if any(e.is_unit() for e in c)) for pk in projectors]
            assert eigen.gauge == SeriesMatrix.from_rows(list(zip(*cols)))
            assert {x.precision for x in (*want, *projectors, eigen.gauge)} == {prec}


@pytest.mark.parametrize(
    "field, texts, error, message",
    [
        (F5, ["2", "1"], RepeatedResidueRoot, "residue characteristic polynomial has a repeated root"),
        (F9, ["0", "0", "0"], RepeatedResidueRoot, "residue characteristic polynomial has a repeated root"),
        (F3, ["0", "1"], NonSplitResidue, "residue spectrum does not split over the coefficient field"),
        (F7, ["0", "1"], NonSplitResidue, "residue spectrum does not split over the coefficient field"),
        (F7, ["0", "1", "0"], NonSplitResidue, "residue spectrum does not split over the coefficient field"),
        (F4, ["1", "[0,1]"], NonSplitResidue, "residue spectrum does not split over the coefficient field"),
    ],
    ids=["repeated-F5", "repeated-F9", "nonsplit-F3", "nonsplit-F7", "nonsplit-rank3", "nonsplit-F4"],
)
@pytest.mark.parametrize("prec", [1, 19])
def test_eigen_split_refusals_match_the_loops(field, texts, error, message, prec: int) -> None:
    b = inv(field, texts, prec)
    for kernel, loop in ((doubling, doubling_eigenvalues_loop), (kernel_basis, lagrange_basis_loop)):
        got = lifted(kernel, SpectralRing(b))
        assert got == lifted(loop, SpectralRing(b))
        assert (got[0], got[1]["message"]) == (error, message)
    companion = companion_section(b)
    with pytest.raises(error, match=message):
        hensel_eigen(FHiggs(companion))


def test_eigen_split_at_precision_zero_refuses_as_the_loops() -> None:
    zero = TruncSeries.zero(F5, VAR_DISK, 0)
    for kernel, loop in ((doubling, doubling_eigenvalues_loop), (kernel_basis, lagrange_basis_loop)):
        got = lifted(kernel, SpectralRing(InvariantTuple((zero, zero))))
        assert got == lifted(loop, SpectralRing(InvariantTuple((zero, zero))))
        assert (got[0], got[1]["message"]) == (ZeroPrecision, "coefficient 0 beyond precision 0")


def evaluated(elt, m: SeriesMatrix, evaluate):
    """evaluate(elt, m), or the type and payload of the error it raises."""
    try:
        return evaluate(elt, m)
    except PdiskError as exc:
        return type(exc), exc.payload()


@SPLIT
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_matrix_matches_horner(field: FieldSpec, n: int) -> None:
    """Each element at each matrix equals the Horner loop, at the least precision."""
    precisions = [0, 1, 2, 7, 19, 160] if field.k == 1 else EXTENSION_SPLIT_PRECISIONS[n]
    rng = SplitMix64(field.q % 1000 + n)
    for nb in precisions:
        ring = SpectralRing(InvariantTuple(tuple(rng.series(field, VAR_DISK, nb) for _ in range(n))))
        for ne in {nb, max(nb - 1, 0)}:
            elt = ring.element([rng.series(field, VAR_DISK, ne) for _ in range(n)])
            for nm in {ne, ne + 1, max(ne - 2, 0)}:
                m = rng.matrix(field, VAR_DISK, n, nm)
                got = elt.eval_matrix(m)
                assert got == eval_matrix_loop(elt, m), (nb, ne, nm)
                assert got.precision == min(elt.precision, nm)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_matrix_refuses_another_field_or_variable(n: int) -> None:
    """As the Horner loop's products refuse; a rank-1 element, which the loop never multiplied, too."""
    rng = SplitMix64(7)
    ring = SpectralRing(InvariantTuple(tuple(rng.series(F5, VAR_DISK, 6) for _ in range(n))))
    elt = ring.element([rng.series(F5, VAR_DISK, 6) for _ in range(n)])
    for m, error, message in (
        (rng.matrix(F7, VAR_DISK, n, 6), FieldMismatch, "operands live over different coefficient fields"),
        (rng.matrix(F5, VAR_TWIST, n, 6), VarMismatch, "operands mix z with z'"),
    ):
        got = evaluated(elt, m, SpectralElement.eval_matrix)
        assert (got[0], got[1]["message"]) == (error, message)
        if n > 1:
            assert got == evaluated(elt, m, eval_matrix_loop)


# ==========================================================================
# regular_rep
# ==========================================================================


class TestRegularRep:
    def test_one_is_identity(self) -> None:
        ring = artin_schreier_ring()
        assert ring_one(ring).rep == SeriesMatrix.identity(F2, VAR_DISK, 2, 9)

    def test_taut_is_companion(self) -> None:
        for field, texts in ((F2, ["1", "z^2"]), (F3, ["z", "2 + z^2"]), (F5, ["1", "z", "4"])):
            b = inv(field, texts, 8)
            ring = SpectralRing(b)
            assert ring.tautological().rep == companion_layout(b)

    def test_ring_homomorphism(self) -> None:
        rng = SplitMix64(51)
        ring = SpectralRing(inv(F3, ["z", "2 + z^2"], 8))
        for _ in range(15):
            a = ring.element([rng.series(F3, VAR_DISK, 8) for _ in range(2)])
            b = ring.element([rng.series(F3, VAR_DISK, 8) for _ in range(2)])
            lhs = (a * b).rep
            rhs = a.rep @ b.rep
            assert lhs.agrees_with(rhs)
            assert (a + b).rep == a.rep + b.rep

    def test_eigen_frame_recovers_psi(self) -> None:
        bp = inv(F2, ["1", "z^2"], 9)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        ring = SpectralRing(bp)
        got = eigen_rep(ring.tautological(), eigen)
        assert got.agrees_with(psi.matrix)

    def test_eigen_and_cyclic_share_invariants(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        psi = as_psi(companion_section(bp))
        eigen = hensel_eigen(psi)
        ring = SpectralRing(bp)
        elt = ring.element([S(F3, "1 + z", 8), S(F3, "2", 8)])
        cyc = elt.rep
        eig = eigen_rep(elt, eigen)
        assert char_invariants(eig).agrees_with(char_invariants(cyc))

    def test_eval_matrix_on_taut(self) -> None:
        bp = inv(F3, ["z", "2 + z^2"], 8)
        m = companion_section(bp)
        ring = SpectralRing(bp)
        assert ring.tautological().eval_matrix(m) == m
        shifted = ring.element([S(F3, "z", 8), S(F3, "1", 8)])
        expect = m + SeriesMatrix.diagonal([S(F3, "z", 8)] * 2)
        assert shifted.eval_matrix(m) == expect
