"""The series kernels against slow oracles.

Over F_p the Kronecker product (series_mul, the one-pair case of
series_sum_mul, packed at every length) is checked against the schoolbook
loop and the dot-product inversion against the scalar triangular
recursion below, at the short lengths where verify-default's sums sit,
at long ones and for moduli beyond machine words.
Over F_{p^k} the kernels are checked against convolutions built from the
field's own arithmetic.  series_dot is checked over both kinds of field
against a sum of FieldSpec products, and series_sum_mul against sums of
series_mul products taken one series_add at a time.  series_derivative is
checked against FieldSpec integer multiples, and series_pcurv against the
object-level loops of tests/conftest.py (pcurv_loop, and apply for a single
column), over F_p and F_{p^k}, also at 0 steps, 1 step and as many steps
as x has coefficients; pcurv_in_ring, its caller, against
pcurv_in_ring_loop on rings with and without a zero derivation.  The matrix
kernels series_matmul, series_matinv and series_charpoly are checked
through their callers (@ and matvec, the inverse, char_invariants) against
the object-level loops matmul_loop, eliminate_loop and char_invariants_loop,
singular residues and their error included.
"""

from __future__ import annotations

import pytest

import pdisk._kernels_py as kernels
from pdisk.backend import BACKEND, impl
from pdisk.connection import Connection
from pdisk.errors import DerivationUnavailable, PdiskError, SingularGauge
from pdisk.field import FieldSpec
from pdisk.harmonic import pcurv_in_ring
from pdisk.hitchin import frobenius_base_pullback
from pdisk.matrix import InvariantTuple, SeriesMatrix, char_invariants
from pdisk.rng import SplitMix64
from pdisk.series import VAR_DISK, VAR_TWIST, TruncSeries, dot
from pdisk.spectral import SpectralRing

from conftest import (
    apply,
    char_invariants_loop,
    eliminate_loop,
    matmul_loop,
    pcurv_in_ring_loop,
    pcurv_loop,
    schoolbook_mul,
)

PRIMES = [2, 3, 5, 7, 2**31 - 1, 4294967311]
# Output lengths around SHORT are where verify-default's sums sit: most of
# them have 2 to 9 coefficients.
SHORT = 10
EXTENSIONS = [FieldSpec(3, 2, (1, 0, 1)), FieldSpec(2, 3, (1, 1, 0, 1))]
DOT_FIELDS = [FieldSpec(p) for p in PRIMES] + [
    FieldSpec(2, 2, (1, 1, 1)),
    FieldSpec(3, 2, (1, 0, 1)),
]


def scalar_inv(a, nout: int, c0inv: int, p: int) -> list[int]:
    """1/a over F_p by the triangular recursion, one product at a time."""
    out = [0] * nout
    out[0] = c0inv
    for m in range(1, nout):
        acc = 0
        for i in range(1, min(m, len(a) - 1) + 1):
            acc = (acc + a[i] * out[m - i]) % p
        out[m] = (-c0inv * acc) % p
    return out


def field_mul(field: FieldSpec, a, b, nout: int) -> list[int]:
    out = [0] * nout
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < nout:
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def field_dot(field: FieldSpec, pairs) -> int:
    acc = 0
    for x, y in pairs:
        for a, b in zip(x, y):
            acc = field.add(acc, field.mul(a, b))
    return acc


def draw(rng: SplitMix64, q: int, n: int) -> list[int]:
    return [rng.below(q) for _ in range(n)]


def test_backend_is_the_python_kernels() -> None:
    assert impl is kernels
    assert BACKEND == "python"


@pytest.mark.parametrize("p", PRIMES)
def test_kronecker_matches_schoolbook(p: int) -> None:
    rng = SplitMix64(90 + p % 1000)
    lengths = [1, 2, 4, SHORT - 1, SHORT, SHORT + 1, 2 * SHORT, 64, 200]
    for n in lengths:
        for _ in range(4):
            a, b = draw(rng, p, n), draw(rng, p, n)
            want = schoolbook_mul(a, b, n, p)
            assert impl.series_mul(a, b, n, p, 1, None) == want


@pytest.mark.parametrize("p", PRIMES)
def test_uneven_lengths_and_short_outputs(p: int) -> None:
    # operands of different lengths, nout below, between and above them
    rng = SplitMix64(190 + p % 1000)
    for _ in range(60):
        na, nb = rng.below(3 * SHORT), rng.below(3 * SHORT)
        nout = rng.below(3 * SHORT)
        a, b = draw(rng, p, na), draw(rng, p, nb)
        want = schoolbook_mul(a, b, nout, p)
        assert impl.series_mul(a, b, nout, p, 1, None) == want
        assert impl.series_mul(tuple(a), tuple(b), nout, p, 1, None) == want


@pytest.mark.parametrize("p", PRIMES)
def test_empty_inputs(p: int) -> None:
    for nout in (0, SHORT - 1, SHORT, 2 * SHORT):
        assert impl.series_mul([], [1], nout, p, 1, None) == [0] * nout
        assert impl.series_mul([1, 2 % p], [], nout, p, 1, None) == [0] * nout
        assert impl.series_sum_mul([([], [])], nout, p, 1, None) == [0] * nout
    assert impl.series_add([], [], p, 1, None) == []
    assert impl.series_neg([], p, 1, None) == []


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_full_slots_at_width_boundaries(p: int) -> None:
    # all coefficients p - 1 fill every slot to its bound; the lengths put the
    # bound just below and just above a whole number of bytes
    for bits in (8, 16, 32, 64, 72):
        n = max(1, (1 << bits) // (p - 1) ** 2)
        if n > 300:
            continue
        for m in (n - 1, n, n + 1):
            if m < 1:
                continue
            a = [p - 1] * m
            want = schoolbook_mul(a, a, m, p)
            assert impl.series_mul(a, a, m, p, 1, None) == want


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_matches_scalar_recursion(p: int) -> None:
    field = FieldSpec(p)
    rng = SplitMix64(290 + p % 1000)
    for n in (1, 2, SHORT - 1, SHORT, SHORT + 1, 40, 100):
        for _ in range(3):
            a = [1 + rng.below(p - 1)] + draw(rng, p, n - 1)
            c0inv = field.inv(a[0])
            got = impl.series_inv(a, n, c0inv, p, 1, None)
            assert got == scalar_inv(a, n, c0inv, p)
            assert impl.series_mul(a, got, n, p, 1, None) == [1] + [0] * (n - 1)
            # an operand shorter than the output
            short = a[: max(1, n // 3)]
            assert impl.series_inv(short, n, c0inv, p, 1, None) == scalar_inv(
                short, n, c0inv, p
            )


@pytest.mark.parametrize("field", EXTENSIONS, ids=str)
def test_extension_kernels_match_field(field: FieldSpec) -> None:
    p, k, mod = field.p, field.k, field.modulus
    rng = SplitMix64(490 + field.q)
    for _ in range(15):
        na, nb = 1 + rng.below(14), 1 + rng.below(14)
        a, b = draw(rng, field.q, na), draw(rng, field.q, nb)
        nout = min(na, nb)
        assert impl.series_mul(a, b, nout, p, k, mod) == field_mul(field, a, b, nout)
        assert impl.series_add(a, b, p, k, mod) == [field.add(x, y) for x, y in zip(a, b)]
        assert impl.series_neg(a, p, k, mod) == [field.neg(x) for x in a]
        if a[0]:
            inv = impl.series_inv(a, na, field.inv(a[0]), p, k, mod)
            assert field_mul(field, a, inv, na) == [1] + [0] * (na - 1)


@pytest.mark.parametrize("field", DOT_FIELDS, ids=str)
def test_series_dot_matches_field_loop(field: FieldSpec) -> None:
    p, k, mod = field.p, field.k, field.modulus
    rng = SplitMix64(590 + field.q % 1000)
    assert impl.series_dot([], p, k, mod) == 0
    for _ in range(25):
        # uneven lengths and empty operands; tuples, as series store coefficients
        pairs = [
            (draw(rng, field.q, rng.below(12)), tuple(draw(rng, field.q, rng.below(12))))
            for _ in range(rng.below(5))
        ]
        assert impl.series_dot(pairs, p, k, mod) == field_dot(field, pairs)
        flipped = [(x, reversed(y)) for x, y in pairs]
        want = field_dot(field, [(x, y[::-1]) for x, y in pairs])
        assert impl.series_dot(flipped, p, k, mod) == want
    # every digit p - 1: the largest products and sums the kernel can meet
    top = [field.q - 1] * 200
    want = field_dot(field, [(top, top), (top[:7], top), (top, top[:150])])
    pairs = [(top, top), (top[:7], reversed(top)), (top, top[:150])]
    assert impl.series_dot(pairs, p, k, mod) == want


def sum_mul_oracle(pairs, nout: int, p: int, k: int, mod) -> list[int]:
    """The sum of products one series_mul and one series_add at a time.

    Over F_{p^k}, series_mul itself is checked against FieldSpec products above.
    """
    acc = [0] * nout
    for a, b in pairs:
        acc = impl.series_add(acc, impl.series_mul(a, b, nout, p, k, mod), p, k, mod)
    return acc


def split_length(total: int, most: int) -> list[int]:
    """total as parts of at most ``most``, the largest first."""
    return [min(most, total - i) for i in range(0, total, most)]


@pytest.mark.parametrize("field", DOT_FIELDS, ids=str)
def test_series_sum_mul_matches_products(field: FieldSpec) -> None:
    p, k, mod = field.p, field.k, field.modulus
    rng = SplitMix64(690 + field.q % 1000)
    assert impl.series_sum_mul([], 0, p, k, mod) == []
    assert impl.series_sum_mul([], SHORT + 1, p, k, mod) == [0] * (SHORT + 1)
    top = 2 * SHORT if k > 1 else 3 * SHORT
    for trial in range(40 if k == 1 else 20):
        # uneven lengths and empty operands; nout below, between and above them,
        # and at the short lengths around SHORT
        pairs = [
            (draw(rng, field.q, rng.below(top)), tuple(draw(rng, field.q, rng.below(top))))
            for _ in range(rng.below(5))
        ]
        for nout in (rng.below(top), SHORT - 1, SHORT, SHORT + 1):
            want = sum_mul_oracle(pairs, nout, p, k, mod)
            assert impl.series_sum_mul(pairs, nout, p, k, mod) == want
            assert impl.series_sum_mul(iter(pairs), nout, p, k, mod) == want


@pytest.mark.parametrize("p", PRIMES)
def test_series_sum_mul_full_slots_at_width_boundaries(p: int) -> None:
    # all coefficients p - 1 in up to four pairs: the top slot of the sum adds
    # every product at its bound, and the total length puts it just below, at
    # and above a byte boundary
    for bits in (8, 16, 32, 64, 72):
        terms = (1 << bits) // (p - 1) ** 2
        for total in (terms - 1, terms, terms + 1):
            if not 1 <= total <= 4100:
                continue
            lengths = split_length(total, -(-total // 4))
            pairs = [([p - 1] * n, [p - 1] * n) for n in lengths]
            nout = lengths[0]
            want = sum_mul_oracle(pairs, nout, p, 1, None)
            assert impl.series_sum_mul(pairs, nout, p, 1, None) == want


@pytest.mark.parametrize("field", DOT_FIELDS, ids=str)
def test_series_derivative_matches_integer_multiples(field: FieldSpec) -> None:
    p, k, mod = field.p, field.k, field.modulus
    rng = SplitMix64(790 + field.q % 1000)
    assert impl.series_derivative([], p, k, mod) == []
    # lengths around p, where a multiple of p first meets a coefficient, for the small primes
    around_p = (p - 1, p, p + 1, 3 * p + 2) if p < 100 else ()
    for n in (1, 2, 3, SHORT, 40, *around_p):
        for a in (draw(rng, field.q, n), (field.q - 1,) * n):
            want = [field.scalar_mul(m, a[m]) for m in range(1, n)]
            assert impl.series_derivative(a, p, k, mod) == want


PCURV_FIELDS = [FieldSpec(p) for p in (2, 3, 5, 7, 11)] + [
    FieldSpec(2, 2, (1, 1, 1)),
    FieldSpec(3, 2, (1, 0, 1)),
]


def pcurv_lengths(p: int) -> list[int]:
    """From p + 1 up to the short lengths around SHORT, and 160."""
    short = sorted({p + 1, p + 2, SHORT - 1, SHORT, SHORT + 1} - set(range(p + 1)))
    return short + [160]


@pytest.mark.parametrize("field", PCURV_FIELDS, ids=str)
def test_series_pcurv_matches_the_loops(field: FieldSpec) -> None:
    p, k, mod = field.p, field.k, field.modulus
    steps = p - 1
    rng = SplitMix64(890 + field.q)
    for n in (1, 2, 3):
        for length in pcurv_lengths(p):
            # over F_{p^k} a step is quadratic in ext_mul calls: at length 160
            # only ranks 1 and 2 and the seed A
            deep_ext = k > 1 and length == 160
            if deep_ext and n == 3:
                continue
            a = rng.matrix(field, VAR_DISK, n, length)
            rows = [[e.coeffs for e in row] for row in a.entries]
            # c = n: the matrix loop from a random seed, and from A (the p-curvature)
            seeds = [a] if deep_ext else [rng.matrix(field, VAR_DISK, n, length), a]
            for x in seeds:
                want = pcurv_loop(a, x, steps)
                seed = [[e.coeffs for e in row] for row in x.entries]
                got = impl.series_pcurv(rows, seed, steps, p, k, mod)
                assert got == [[list(e.coeffs) for e in row] for row in want.entries]
            if deep_ext:
                continue
            # c = 1: the connection applied to one column, m longer than x by one order
            conn = Connection(a)
            col = [rng.series(field, VAR_DISK, length - 1) for _ in range(n)]
            got = impl.series_pcurv(rows, [[c.coeffs] for c in col], steps, p, k, mod)
            for _ in range(steps):
                col = apply(conn, col)
            assert got == [[list(c.coeffs)] for c in col]
            assert len(got[0][0]) == length - 1 - steps


@pytest.mark.parametrize("field", [FieldSpec(5), FieldSpec(3, 2, (1, 0, 1))], ids=str)
def test_series_pcurv_at_no_one_and_every_step(field: FieldSpec) -> None:
    # 0 steps return x, 1 step is one loop step, and as many steps as x's
    # entries have coefficients leave every entry empty
    p, k, mod = field.p, field.k, field.modulus
    rng = SplitMix64(1090 + field.q)
    for n in (1, 2):
        for length in (1, 2, 3, SHORT, SHORT + 1):
            a = rng.matrix(field, VAR_DISK, n, length)
            x = rng.matrix(field, VAR_DISK, n, length)
            rows = [[e.coeffs for e in row] for row in a.entries]
            seed = [[e.coeffs for e in row] for row in x.entries]
            assert impl.series_pcurv(rows, seed, 0, p, k, mod) == seed
            if length > 1:
                want = pcurv_loop(a, x, 1)
                got = impl.series_pcurv(rows, seed, 1, p, k, mod)
                assert got == [[list(e.coeffs) for e in row] for row in want.entries]
            got = impl.series_pcurv(rows, seed, length, p, k, mod)
            assert got == [[[]] * n for _ in range(n)]


def _outcome(compute, theta):
    try:
        return compute(theta)
    except PdiskError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", PCURV_FIELDS, ids=str)
def test_pcurv_in_ring_matches_the_loop(field: FieldSpec, n: int) -> None:
    # general bases carry a nonzero derivation, pulled-back ones a zero one;
    # theta at the ring's precision and below it, and errors compared too
    p = field.p
    rng = SplitMix64(990 + 10 * field.q + n)
    seen = set()
    for trial in range(24):
        prec = [p - 1, p, p + 1, 2 * p + 3, 19][trial % 5]
        if trial % 2:
            twist = tuple(rng.series(field, VAR_TWIST, -(-prec // p)) for _ in range(n))
            b = frobenius_base_pullback(InvariantTuple(twist)).truncate(prec)
        else:
            b = InvariantTuple(tuple(rng.series(field, VAR_DISK, prec) for _ in range(n)))
        ring = SpectralRing(b)
        for cut in (0, 1, p):
            theta = ring.element([rng.series(field, VAR_DISK, max(0, prec - cut)) for _ in range(n)])
            want = _outcome(pcurv_in_ring_loop, theta)
            assert _outcome(pcurv_in_ring, theta) == want
        try:
            seen.add(ring.derivation().is_zero())
        except DerivationUnavailable:
            seen.add(None)
    assert {True, False} <= seen


# -- the matrix kernels against the object-level loops --------------------------

MATRIX_LENGTHS = [0, 1, 2, 9, 10, 11, 19, 160]


def matrix_shapes(field: FieldSpec) -> list[tuple[int, int]]:
    """(rank, N): ranks 1-4 and rank 8 at N <= 12.

    N = 160 over the small prime fields only, as the large primes reach long
    operands in the slot test below.  The k > 1 loops are quadratic in
    ext_mul calls, so there ranks 3 and 4 take N = 0, 1, 2, 9 and 11, and
    rank 8 stops at N = 2.
    """
    if field.k > 1:
        short = [n for n in MATRIX_LENGTHS if n <= 11]
        return [(r, n) for r in (1, 2) for n in short + [19]] + [
            (r, n) for r in (3, 4) for n in short if n != 10
        ] + [(8, n) for n in short if n <= 2]
    lengths = [n for n in MATRIX_LENGTHS if n < 160 or field.p < 100]
    return [(r, n) for r in (1, 2, 3, 4) for n in lengths] + [(8, n) for n in lengths if n <= 12]


def _sparse(rng: SplitMix64, field: FieldSpec, rank: int, n: int) -> SeriesMatrix:
    """A random matrix with about a third of its entries zero."""
    zero = TruncSeries.zero(field, VAR_DISK, n)
    return SeriesMatrix.from_rows(
        [
            [zero if rng.below(3) == 0 else rng.series(field, VAR_DISK, n) for _ in range(rank)]
            for _ in range(rank)
        ]
    )


def _with_residue(m: SeriesMatrix, residue) -> SeriesMatrix:
    """m with its constant-term matrix replaced (at precision 0 there is none)."""
    if not m.precision:
        return m
    return SeriesMatrix.from_rows(
        [
            [TruncSeries(e.field, e.var, (c,) + e.coeffs[1:]) for e, c in zip(row, res)]
            for row, res in zip(m.entries, residue)
        ]
    )


def _inverse(m: SeriesMatrix):
    try:
        # a fresh matrix keeps no inverse, so this runs the kernel
        return SeriesMatrix(m.entries).inverse()
    except PdiskError as exc:
        return type(exc), str(exc)


def _inverse_loop(m: SeriesMatrix):
    try:
        return eliminate_loop(m)
    except PdiskError as exc:
        return type(exc), str(exc)


def _matrices(rng: SplitMix64, field: FieldSpec, rank: int, n: int) -> list[SeriesMatrix]:
    """A dense and a sparse matrix, and two whose residues are set.

    The first pivot of the third needs a row swap; the fourth's constant-term matrix is singular.
    """
    q = field.q
    swap = [[rng.below(q) for _ in range(rank)] for _ in range(rank)]
    swap[0][0] = 0
    if rank > 1:
        swap[1][0] = 1 + rng.below(q - 1)
    # two equal rows make the constant-term matrix singular; at rank 1 a zero residue
    singular = [[rng.below(q) for _ in range(rank)] for _ in range(rank)]
    singular[-1] = singular[0] if rank > 1 else [0]
    dense = rng.matrix(field, VAR_DISK, rank, n)
    return [
        dense,
        _sparse(rng, field, rank, n),
        _with_residue(rng.matrix(field, VAR_DISK, rank, n), swap),
        _with_residue(rng.matrix(field, VAR_DISK, rank, n), singular),
    ]


@pytest.mark.parametrize("field", DOT_FIELDS, ids=str)
def test_matrix_kernels_match_the_loops(field: FieldSpec) -> None:
    rng = SplitMix64(1090 + field.q % 1000)
    seen = set()
    for rank, n in matrix_shapes(field):
        matrices = _matrices(rng, field, rank, n)
        for m in matrices:
            other = _sparse(rng, field, rank, n)
            assert m @ other == matmul_loop(m, other)
            assert char_invariants(m) == char_invariants_loop(m)
            got, want = _inverse(m), _inverse_loop(m)
            assert got == want
            seen.add(isinstance(want, tuple))
        # operands of different precisions meet at the smaller one
        m = matrices[0]
        longer = rng.matrix(field, VAR_DISK, rank, n + 3)
        assert m @ longer == matmul_loop(m, longer)
        assert longer @ m == matmul_loop(longer, m)
        if n:
            shorter = m.truncate(n - 1)
            assert shorter @ longer == matmul_loop(shorter, longer)
        # matvec, its entries at mixed precisions
        vec = [rng.series(field, VAR_DISK, n + i % 2) for i in range(rank)]
        assert m.matvec(vec) == tuple(dot(row, vec) for row in m.entries)
    # both outcomes of the elimination were compared: an inverse and SingularGauge
    assert seen == {True, False}


def test_singular_residues_raise_the_same_error() -> None:
    f = FieldSpec(5)
    rng = SplitMix64(1190)
    for rank in (1, 2, 3):
        for n in (0, 1, 4):
            m = _matrices(rng, f, rank, n)[-1]
            got = _inverse(m)
            assert got == _inverse_loop(m)
            assert got == (SingularGauge, "constant-term matrix is singular")


def _full(field: FieldSpec, rank: int, n: int) -> SeriesMatrix:
    """Every coefficient q - 1 (every digit p - 1): the largest products and sums."""
    top = TruncSeries(field, VAR_DISK, (field.q - 1,) * n)
    return SeriesMatrix.from_rows([[top] * rank for _ in range(rank)])


def _triangular_full(field: FieldSpec, rank: int, n: int) -> SeriesMatrix:
    """Every coefficient q - 1 on and above the diagonal, zero below: invertible."""
    top = TruncSeries(field, VAR_DISK, (field.q - 1,) * n)
    zero = TruncSeries.zero(field, VAR_DISK, n)
    return SeriesMatrix.from_rows(
        [[top if j >= i else zero for j in range(rank)] for i in range(rank)]
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_matrix_kernels_full_slots_at_width_boundaries(p: int) -> None:
    # a slot of a product sums rank * N products (the inverse: N), each at most
    # (p - 1)^2; N puts that bound just below, at and above a byte boundary
    f = FieldSpec(p)
    for bits in (8, 16, 32, 64, 72):
        bound = (1 << bits) // (p - 1) ** 2
        for rank in (1, 2, 3):
            for per in (bound // rank, bound):
                for n in (per - 1, per, per + 1):
                    if not 1 <= n <= 300:
                        continue
                    m = _full(f, rank, n)
                    if per == bound // rank:
                        assert m @ m == matmul_loop(m, m)
                        assert char_invariants(m) == char_invariants_loop(m)
                    else:
                        t = _triangular_full(f, rank, n)
                        assert _inverse(t) == _inverse_loop(t)
