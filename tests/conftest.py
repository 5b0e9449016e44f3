"""Shared builders for the test corpus.

Everything constructs exact objects from short literals so pinned values
stay readable at the call site.
"""

from __future__ import annotations

import pytest

from pdisk.errors import DimensionMismatch, InternalInconsistency, SingularGauge
from pdisk.field import FieldSpec
from pdisk.jsonio import parse_series
from pdisk.matrix import InvariantTuple, SeriesMatrix
from pdisk.series import TruncSeries, dot
from pdisk.spectral import SpectralElement, SpectralRing, check_residue_split, eval_at


def S(field: FieldSpec, text: str, precision: int, var: str = "z") -> TruncSeries:
    """Series from grammar text, e.g. S(f3, '1 + 2*z^3', 7)."""
    return parse_series(field, text, var, precision, "test")


def sympy_poly(coeffs, p: int):
    """The polynomial with ascending coefficients over F_p, as a sympy oracle."""
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


def M(field: FieldSpec, rows, precision: int, var: str = "z") -> SeriesMatrix:
    """Matrix from a list of lists of grammar strings."""
    return SeriesMatrix.from_rows(
        [[S(field, cell, precision, var) for cell in row] for row in rows]
    )


def companion_layout(b: InvariantTuple) -> SeriesMatrix:
    """The companion matrix of q = det(t I - M) written out: ones below the
    diagonal and -q in the last column."""
    n, q = b.rank, SpectralRing(b).char
    zero = TruncSeries.zero(b.field, b.var, b.precision)
    one = TruncSeries.one(b.field, b.var, b.precision)
    return SeriesMatrix.from_rows(
        [[-q[i] if j == n - 1 else one if i == j + 1 else zero for j in range(n)] for i in range(n)]
    )


def spectral_product(a, b) -> list[TruncSeries]:
    """a * b in O[t]/(char_b) by convolution and reduction, at min(P_a, P_b).

    The schoolbook route: the t-polynomial product of the two
    representatives, then its top coefficients folded back by the monic
    characteristic polynomial.  An oracle for SpectralElement.__mul__.
    """
    ring = a.ring
    n, prec = ring.rank, min(a.precision, b.precision)
    zero = TruncSeries.zero(ring.field, ring.var, prec)
    prod = [zero] * (2 * n - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] = prod[i + j] + x * y
    for top in range(2 * n - 2, n - 1, -1):
        lead = prod.pop()
        for j in range(n):
            prod[top - n + j] = prod[top - n + j] - lead * ring.char[j].truncate(prec)
    return prod


def schoolbook_mul(a, b, nout: int, p: int) -> list[int]:
    """The first nout coefficients of a * b over F_p, one product at a time.

    An oracle for the packed kernels of pdisk._kernels_py.
    """
    na, nb = len(a), len(b)
    out = [0] * nout
    for i in range(min(na, nout)):
        ai = a[i]
        if ai:
            hi = min(nb, nout - i)
            for j in range(hi):
                out[i + j] = (out[i + j] + ai * b[j]) % p
    return out


def apply(conn, vec) -> tuple[TruncSeries, ...]:
    """The operator d/dz + A of a connection applied to a column vector: dv/dz + A v."""
    av = conn.matrix.matvec(vec)
    return tuple(v.derivative() + w for v, w in zip(vec, av))


def scale(m: SeriesMatrix, s: TruncSeries) -> SeriesMatrix:
    """m with every entry multiplied by the series s."""
    return m.map_entries(lambda e: e * s)


def trace(m: SeriesMatrix) -> TruncSeries:
    """The sum of the diagonal entries: b_1 of char_invariants."""
    acc = m.entry(0, 0)
    for i in range(1, m.rank):
        acc = acc + m.entry(i, i)
    return acc


def residue(m: SeriesMatrix) -> tuple[tuple[int, ...], ...]:
    """The constant-term matrix over the field."""
    return tuple(tuple(e.coeff(0) for e in row) for row in m.entries)


def eigen_rep(elt, eigen) -> SeriesMatrix:
    """A spectral element as an endomorphism in the eigen frame of a p-curvature.

    diag of its values at the eigenvalues, conjugated back by the
    eigenbasis: the endomorphism commuting with the p-curvature.  A
    reference for the cyclic frame, the element's kept matrix elt.rep.
    """
    if len(eigen.ring.eigenvalues) != elt.ring.rank:
        raise DimensionMismatch("eigen data rank does not match the ring")
    diag = SeriesMatrix.diagonal([eval_at(elt.coeffs, mu) for mu in eigen.ring.eigenvalues])
    return eigen.gauge @ diag @ eigen.gauge.inverse()


def ring_one(ring: SpectralRing) -> SpectralElement:
    """The unit of a spectral ring, at the ring's precision."""
    return ring.element([TruncSeries.one(ring.field, ring.var, ring.precision)])


def full_precision_eigenvalues(ring: SpectralRing) -> tuple[TruncSeries, ...]:
    """The roots of char_b by bit_length(N - 1) + 1 Newton steps, each at precision N.

    An oracle for SpectralRing.eigenvalues, which lifts at doubling
    precision: the same residue roots in the same order, the same
    certificate and the same errors.
    """
    prec = ring.precision
    mus = []
    for r in check_residue_split(ring.field, ring.residue_char()):
        mu = TruncSeries.monomial(ring.field, ring.var, 0, prec, r)
        for _ in range(max(1, (prec - 1).bit_length() + 1)):
            mu = mu - eval_at(ring.char, mu) * eval_at(ring.dchar, mu).inverse()
        if not eval_at(ring.char, mu).is_zero():
            raise InternalInconsistency("Newton lifting failed to converge")
        mus.append(mu)
    return tuple(mus)


def doubling_eigenvalues_loop(ring: SpectralRing, roots=None) -> tuple[TruncSeries, ...]:
    """The roots of char_b lifted at precisions 1, 2, 4, ..., N, one series operation at a time.

    The loop SpectralRing.eigenvalues ran before it became one
    series_hensel_roots call: each step zero-extends mu to min(2P, N) and
    applies mu - char(mu) * char'(mu)^(-1), with a fresh series inverse, and
    the roots are certified at N.  An oracle for the kernel.  The residue
    roots are check_residue_split's unless given.
    """
    f, var, prec = ring.field, ring.var, ring.precision
    if roots is None:
        roots = check_residue_split(f, ring.residue_char())
    mus = []
    for r in roots:
        mu = TruncSeries.monomial(f, var, 0, 1, r)
        while mu.precision < prec:
            mu = TruncSeries(f, var, (mu.coeffs + (0,) * mu.precision)[:prec])
            mu = mu - eval_at(ring.char, mu) * eval_at(ring.dchar, mu).inverse()
        if not eval_at(ring.char, mu).is_zero():
            raise InternalInconsistency("Newton lifting failed to converge")
        mus.append(mu)
    return tuple(mus)


def lagrange_basis_loop(ring: SpectralRing, roots=None) -> tuple[SpectralElement, ...]:
    """L_i = prod over j != i of (t - mu_j) / (mu_i - mu_j), one ring product at a time.

    The product form SpectralRing.lagrange_basis ran before it became one
    series_lagrange call: n - 1 ring products and n - 1 series inverses per
    basis element, at the roots of doubling_eigenvalues_loop.
    """
    mus = doubling_eigenvalues_loop(ring, roots)
    basis = []
    for i, mu in enumerate(mus):
        elt = ring_one(ring)
        for j, other in enumerate(mus):
            if j != i:
                c = (mu - other).inverse()
                elt = elt * ring.element([-(other * c), c])
        basis.append(elt)
    return tuple(basis)


def eval_matrix_loop(elt: SpectralElement, m: SeriesMatrix) -> SeriesMatrix:
    """The representative evaluated at m by Horner, one matrix operation at a time.

    The loop SpectralElement.eval_matrix ran before it became one
    series_polyval call, with the leading coefficient cut to m's precision.
    """
    n = m.rank
    *rest, lead = elt.coeffs
    acc = SeriesMatrix.diagonal([lead.truncate(min(lead.precision, m.precision))] * n)
    for c in reversed(rest):
        acc = (acc @ m) + SeriesMatrix.diagonal([c] * n)
    return acc


def pcurv_loop(a: SeriesMatrix, x: SeriesMatrix, steps: int) -> SeriesMatrix:
    """X -> dX/dz + A X applied ``steps`` times to X, one matrix operation at a time.

    The loop Connection.p_curvature ran before the recursion became one
    kernel call: pcurv_loop(A, A, p - 1) is the p-curvature.  An oracle for
    _kernels_py.series_pcurv with c = n.
    """
    for _ in range(steps):
        x = x.derivative() + a @ x
    return x


def pcurv_in_ring_loop(theta):
    """r -> D(r) + theta r applied p - 1 times to theta, one ring operation at a time.

    The loop pcurv_in_ring ran before it became one kernel call: seeded at
    theta cut to min(its precision, the ring's - 1), with the same errors in
    the same order.  An oracle for pcurv_in_ring.
    """
    ring = theta.ring
    ring.derivation()
    r = theta.truncate(max(0, min(theta.precision, ring.precision - 1)))
    for _ in range(ring.field.p - 1):
        r = r.derivative() + theta * r
    return r


def matmul_loop(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """a @ b with one ``dot`` per entry, at the smaller precision.

    The product SeriesMatrix.__matmul__ formed before it became one
    series_matmul call.  An oracle for _kernels_py.series_matmul.
    """
    cols = tuple(zip(*b.entries))
    return SeriesMatrix.from_rows([[dot(row, col) for col in cols] for row in a.entries])


def eliminate_loop(m: SeriesMatrix) -> SeriesMatrix:
    """The inverse by elimination on [A | I], one series operation at a time.

    The body SeriesMatrix._eliminate ran before it became one series_matinv
    call: the pivot is the first row, from the diagonal down, whose entry is
    a unit, and zero entries are skipped; SingularGauge when no pivot exists.
    """
    n = m.rank
    ident = SeriesMatrix.identity(m.field, m.var, n, m.precision).entries
    rows = [list(a + e) for a, e in zip(m.entries, ident)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col].is_unit()), None)
        if piv is None:
            raise SingularGauge("constant-term matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        ipiv = rows[col][col].inverse()
        rows[col] = [e if e.is_zero() else e * ipiv for e in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and not f.is_zero():
                rows[r] = [a if b.is_zero() else a - f * b for a, b in zip(rows[r], rows[col])]
    return SeriesMatrix.from_rows([row[n:] for row in rows])


def char_invariants_loop(m: SeriesMatrix) -> InvariantTuple:
    """Berkowitz's recursion with one ``dot`` per coefficient, as char_invariants ran it.

    det(t I - A) of the leading k x k block A, descending in t: bordering A
    by row r, column c and corner a multiplies it by the Toeplitz matrix
    with first column 1, -a, -r c, -r A c, ..., -r A^(k-1) c.  An oracle for
    _kernels_py.series_charpoly.
    """
    n, e = m.rank, m.entries
    one = TruncSeries.one(m.field, m.var, m.precision)
    charpoly = [one]
    for k in range(n):
        r = e[k][:k]
        c = [row[k] for row in e[:k]]
        column = [one, -e[k][k]]
        for j in range(k):
            if j:
                c = [dot(row[:k], c) for row in e[:k]]
            column.append(-dot(r, c))
        charpoly = [dot(column[: i + 1], charpoly[i::-1]) for i in range(k + 1)] + [
            dot(column[1:], charpoly[::-1])
        ]
    return InvariantTuple(tuple(x if i % 2 == 0 else -x for i, x in enumerate(charpoly[1:], 1)))


@pytest.fixture
def f2() -> FieldSpec:
    return FieldSpec(2)


@pytest.fixture
def f3() -> FieldSpec:
    return FieldSpec(3)


@pytest.fixture
def f5() -> FieldSpec:
    return FieldSpec(5)


@pytest.fixture
def f4() -> FieldSpec:
    # F_4 = F_2[x]/(x^2+x+1)
    return FieldSpec(2, 2, (1, 1, 1))


@pytest.fixture
def f9() -> FieldSpec:
    # F_9 = F_3[x]/(x^2+1)
    return FieldSpec(3, 2, (1, 0, 1))
