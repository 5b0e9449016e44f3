"""Time the series objects (construction, sums, products, derivatives, sums of
products, matrix products) and the two p-curvatures built on them.

The public constructors ``TruncSeries(...)`` and ``SeriesMatrix(...)`` check
their data; a result computed from checked operands skips that check, and
the ``a + b`` column shows what such a result costs beside a checked build.
This reports per-call timings (best of five, as ``bench_kernels.py``) over
F_5 and F_9 at the lengths the workloads use: 4 to 19 on the verify grid,
160 in the deep harmonic solve.  The last table times ``dot`` of two pairs
and the matrix product ``@`` over F_5: at rank 2, the largest rank the
workloads multiply, at N = 19 and N = 160, and at ranks 3 and 4, which no
workload reaches, to show how the product scales.  The p-curvature table times
``pcurv`` and ``pcurv_in_ring`` at rank 2 over F_5 at N = 19 and N = 160 and
over F_9 at N = 19 (``time_pcurv``):
``pcurv`` on a fresh ``Connection`` per call, so the value a connection
keeps is never what is timed, and ``pcurv_in_ring`` on the theta that
``solve_harmonic`` certifies.  The spectral table times, over F_5 and F_9
at ranks 2 and 3, N = 19 and N = 160, on a random base: the inverse of a
random unit of the spectral ring, ``companion_section`` of the base,
``polyring.gcd`` of the unit's residue with the residue characteristic
polynomial (the unit test of ``SpectralElement.is_unit``), the product of
the unit with a random element, once with the unit's multiplication matrix
kept from an earlier product and once from a fresh copy of the unit that
must form it, and ``char_invariants`` of that matrix.  The inverse, too, is
timed on a fresh copy, since an element keeps its inverse.  The eigenvalue
table times ``SpectralRing.eigenvalues`` over F_5 and F_9 at ranks 2 and 3,
N = 19 and N = 160, on the invariants of a split p-curvature (as
``hensel_eigen`` reads them), with a fresh ring per call, since a ring keeps
its eigenvalues.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_series.py
"""

from __future__ import annotations

from bench_kernels import clock, fmt

from pdisk import polyring
from pdisk.connection import Connection, pcurv
from pdisk.errors import NonSplitResidue, RepeatedResidueRoot
from pdisk.field import FieldSpec
from pdisk.harmonic import pcurv_in_ring, solve_harmonic
from pdisk.hitchin import char_invariants, companion_section
from pdisk.matrix import InvariantTuple, SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import TruncSeries, VAR_DISK, dot
from pdisk.spectral import SpectralElement, SpectralRing, check_residue_split

FIELDS = {"F5": FieldSpec(5), "F9": FieldSpec(3, 2, (1, 0, 1))}
LENGTHS = [4, 10, 19, 160]
RANKS = [2, 3]
MATRIX_PRECISION = 19
# (rank, precision) of the timed matrix products over F_5
PRODUCT_SHAPES = [(2, 19), (2, 160), (3, 60), (4, 160)]
DOT_PRECISION = 19
# (field, precision) of the timed p-curvatures at rank 2
PCURV_SHAPES = [("F5", 19), ("F5", 160), ("F9", 19)]
# precisions of the timed spectral operations and eigenvalues, at each field and rank
SPECTRAL_PRECISIONS = [19, 160]


def split_pcurv_invariants(rng: SplitMix64, f: FieldSpec, r: int, n: int) -> InvariantTuple:
    """The invariants, at precision n, of a random connection's p-curvature that splits.

    The p-curvature's residue needs only the connection's first p + 1
    orders, so those are drawn until it splits and then continued to the
    n + p - 1 orders whose p-curvature has precision n.
    """
    while True:
        m = rng.matrix(f, VAR_DISK, r, f.p + 1)
        ring = SpectralRing(pcurv(Connection(m)).matrix.invariants)
        try:
            check_residue_split(f, ring.residue_char())
            break
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
    rows = [
        [TruncSeries(f, VAR_DISK, e.coeffs + rng.series(f, VAR_DISK, n - 2).coeffs) for e in row]
        for row in m.entries
    ]
    return pcurv(Connection(SeriesMatrix.from_rows(rows))).matrix.invariants


def time_pcurv(rng: SplitMix64, f: FieldSpec, n: int) -> tuple[float, float]:
    """Seconds per call of pcurv (a fresh Connection) and pcurv_in_ring, at rank 2.

    Both on a random connection that solve_harmonic accepts, pcurv_in_ring
    on the theta it certifies.
    """
    while True:
        m = rng.matrix(f, VAR_DISK, 2, n)
        try:
            theta = solve_harmonic(Connection(m)).harmonic.theta
            break
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
    t_pcurv, _ = clock(lambda: pcurv(Connection(m)))
    t_ring, _ = clock(pcurv_in_ring, theta)
    return t_pcurv, t_ring


def main() -> None:
    rng = SplitMix64(2024)

    def draw(f: FieldSpec, n: int) -> tuple[int, ...]:
        return tuple(rng.below(f.q) for _ in range(n))

    print(
        f"{'field':>5} {'n':>5} {'TruncSeries()':>14} {'a + b':>12} {'a * b':>12} {'d/dz':>12}"
    )
    for name, f in FIELDS.items():
        for n in LENGTHS:
            cs = draw(f, n)
            a = TruncSeries(f, VAR_DISK, cs)
            b = TruncSeries(f, VAR_DISK, draw(f, n))
            t_make, _ = clock(TruncSeries, f, VAR_DISK, cs)
            t_add, _ = clock(a.__add__, b)
            t_mul, _ = clock(a.__mul__, b)
            t_deriv, _ = clock(a.derivative)
            print(
                f"{name:>5} {n:>5} {fmt(t_make):>14} {fmt(t_add):>12} {fmt(t_mul):>12}"
                f" {fmt(t_deriv):>12}"
            )
    print(f"{'field':>5} {'rank':>5} {'SeriesMatrix()':>14}  (N = {MATRIX_PRECISION})")
    for name, f in FIELDS.items():
        for r in RANKS:
            rows = tuple(
                tuple(TruncSeries(f, VAR_DISK, draw(f, MATRIX_PRECISION)) for _ in range(r))
                for _ in range(r)
            )
            t_matrix, _ = clock(SeriesMatrix, rows)
            print(f"{name:>5} {r:>5} {fmt(t_matrix):>14}")
    f = FIELDS["F5"]

    def series(n: int) -> TruncSeries:
        return TruncSeries(f, VAR_DISK, draw(f, n))

    xs, ys = [series(DOT_PRECISION) for _ in range(2)], [series(DOT_PRECISION) for _ in range(2)]
    t_dot, _ = clock(dot, xs, ys)
    print(f"{'field':>5} {'rank':>5} {'N':>5} {'op':>12} {'time':>12}")
    print(f"{'F5':>5} {'-':>5} {DOT_PRECISION:>5} {'dot, 2 pairs':>12} {fmt(t_dot):>12}")
    for r, n in PRODUCT_SHAPES:
        a, b = (
            SeriesMatrix(tuple(tuple(series(n) for _ in range(r)) for _ in range(r)))
            for _ in range(2)
        )
        t_matmul, _ = clock(a.__matmul__, b)
        print(f"{'F5':>5} {r:>5} {n:>5} {'a @ b':>12} {fmt(t_matmul):>12}")
    print(f"{'field':>5} {'rank':>5} {'N':>5} {'op':>14} {'time':>12}")
    for name, n in PCURV_SHAPES:
        t_pcurv, t_ring = time_pcurv(rng, FIELDS[name], n)
        print(f"{name:>5} {2:>5} {n:>5} {'pcurv':>14} {fmt(t_pcurv):>12}")
        print(f"{name:>5} {2:>5} {n:>5} {'pcurv_in_ring':>14} {fmt(t_ring):>12}")
    print(
        f"{'field':>5} {'rank':>5} {'N':>5} {'inverse':>12} {'companion':>12} {'gcd':>12}"
        f" {'x * y kept':>12} {'x * y fresh':>12} {'char_inv':>12}"
    )
    for name, f in FIELDS.items():
        for r in RANKS:
            for n in SPECTRAL_PRECISIONS:
                b = InvariantTuple(tuple(rng.series(f, VAR_DISK, n) for _ in range(r)))
                ring = SpectralRing(b)
                while True:
                    x = ring.element([rng.series(f, VAR_DISK, n) for _ in range(r)])
                    if x.is_unit():
                        break
                y = ring.element([rng.series(f, VAR_DISK, n) for _ in range(r)])

                def fresh() -> SpectralElement:
                    return SpectralElement(ring, x.coeffs)

                t_inv, _ = clock(lambda: fresh().inverse())
                t_comp, _ = clock(companion_section, b)
                residue = polyring.trim([c.coeff(0) for c in x.coeffs])
                t_gcd, _ = clock(polyring.gcd, f, residue, ring.residue_char())
                t_kept, _ = clock(x.__mul__, y)
                t_fresh, _ = clock(lambda: fresh() * y)
                t_char, _ = clock(char_invariants, x.rep)
                print(
                    f"{name:>5} {r:>5} {n:>5} {fmt(t_inv):>12} {fmt(t_comp):>12} {fmt(t_gcd):>12}"
                    f" {fmt(t_kept):>12} {fmt(t_fresh):>12} {fmt(t_char):>12}"
                )
    print(f"{'field':>5} {'rank':>5} {'N':>5} {'eigenvalues':>12}")
    for name, f in FIELDS.items():
        for r in RANKS:
            for n in SPECTRAL_PRECISIONS:
                b = split_pcurv_invariants(rng, f, r, n)
                t_eig, _ = clock(lambda: SpectralRing(b).eigenvalues)
                print(f"{name:>5} {r:>5} {n:>5} {fmt(t_eig):>12}")


if __name__ == "__main__":
    main()
