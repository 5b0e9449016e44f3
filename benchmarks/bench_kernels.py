"""Compare the two branches of ``series_sum_mul`` over F_p, and time the recursion kernels.

Feeds identical inputs to the list branch of ``_kernels_py.series_sum_mul``
(one schoolbook list, reduced once; forced at every length by raising
``KRONECKER_MIN`` for the run) and to ``_kernels_py._kronecker_sum_mul``,
checks the outputs agree, and reports per-call timings, the speedup, and
which branch ``series_sum_mul`` picks at each length.  The first table
times one product; the second times sums of 2 and 3 products at the short
lengths where the crossover for sums lies.  The last table times
``series_derivative`` of one entry, ``series_pcurv`` of a rank-2 matrix
(m = x, p - 1 steps: the p-curvature) and the matrix kernels
``series_matmul``, ``series_matinv`` and ``series_charpoly`` of rank-2
matrices over F_5 and F_9 at N = 19 and 160.
Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import sys
import time

import pdisk._kernels_py as kernels
from pdisk.rng import SplitMix64

PRIMES = [2, 3, 5, 7, 2**31 - 1]
LENGTHS = [4, 6, 8, 10, 12, 14, 16, 19, 24, 32, 64, 256, 1024]
SUM_PAIRS = [2, 3]
SUM_LENGTHS = range(6, 20)
# (name, p, k, modulus) and lengths of the timed recursion kernels, at rank 2
RECURSION_FIELDS = [("F5", 5, 1, None), ("F9", 3, 2, (1, 0, 1))]
RECURSION_LENGTHS = [19, 160]
BUDGET_S = 0.02  # time per clock() sample


def clock(fn, *args) -> tuple[float, object]:
    """Best of five samples of the mean call time, and the last result."""
    t0 = time.perf_counter()
    result = fn(*args)
    reps = max(1, int(BUDGET_S / max(time.perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            result = fn(*args)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best, result


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    return f"{seconds * 1e3:8.2f} ms"


def list_branch(pairs, nout: int, p: int) -> list[int]:
    """series_sum_mul over F_p; the list branch while KRONECKER_MIN is raised."""
    return kernels.series_sum_mul(pairs, nout, p, 1, None)


def row(rng: SplitMix64, crossover: int, npairs: int, p: int, n: int) -> str:
    pairs = [
        ([rng.below(p) for _ in range(n)], [rng.below(p) for _ in range(n)])
        for _ in range(npairs)
    ]
    t_list, out_list = clock(list_branch, pairs, n, p)
    t_kron, out_kron = clock(kernels._kronecker_sum_mul, pairs, n, p)
    if out_list != out_kron:
        raise SystemExit(f"kernel mismatch: pairs={npairs} p={p} n={n}")
    used = "kronecker" if n >= crossover else "list"
    return (
        f"{npairs:>5} {p:>10} {n:>5} {fmt(t_list):>12} {fmt(t_kron):>12} "
        f"{t_list / t_kron:>7.1f}x  {used}"
    )


def main() -> None:
    rng = SplitMix64(2024)
    crossover = kernels.KRONECKER_MIN
    header = f"{'pairs':>5} {'p':>10} {'n':>5} {'list':>12} {'kronecker':>12} {'speedup':>8}  used"
    print(f"series_sum_mul uses Kronecker from nout = {crossover}")
    kernels.KRONECKER_MIN = sys.maxsize
    try:
        print(header)
        for p in PRIMES:
            for n in LENGTHS:
                print(row(rng, crossover, 1, p, n))
        print()
        print(header)
        for npairs in SUM_PAIRS:
            for p in PRIMES:
                for n in SUM_LENGTHS:
                    print(row(rng, crossover, npairs, p, n))
    finally:
        kernels.KRONECKER_MIN = crossover
    print()
    print(
        f"{'field':>5} {'rank':>5} {'n':>5} {'series_derivative':>18} {'series_pcurv':>14}"
        f" {'series_matmul':>14} {'series_matinv':>14} {'series_charpoly':>16}"
    )
    for name, p, k, mod in RECURSION_FIELDS:
        for n in RECURSION_LENGTHS:
            m, b = (
                [[[rng.below(p**k) for _ in range(n)] for _ in range(2)] for _ in range(2)]
                for _ in range(2)
            )
            # a unit constant term on the diagonal and zero below it: invertible
            m[0][0][0] = m[1][1][0] = 1
            m[1][0][0] = 0
            t_deriv, _ = clock(kernels.series_derivative, m[0][0], p, k, mod)
            t_pcurv, _ = clock(kernels.series_pcurv, m, m, p - 1, p, k, mod)
            t_matmul, _ = clock(kernels.series_matmul, m, b, p, k, mod)
            t_matinv, _ = clock(kernels.series_matinv, m, p, k, mod)
            t_charpoly, _ = clock(kernels.series_charpoly, m, p, k, mod)
            print(
                f"{name:>5} {2:>5} {n:>5} {fmt(t_deriv):>18} {fmt(t_pcurv):>14}"
                f" {fmt(t_matmul):>14} {fmt(t_matinv):>14} {fmt(t_charpoly):>16}"
            )


if __name__ == "__main__":
    main()
