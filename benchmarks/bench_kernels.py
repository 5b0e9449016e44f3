"""Time the series kernels per call.

Times ``series_mul`` (over F_p one packed ``_linear`` sum at every
length), ``series_derivative`` of one entry, ``series_pcurv`` of a rank-2
matrix (m = x, p - 1 steps: the p-curvature, from N = p + 1 on) and the
matrix kernels ``series_matmul``, ``series_matinv`` and
``series_charpoly`` of rank-2 matrices, over F_5 and F_9, at the short
lengths of the verify grid and at N = 160.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

import pdisk._kernels_py as kernels
from pdisk.rng import SplitMix64

# (name, p, k, modulus) and lengths of the timed kernels, at rank 2
KERNEL_FIELDS = [("F5", 5, 1, None), ("F9", 3, 2, (1, 0, 1))]
KERNEL_LENGTHS = [2, 4, 8, 19, 160]
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


def main() -> None:
    rng = SplitMix64(2024)
    print(
        f"{'field':>5} {'rank':>5} {'n':>5} {'series_mul':>12} {'series_derivative':>18}"
        f" {'series_pcurv':>14} {'series_matmul':>14} {'series_matinv':>14}"
        f" {'series_charpoly':>16}"
    )
    for name, p, k, mod in KERNEL_FIELDS:
        for n in KERNEL_LENGTHS:
            m, b = (
                [[[rng.below(p**k) for _ in range(n)] for _ in range(2)] for _ in range(2)]
                for _ in range(2)
            )
            # a unit constant term on the diagonal and zero below it: invertible
            m[0][0][0] = m[1][1][0] = 1
            m[1][0][0] = 0
            t_mul, _ = clock(kernels.series_mul, m[0][0], b[0][0], n, p, k, mod)
            t_deriv, _ = clock(kernels.series_derivative, m[0][0], p, k, mod)
            # the p-curvature needs N > p
            t_pcurv = clock(kernels.series_pcurv, m, m, p - 1, p, k, mod)[0] if n > p else None
            t_matmul, _ = clock(kernels.series_matmul, m, b, p, k, mod)
            t_matinv, _ = clock(kernels.series_matinv, m, p, k, mod)
            t_charpoly, _ = clock(kernels.series_charpoly, m, p, k, mod)
            print(
                f"{name:>5} {2:>5} {n:>5} {fmt(t_mul):>12} {fmt(t_deriv):>18}"
                f" {fmt(t_pcurv) if t_pcurv else '-':>14} {fmt(t_matmul):>14} {fmt(t_matinv):>14}"
                f" {fmt(t_charpoly):>16}"
            )


if __name__ == "__main__":
    main()
