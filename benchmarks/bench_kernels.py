"""Compare the Kronecker product over F_p against the schoolbook loop.

Feeds identical inputs to ``_kernels_py._kronecker_sum_mul`` (one pair) and
``_kernels_py._schoolbook_mul``, checks the outputs agree, and reports
per-call timings, the speedup, and which one ``series_mul`` picks at each
length (``KRONECKER_MIN``).  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

import pdisk._kernels_py as kernels
from pdisk.rng import SplitMix64

PRIMES = [2, 3, 5, 7, 2**31 - 1]
LENGTHS = [4, 6, 8, 10, 12, 14, 16, 19, 24, 32, 64, 256, 1024]
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
    print(f"series_mul uses Kronecker from nout = {kernels.KRONECKER_MIN}")
    print(f"{'p':>10} {'n':>5} {'schoolbook':>12} {'kronecker':>12} {'speedup':>8}  used")
    for p in PRIMES:
        for n in LENGTHS:
            a = [rng.below(p) for _ in range(n)]
            b = [rng.below(p) for _ in range(n)]
            t_school, out_school = clock(kernels._schoolbook_mul, a, b, n, p)
            t_kron, out_kron = clock(kernels._kronecker_sum_mul, [(a, b)], n, p)
            if out_school != out_kron:
                raise SystemExit(f"kernel mismatch: p={p} n={n}")
            used = "kronecker" if n >= kernels.KRONECKER_MIN else "schoolbook"
            print(
                f"{p:>10} {n:>5} {fmt(t_school):>12} {fmt(t_kron):>12} "
                f"{t_school / t_kron:>7.1f}x  {used}"
            )


if __name__ == "__main__":
    main()
