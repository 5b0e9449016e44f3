"""Run one pdisk benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload harmonic-deep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the set-up
time of fresh interpreters, then work units for ``--seconds`` seconds in this
one single-threaded process.  ``--trace 1`` runs a fixed number of units of
the seed twice, untraced and then with every pdisk layer wrapped (see
``spans.py``), checks that both passes emit the same bytes, and reports the
per-layer metrics and the kernel micro-table.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable summary and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from spec import END_TO_END, MICRO_FIELDS, MICRO_LENGTHS, SPANS, SUITES, micro_name, per_layer
from workloads import Stream, Unit, field_args, make

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Units of a seed that a traced run replays and that the recorded digests cover.
FIXED_UNITS = {"verify-default": 12, "harmonic-deep": 5, "roundtrip-ext": 8}
# A timed run does at least this many units: with 21 or more samples the tail, which
# has ten samples beyond it, lies at or above the median.
MIN_UNITS = {"verify-default": 21, "harmonic-deep": 21, "roundtrip-ext": 21}
SETUP_RUNS = 9
SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import pdisk; "
    "from pdisk.field import FieldSpec; [FieldSpec(*a) for a in json.loads(sys.argv[2])]"
)
DIGESTS = HERE / "digests.json"


def load_pdisk():
    """Import pdisk from this checkout's src/, never from anywhere else."""
    if not (SRC / "pdisk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pdisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdisk

    if Path(pdisk.__file__).resolve().parent != (SRC / "pdisk").resolve():
        raise SystemExit(f"perfbench: imported pdisk from {pdisk.__file__}, not {SRC}")
    return pdisk


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level.

    That is the 11th largest sample, the nearest-rank percentile 100 (n - 10) / n.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def digest(units: list[Unit]) -> str:
    return hashlib.sha256(b"\n".join(u.output for u in units)).hexdigest()


def run_checked(work) -> Unit:
    """One unit; an unexpected error counts as a failed unit and the run goes on."""
    t0 = time.perf_counter()
    try:
        return work.run_unit()
    except Exception:
        return Unit(time.perf_counter() - t0, 1, 1, b"", notes=[traceback.format_exc()])


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters importing pdisk and building the fields.

    No timeout is passed: with one, subprocess polls the child with sleeps of up
    to 50 ms, which would round every measurement up to the polling schedule.
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(field_args(workload))]
    subprocess.run(cmd, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_us(call) -> float:
    t0 = time.perf_counter()
    call()
    once = time.perf_counter() - t0
    if once >= 0.02:
        return once * 1e6
    reps = math.ceil(0.02 / max(once, 1e-7))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def micro_table(seed: int) -> dict[str, float]:
    """Microseconds per kernel call at fixed lengths, on random inputs of the seed."""
    from pdisk.backend import impl
    from pdisk.field import FieldSpec

    stream = Stream(seed)
    out = {}
    for label, p, k, modulus in MICRO_FIELDS:
        field = FieldSpec(p, k, modulus)
        mod = field.modulus
        for n in MICRO_LENGTHS:
            a = [1 + stream.below(field.q - 1)] + [stream.below(field.q) for _ in range(n - 1)]
            b = [stream.below(field.q) for _ in range(n)]
            c0inv = field.inv(a[0])
            out[micro_name("series_mul", label, n)] = _per_call_us(
                lambda: impl.series_mul(a, b, n, p, k, mod)
            )
            out[micro_name("series_inv", label, n)] = _per_call_us(
                lambda: impl.series_inv(a, n, c0inv, p, k, mod)
            )
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's git metadata, read directly; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(pdisk, seed: int, loadavg: tuple[float, ...]) -> dict:
    return {
        "backend": pdisk.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
        "loadavg": list(loadavg),
    }


def _recorded_digest(workload: str, seed: int) -> str | None:
    try:
        entry = json.loads(DIGESTS.read_text())[workload]
    except (OSError, KeyError):
        return None
    return entry["sha256"] if entry["seed"] == seed else None


def _check_digest(workload: str, seed: int, units: list[Unit], problems: list[str]) -> None:
    expected = _recorded_digest(workload, seed)
    got = digest(units[: FIXED_UNITS[workload]])
    if expected is not None and got != expected:
        problems.append(f"output digest {got} differs from the recorded {expected}")


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[Unit], list[str]]:
    setup = setup_seconds(workload)
    work = make(workload, seed)
    units: list[Unit] = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS[workload] or time.perf_counter() - start < seconds:
        units.append(run_checked(work))
    samples = [u.seconds for u in units]
    done = sum(u.attempted - u.failed for u in units)
    tail_s, level = tail(samples)
    problems: list[str] = []
    _check_digest(workload, seed, units, problems)
    print(f"item_s.tail is p{level:.1f} of {len(samples)} samples (the 11th largest)")
    metrics = {
        "items_per_s": done / sum(samples),
        "item_s.p50": statistics.median(samples),
        "item_s.tail": tail_s,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, units, problems


def traced_run(workload: str, seed: int) -> tuple[dict, list[Unit], list[str]]:
    count = FIXED_UNITS[workload]
    work = make(workload, seed)
    t0 = time.perf_counter()
    plain = [run_checked(work) for _ in range(count)]
    plain_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    work = make(workload, seed)
    patches = spans.install(tracer)
    try:
        t0 = time.perf_counter()
        traced = [run_checked(work) for _ in range(count)]
        traced_s = time.perf_counter() - t0
    finally:
        patches.restore()

    problems: list[str] = [n for u in plain for n in u.notes]
    if [u.output for u in traced] != [u.output for u in plain]:
        problems.append(f"traced output digest {digest(traced)} differs from untraced {digest(plain)}")
    _check_digest(workload, seed, plain, problems)

    metrics: dict[str, float] = {}
    for name, _, _ in SPANS:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = sum(u.suite_s.get(suite, 0.0) for u in plain)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics.update(micro_table(seed))
    for name, _, _ in per_layer():
        if name not in metrics:
            metrics[name] = tracer.counts[name]
    return metrics, traced, problems


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(FIXED_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pdisk = load_pdisk()

    if args.trace:
        metrics, units, problems = traced_run(args.workload, args.seed)
        specs = per_layer()
    else:
        metrics, units, problems = timed_run(args.workload, args.seed, args.seconds)
        specs = [(n, u, b) for n, u, b, _ in END_TO_END]
    problems += [n for u in units for n in u.notes]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    rejected = sum(u.rejected for u in units)
    correct = failed == 0 and not problems

    print(
        f"workload {args.workload} seed {args.seed}: {len(units)} units, "
        f"{attempted} items attempted, {failed} failed, {rejected} rejected draws"
    )
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for name, unit, _ in specs:
        print(f"{name} {metrics[name]:.6g} {unit}")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(environment(pdisk, args.seed, loadavg), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
