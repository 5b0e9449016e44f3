"""Seeded inputs and the three benchmark workloads.

Inputs come from the benchmark's own splitmix stream, so pdisk sees only the
generated connection documents (or, for ``verify-default``, the seeds it is
given).  One call of ``run_unit`` does one unit of work and checks it:

- ``verify-default``: one sweep of the six ``pdisk.verify`` suites on the
  ``pdisk verify`` default grid, with ``VERIFY_TRIALS`` trials per cell so
  that a run holds many sweeps.  Each sweep splits its seed into suite seeds
  exactly as ``run_suite("all", ...)`` does, so its report is byte-identical
  to ``pdisk verify --trials 2 --seed <seed> --json``; sweep 0 uses the run
  seed itself.
- ``harmonic-deep`` and ``roundtrip-ext``: one certified instance.  Connection
  documents are drawn and parsed until ``solve_harmonic`` accepts one; both
  round-trip compositions are checked as the verify ``roundtrip`` suite checks
  them; the package is emitted as canonical JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from spec import SUITES

_MASK = (1 << 64) - 1

VERIFY_PS = [2, 3, 5]
VERIFY_RANKS = [1, 2]
VERIFY_TRIALS = 2

# name -> (p, k, modulus, rank, precision)
CORRESPONDENCE = {
    "harmonic-deep": (5, 1, None, 2, 160),
    "roundtrip-ext": (3, 2, (1, 0, 1), 2, 22),
}


class Stream:
    """splitmix64: the benchmark's only source of input randomness."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


def field_args(workload: str) -> list[tuple]:
    """The FieldSpec arguments a workload builds, for the set-up measurement."""
    if workload == "verify-default":
        return [(p,) for p in VERIFY_PS]
    p, k, modulus, _, _ = CORRESPONDENCE[workload]
    return [(p,)] if k == 1 else [(p, k, modulus)]


def _coefficient(stream: Stream, p: int, k: int) -> str | None:
    digits = [stream.below(p) for _ in range(k)]
    if not any(digits):
        return None
    if k == 1:
        return str(digits[0])
    return "[" + ",".join(map(str, digits)) + "]"


def connection_document(stream: Stream, p: int, k: int, modulus, rank: int, precision: int) -> dict:
    """A uniformly random rank x rank connection matrix as a pdisk JSON document."""
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            terms = []
            for m in range(precision):
                c = _coefficient(stream, p, k)
                if c is not None:
                    terms.append(c if m == 0 else f"{c}*z^{m}")
            row.append(" + ".join(terms) or "0")
        rows.append(row)
    return {
        "p": p,
        "ext_degree": k,
        "modulus": list(modulus) if modulus is not None else None,
        "var": "z",
        "precision": precision,
        "rank": rank,
        "matrix": rows,
    }


@dataclass
class Unit:
    """One unit of work: its latency, checks and output bytes."""

    seconds: float
    attempted: int
    failed: int
    output: bytes
    rejected: int = 0
    suite_s: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class VerifySweeps:
    """Sweeps of the six verify suites; one latency sample per sweep."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # later sweeps draw their seeds from a stream apart from the suite-seed stream
        self.seeds = Stream(seed ^ _MASK)
        self.sweeps = 0

    def run_unit(self) -> Unit:
        from pdisk import jsonio, verify

        seed = self.seed if self.sweeps == 0 else self.seeds.next_u64()
        self.sweeps += 1
        suite_seeds = Stream(seed)
        reports, suite_s, notes = [], {}, []
        failed = 0
        for name in SUITES:
            t0 = time.perf_counter()
            report = verify.run_suite(
                name, VERIFY_PS, VERIFY_RANKS, None, VERIFY_TRIALS, suite_seeds.next_u64()
            )
            suite_s[name] = time.perf_counter() - t0
            reports.append(report)
            failed += report["fail"]
            if report["fail"]:
                notes.append(f"suite {name} seed {seed}: {report['failure']}")
        # the shape run_suite("all", ...) returns, so the bytes match `pdisk verify --json`
        combined = {
            "suite": "all",
            "parameters": {
                "p": VERIFY_PS,
                "rank": VERIFY_RANKS,
                "precision": None,
                "trials": VERIFY_TRIALS,
                "seed": seed,
            },
            "suites": reports,
            "pass": sum(r["pass"] for r in reports),
            "fail": failed,
            "total": sum(r["total"] for r in reports),
        }
        output = jsonio.dumps_canonical(combined, compact=True).encode()
        sweep_s = sum(suite_s.values())
        return Unit(sweep_s, combined["total"], failed, output, suite_s=suite_s, notes=notes)


class CertifiedInstances:
    """Certified correspondence instances over one field, rank and precision."""

    def __init__(self, workload: str, seed: int) -> None:
        self.p, self.k, self.modulus, self.rank, self.precision = CORRESPONDENCE[workload]
        self.stream = Stream(seed)

    def run_unit(self) -> Unit:
        from pdisk import NonSplitResidue, PdiskError, RepeatedResidueRoot, jsonio

        elapsed = 0.0
        rejected = 0
        try:
            while True:
                doc = connection_document(
                    self.stream, self.p, self.k, self.modulus, self.rank, self.precision
                )
                t0 = time.perf_counter()
                try:
                    conn = jsonio.connection_from_json(doc)
                    pkg = _solve(conn)
                except (NonSplitResidue, RepeatedResidueRoot):
                    rejected += 1
                    continue
                finally:
                    elapsed += time.perf_counter() - t0
                break
            t0 = time.perf_counter()
            problems = _roundtrip_problems(conn, pkg)
            output = jsonio.dumps_canonical(jsonio.package_to_json(pkg), compact=True).encode()
            elapsed += time.perf_counter() - t0
        except PdiskError as exc:
            return Unit(elapsed, 1, 1, b"", rejected, notes=[f"{type(exc).__name__}: {exc}"])
        return Unit(elapsed, 1, 1 if problems else 0, output, rejected, notes=problems)


def _solve(conn):
    # looked up at call time so a traced run sees the wrapped function
    from pdisk import harmonic

    return harmonic.solve_harmonic(conn)


def _roundtrip_problems(conn, pkg) -> list[str]:
    """The cinv_cmap_identity and cmap_cinv_gauge checks of the verify roundtrip suite."""
    from pdisk import connection, harmonic

    h, x = pkg.harmonic, pkg.higgs
    problems = []
    c2 = harmonic.cmap(h, x)
    pkg2 = harmonic.cinv(c2, harmonic.inverse(h))
    mp0 = min(x.precision, pkg2.higgs.precision)
    ok = pkg2.higgs.truncate(mp0).agrees_with(x.truncate(mp0))
    psi2 = connection.pcurv(c2)
    lifted = pkg2.higgs.expand_pth_power()
    transported = psi2.matrix.conjugate_by(pkg2.gauge)
    mp1 = min(lifted.precision, transported.precision)
    if not (ok and lifted.truncate(mp1).agrees_with(transported.truncate(mp1))):
        problems.append("cinv(cmap(h, x)) does not recover the Higgs field")

    pkg3 = harmonic.cinv(conn, harmonic.inverse(h))
    c3 = harmonic.cmap(h, pkg3.higgs)
    moved = connection.gauge(pkg3.gauge.inverse(), conn)
    mp2 = min(moved.precision, c3.precision)
    if not moved.matrix.truncate(mp2).agrees_with(c3.matrix.truncate(mp2)):
        problems.append("cmap(cinv(conn)) is not gauge equivalent to the connection")
    return problems


def make(workload: str, seed: int):
    if workload == "verify-default":
        return VerifySweeps(seed)
    return CertifiedInstances(workload, seed)
