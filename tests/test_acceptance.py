"""Acceptance gate: one test per criterion, exact equality, zero tolerance.

Each test prints a single PASS line (visible under ``pytest -s``) after its
assertions; under ``pytest -v`` the per-test PASSED/FAILED column is the
criterion scoreboard.  Every numeric check is exact field arithmetic; there
are no tolerances anywhere.  Seeds are fixed so reruns are byte-identical.

Runtime budgets are asserted with ``time.perf_counter`` around the sweep
itself, not around pytest overhead.
"""

from __future__ import annotations

import time

import pytest

from pdisk.connection import Connection, dlog, gauge, pcurv
from pdisk.errors import NonSplitResidue, RepeatedResidueRoot
from pdisk.field import FieldSpec
from pdisk.harmonic import pcurv_in_ring, solve_harmonic, torsor_difference
from pdisk.hitchin import phitchin
from pdisk.jsonio import (
    dumps_canonical,
    fhiggs_to_json,
    invariants_to_json,
    parse_series,
)
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import VAR_DISK
from pdisk.verify import run_suite

PRIMES = [2, 3, 5]

_SWEEPS: dict[str, tuple[dict, float]] = {}


def sweep(name: str, ranks: list[int], trials: int, seed: int) -> tuple[dict, float]:
    """Run a verification suite once per module and cache (report, seconds)."""
    if name not in _SWEEPS:
        t0 = time.perf_counter()
        report = run_suite(name, PRIMES, ranks, None, trials, seed)
        _SWEEPS[name] = (report, time.perf_counter() - t0)
    return _SWEEPS[name]


def prop_counts(report: dict) -> dict[str, tuple[int, int]]:
    return {row["name"]: (row["pass"], row["fail"]) for row in report["properties"]}


def announce(num: int, label: str, checks: int, seconds: float) -> None:
    print(f"criterion {num} ({label}): PASS  [{checks} checks, {seconds:.1f}s]")


def test_criterion_1_pcurvature_oracles() -> None:
    # 200 connections per (p, n) in {2,3,5} x {1,2,3} at precision 3p+4:
    # rank-1 closed form and horizontality of the p-curvature, all exact
    report, seconds = sweep("pcurv", [1, 2, 3], 200, 0)
    counts = prop_counts(report)
    assert counts["closed_form_rank1"] == (3 * 200, 0)
    assert counts["horizontality"] == (9 * 200, 0)
    assert report["fail"] == 0, report["failure"]
    assert seconds < 30.0
    announce(1, "p-curvature closed form + horizontality", 12 * 200, seconds)


def test_criterion_2_invariant_descent() -> None:
    # same sweep: every characteristic coefficient is a pth-power series and
    # the descended invariant tuple is always produced
    report, seconds = sweep("pcurv", [1, 2, 3], 200, 0)
    counts = prop_counts(report)
    assert counts["invariant_descent"] == (9 * 200, 0)
    assert report["fail"] == 0, report["failure"]
    assert seconds < 30.0
    announce(2, "invariant coefficients descend", 9 * 200, seconds)


def test_criterion_3_gauge_invariance() -> None:
    # 100 random unit gauges per (p, n): the descended invariants are
    # unchanged under conjugation
    report, seconds = sweep("hitchin", [1, 2, 3], 100, 1)
    counts = prop_counts(report)
    assert counts["gauge_invariance"] == (9 * 100, 0)
    assert report["fail"] == 0, report["failure"]
    announce(3, "gauge invariance of the invariant map", 9 * 100, seconds)


def test_criterion_4_four_term_exactness() -> None:
    # 200 scalar draws per p: units map into the kernel, the kernel is
    # constructively integrated, and the section splits the map on targets
    report, seconds = sweep("exactness", [1], 200, 2)
    counts = prop_counts(report)
    assert counts["dlog_in_kernel"] == (3 * 200, 0)
    assert counts["kernel_constructive"] == (3 * 200, 0)
    assert counts["section_identity"] == (3 * 200, 0)
    assert report["fail"] == 0, report["failure"]
    assert seconds < 20.0
    announce(4, "four-term exactness", 9 * 200, seconds)


def test_criterion_5_frobenius_descent_dichotomy() -> None:
    # per (p, n) cell: 100 pullback instances must admit flat frames and 100
    # injected-defect instances must be refused with a certificate at the
    # predicted order, 200 instances per cell in all
    report, seconds = sweep("cartier", [1, 2], 100, 3)
    counts = prop_counts(report)
    assert counts["pullback_flat"] == (6 * 100, 0)
    assert counts["defect_detected"] == (6 * 100, 0)
    assert report["fail"] == 0, report["failure"]
    announce(5, "descent succeeds iff curvature vanishes", 12 * 100, seconds)


def test_criterion_6_harmonic_output_equations() -> None:
    # 100 accepted regular-semisimple instances per (p, n) in {2,3,5} x {1,2}:
    # the twisted connection is curvature-free, the evaluated endomorphism
    # commutes with the curvature, and the transported curvature is constant
    report, seconds = sweep("harmonic", [1, 2], 100, 4)
    counts = prop_counts(report)
    assert counts["twisted_curvature_zero"] == (6 * 100, 0)
    assert counts["commutation"] == (6 * 100, 0)
    assert counts["transported_horizontal"] == (6 * 100, 0)
    assert report["fail"] == 0, report["failure"]
    assert seconds < 60.0
    announce(6, "solver output equations", 18 * 100, seconds)


def test_criterion_7_round_trip() -> None:
    # on the same instance profile: both correspondence compositions return
    # to the start, certified by explicit conjugation with the emitted gauge
    report, seconds = sweep("roundtrip", [1, 2], 100, 5)
    counts = prop_counts(report)
    assert counts["cinv_cmap_identity"] == (6 * 100, 0)
    assert counts["cmap_cinv_gauge"] == (6 * 100, 0)
    assert report["fail"] == 0, report["failure"]
    assert seconds < 60.0
    announce(7, "correspondence round trips", 12 * 100, seconds)


def test_criterion_8_torsor_difference() -> None:
    # 50 pairs of solutions over a common base tuple: the difference has
    # vanishing in-ring curvature and an integrating unit within precision
    t0 = time.perf_counter()
    cells = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]
    rng = SplitMix64(6)
    pairs = 0
    while pairs < 50:
        p, n = cells[pairs % len(cells)]
        field = FieldSpec(p)
        prec = 3 * p + 4
        conn = pkg_a = None
        for _ in range(400):
            cand = Connection(rng.matrix(field, VAR_DISK, n, prec))
            try:
                pkg_a = solve_harmonic(cand)
                conn = cand
                break
            except (NonSplitResidue, RepeatedResidueRoot):
                continue
        assert conn is not None, f"no accepted instance at p={p} n={n}"
        g = rng.unit_matrix(field, VAR_DISK, n, prec)
        pkg_b = solve_harmonic(gauge(g, conn))
        assert pkg_a.harmonic.b_prime.agrees_with(pkg_b.harmonic.b_prime)
        delta, unit = torsor_difference(pkg_a.harmonic, pkg_b.harmonic)
        assert pcurv_in_ring(delta).is_zero(), (p, n, pairs)
        assert unit is not None, (p, n, pairs)
        assert dlog(unit).agrees_with(delta), (p, n, pairs)
        pairs += 1
    announce(8, "torsor difference integrates", 50, time.perf_counter() - t0)


def test_criterion_9_pinned_anchors() -> None:
    # three hand-derived values, pinned byte-exactly via the canonical
    # serialization and the display strings
    t0 = time.perf_counter()

    F3 = FieldSpec(3)
    lin = parse_series(F3, "z", VAR_DISK, 13, "$")
    psi1 = pcurv(Connection(SeriesMatrix.from_rows([[lin]])))
    assert str(psi1.matrix.entry(0, 0)) == "z^3"

    def anchor(p: int) -> tuple[str, str]:
        field = FieldSpec(p)
        prec = 3 * p + 4
        rows = [
            [parse_series(field, t, VAR_DISK, prec, "$") for t in row]
            for row in [["0", "1"], ["z", "0"]]
        ]
        conn = Connection(SeriesMatrix.from_rows(rows))
        psi = dumps_canonical(fhiggs_to_json(pcurv(conn)), compact=True)
        b = dumps_canonical(invariants_to_json(phitchin(conn)), compact=True)
        return psi, b

    psi2, b2 = anchor(2)
    assert psi2 == (
        '{"ext_degree":1,"matrix":[["z","0"],["1","z"]],"modulus":null,'
        '"p":2,"precision":9,"rank":2,"twist_weight":2,"var":"z"}'
    )
    assert b2 == (
        '{"entries":["0","z"],"ext_degree":1,"modulus":null,'
        '"p":2,"precision":5,"rank":2,"var":"z\'"}'
    )

    psi3, b3 = anchor(3)
    assert psi3 == (
        '{"ext_degree":1,"matrix":[["2","z"],["z^2","1"]],"modulus":null,'
        '"p":3,"precision":11,"rank":2,"twist_weight":3,"var":"z"}'
    )
    assert b3 == (
        '{"entries":["0","2 + 2*z"],"ext_degree":1,"modulus":null,'
        '"p":3,"precision":4,"rank":2,"var":"z\'"}'
    )
    announce(9, "pinned anchor values", 5, time.perf_counter() - t0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
