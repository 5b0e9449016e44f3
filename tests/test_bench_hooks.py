"""The benchmark's tracing hooks, suite list and workloads still match pdisk.

perfbench/spans.py wraps pdisk functions and counts constructions by name,
perfbench/spec.py keeps its own copy of the verify suite names, and
perfbench/workloads.py calls the public API (pcurv, cmap, cinv, inverse,
gauge, jsonio).  The timed benchmark runs untraced and this suite does not
collect perfbench's own tests, so a rename or a narrowed signature here
would otherwise break only ``perfbench/run.py``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from pdisk import cartier, verify
from pdisk.connection import dlog
from pdisk.field import FieldSpec
from pdisk.series import TruncSeries, VAR_DISK

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_install_and_restore(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    original = cartier.kernel_unit
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        u = TruncSeries.make(FieldSpec(3), VAR_DISK, [1, 1, 2, 0, 1, 1, 2], 7)
        cartier.kernel_unit(dlog(u))
    finally:
        patches.restore()
    assert cartier.kernel_unit is original
    assert tracer.calls["cartier.kernel_unit"] == 1
    assert tracer.calls["cartier.flat_matrix_section"] == 1
    assert tracer.counts["series.TruncSeries.constructed"] > 0


def test_suite_tables_agree(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.import_module("spec")
    assert spec.SUITES == verify.SUITES
    assert set(verify.PRECISION_FLOORS) == set(verify.SUITES)


@pytest.mark.parametrize("workload", ["verify-default", "harmonic-deep"])
def test_one_workload_unit_runs(monkeypatch, workload) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    unit = workloads.make(workload, 0).run_unit()
    assert unit.failed == 0, unit.notes
    assert unit.output
