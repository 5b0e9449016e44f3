"""The benchmark's tracing hooks and suite list still match pdisk.

perfbench/spans.py wraps pdisk functions and counts constructions by name,
and perfbench/spec.py keeps its own copy of the verify suite names.  The
timed benchmark runs untraced and this suite does not collect perfbench's
own tests, so a rename here would otherwise break only
``perfbench/run.py --trace 1`` or the verify-default sweep.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from pdisk import cartier, verify
from pdisk.cartier import OneForm
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
        cartier.kernel_unit(OneForm(dlog(u)))
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
