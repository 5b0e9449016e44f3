"""Tests of the benchmark harness itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import run
import spans
import spec
import workloads

pdisk = run.load_pdisk()

from pdisk import jsonio, verify  # noqa: E402  (needs the path set by load_pdisk)


def snapshot() -> dict:
    """Every attribute of every pdisk module and of the classes they define."""
    out = {}
    for module in spans.pdisk_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{module.__name__}.{attr}", cattr)] = cvalue
    return out


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = [float(i) for i in range(30)]
    random.Random(1).shuffle(samples)
    value, level = run.tail(samples)
    assert value == 19.0
    assert sum(s > value for s in samples) == 10
    assert level == pytest.approx(100 * 20 / 30)
    assert run.tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10, 11, 12])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")  # 0
    tracer.enter("b")  # 1
    tracer.enter("c")  # 2
    tracer.exit()  # 3: c = 1
    tracer.exit()  # 4: b = 3, self 2
    tracer.enter("c")  # 5
    tracer.exit()  # 9: c = 4
    tracer.exit()  # 10: a = 10, self 10 - 3 - 4
    tracer.enter("b")  # 11
    tracer.exit()  # 12
    assert dict(tracer.calls) == {"a": 1, "b": 2, "c": 2}
    assert dict(tracer.self_s) == {"a": 3, "b": 3, "c": 5}


def test_coef_products_counts_the_schoolbook_pairs():
    for na in range(1, 9):
        for nb in range(1, 9):
            for nout in range(1, 18):
                pairs = sum(1 for i in range(na) for j in range(nb) if i + j < nout)
                assert spans.coef_products(na, nb, nout) == pairs, (na, nb, nout)


def test_mul_buckets():
    assert [spans.mul_bucket(n) for n in (1, 16, 17, 64, 65, 256, 257)] == [
        "len_le16", "len_le16", "len_le64", "len_le64", "len_le256", "len_le256", "len_gt256",
    ]


def test_install_wraps_every_alias_and_restore_puts_back_every_binding():
    from pdisk import cli, connection, harmonic, hitchin, series

    before = snapshot()
    original = connection.pcurv
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        wrapped = connection.pcurv
        assert wrapped is not original
        for module in (pdisk, harmonic, hitchin, verify, cli):
            assert module.pcurv is wrapped
        work = workloads.CertifiedInstances("roundtrip-ext", 3)
        traced = work.run_unit()
    finally:
        patches.restore()
    assert snapshot().keys() == before.keys()
    changed = [k for k, v in snapshot().items() if v is not before[k]]
    assert changed == []
    assert tracer.calls["kernels.series_mul"] > 0  # reached through series.impl
    assert series.impl.series_mul is before[("pdisk._kernels_py", "series_mul")]
    for name in ("series.TruncSeries.constructed", "field.mul.calls", "kernels.series_mul.coef_products"):
        assert tracer.counts[name] > 0
    untraced = workloads.CertifiedInstances("roundtrip-ext", 3).run_unit()
    assert traced.output == untraced.output and traced.failed == 0


def test_verify_sweep_matches_run_suite_all():
    unit = workloads.VerifySweeps(7).run_unit()
    full = verify.run_suite("all", [2, 3, 5], [1, 2], None, workloads.VERIFY_TRIALS, 7)
    assert unit.output == jsonio.dumps_canonical(full, compact=True).encode()
    assert json.loads(unit.output)["suites"] == full["suites"]
    assert unit.attempted == full["total"] and unit.failed == 0


def test_default_trials_sweep_is_the_pdisk_verify_default_report(monkeypatch):
    # sha256 of `pdisk verify --json` (seed 0, 25 trials) without its newline
    monkeypatch.setattr(workloads, "VERIFY_TRIALS", 25)
    unit = workloads.VerifySweeps(0).run_unit()
    assert hashlib.sha256(unit.output).hexdigest().startswith("399083cb")


def test_recorded_digests_cover_the_fixed_units():
    recorded = json.loads(run.DIGESTS.read_text())
    assert {w: (e["seed"], e["units"]) for w, e in recorded.items()} == {
        w: (0, n) for w, n in run.FIXED_UNITS.items()
    }


def test_a_different_seed_changes_inputs():
    docs = [workloads.connection_document(workloads.Stream(s), 3, 2, (1, 0, 1), 2, 8) for s in (1, 2)]
    assert docs[0] != docs[1]
    conn = jsonio.connection_from_json(docs[0])
    assert (conn.rank, conn.precision, conn.field.q) == (2, 8, 9)


def test_a_different_seed_keeps_every_metric_name(monkeypatch):
    monkeypatch.setitem(workloads.CORRESPONDENCE, "roundtrip-ext", (3, 2, (1, 0, 1), 2, 10))
    monkeypatch.setitem(run.MIN_UNITS, "roundtrip-ext", 11)
    monkeypatch.setitem(run.FIXED_UNITS, "roundtrip-ext", 2)
    monkeypatch.setattr(run, "_per_call_us", lambda call: 1.0)
    names = {n for n, _, _, _ in spec.END_TO_END}
    layer_names = {n for n, _, _ in spec.per_layer()}
    outputs = []
    for seed in (1, 2):
        metrics, units, problems = run.timed_run("roundtrip-ext", seed, 0.0)
        assert set(metrics) == names and problems == []
        assert all(v > 0 for v in metrics.values())
        metrics, units, problems = run.traced_run("roundtrip-ext", seed)
        assert set(metrics) == layer_names and problems == []
        outputs.append(run.digest(units))
    assert outputs[0] != outputs[1]


def test_benchmark_json_matches_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])


def test_digest_joins_unit_outputs():
    units = [workloads.Unit(0.1, 1, 0, b"a"), workloads.Unit(0.1, 1, 0, b"b")]
    assert run.digest(units) == hashlib.sha256(b"a\nb").hexdigest()
