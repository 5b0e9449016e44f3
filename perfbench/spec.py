"""The benchmark's workloads and metric names, the source of BENCHMARK.json.

``python3 perfbench/spec.py`` prints the JSON that BENCHMARK.json must hold;
the harness tests check that the committed file equals it.
"""

from __future__ import annotations

import json

RUN_SECONDS = 60

# The workloads BENCHMARK.json lists.  run.py also runs "roundtrip-ext" (F_9,
# rank 2, N = 22, the k > 1 path), which is left out of the list: its 10-seed
# quartile spread exceeded the largest allowed bound (see README.md).
WORKLOADS = [
    (
        "verify-default",
        "the pdisk verify default grid and acceptance gate: thousands of short series "
        "(N <= 19), so per-object overhead dominates and the kernels take about 15%",
    ),
    (
        "harmonic-deep",
        "precision scaling: F_5 rank 2 at N = 160, where k = 1 series_mul and the scalar "
        "loops of flat_matrix_section dominate",
    ),
]

# (name, unit, better, bound).  The timing bounds are the largest allowed: the
# 2-vCPU virtual machine the benchmark was tuned on runs pure Python up to 1.6x slower for
# stretches of seconds to minutes, which moves a run's figures by 10-20%.
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_s.p50", "s", "lower", 0.25),
    ("item_s.tail", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Spans recorded around calls into each layer: (metric prefix, module, attribute path).
SPANS = [
    ("connection.pcurv", "pdisk.connection", "pcurv"),
    ("connection.gauge", "pdisk.connection", "gauge"),
    ("hitchin.char_invariants", "pdisk.hitchin", "char_invariants"),
    ("hitchin.descend_invariants", "pdisk.hitchin", "descend_invariants"),
    ("cartier.flat_matrix_section", "pdisk.cartier", "flat_matrix_section"),
    ("cartier.kernel_unit", "pdisk.cartier", "kernel_unit"),
    ("cartier.hp_map", "pdisk.cartier", "hp_map"),
    ("cartier.solve_hp", "pdisk.cartier", "solve_hp"),
    ("spectral.hensel_eigen", "pdisk.spectral", "hensel_eigen"),
    ("spectral.check_residue_split", "pdisk.spectral", "check_residue_split"),
    ("polyring.roots", "pdisk.polyring", "roots"),
    ("harmonic.solve_harmonic", "pdisk.harmonic", "solve_harmonic"),
    ("harmonic.pcurv_in_ring", "pdisk.harmonic", "pcurv_in_ring"),
    ("harmonic.cmap", "pdisk.harmonic", "cmap"),
    ("harmonic.cinv", "pdisk.harmonic", "cinv"),
    ("harmonic.torsor_difference", "pdisk.harmonic", "torsor_difference"),
    ("matrix.SeriesMatrix.__matmul__", "pdisk.matrix", "SeriesMatrix.__matmul__"),
    ("matrix.SeriesMatrix.inverse", "pdisk.matrix", "SeriesMatrix.inverse"),
    ("jsonio.connection_from_json", "pdisk.jsonio", "connection_from_json"),
    ("jsonio.dumps_canonical", "pdisk.jsonio", "dumps_canonical"),
    ("kernels.series_mul", "pdisk.backend", "impl.series_mul"),
    ("kernels.series_inv", "pdisk.backend", "impl.series_inv"),
    ("kernels.series_add", "pdisk.backend", "impl.series_add"),
    ("kernels.series_neg", "pdisk.backend", "impl.series_neg"),
]

SUITES = ("pcurv", "hitchin", "cartier", "exactness", "harmonic", "roundtrip")
REJECTIONS = ("NonSplitResidue", "RepeatedResidueRoot")
MUL_BUCKETS = (("len_le16", 16), ("len_le64", 64), ("len_le256", 256), ("len_gt256", None))
MICRO_FIELDS = (("F5", 5, 1, None), ("F9", 3, 2, (1, 0, 1)))
MICRO_LENGTHS = (16, 64, 256, 1024)
MICRO_OPS = ("series_mul", "series_inv")

COUNTS = [
    "series.TruncSeries.constructed",
    "series.coeffs_validated",
    "matrix.SeriesMatrix.constructed",
    "field.mul.calls",
    "field.add.calls",
    "kernels.series_mul.coef_products",
]


def micro_name(op: str, label: str, n: int) -> str:
    return f"micro.{op}.{label}.n{n}.us"


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix, _, _ in SPANS:
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
    out += [(name, "count", "lower") for name in COUNTS]
    out += [(f"kernels.series_mul.{b}", "count", "lower") for b, _ in MUL_BUCKETS]
    out += [(f"harmonic.solve_harmonic.rejected.{r}", "count", "lower") for r in REJECTIONS]
    out += [(f"verify.{s}.s", "s", "lower") for s in SUITES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    for op in MICRO_OPS:
        for label, _, _, _ in MICRO_FIELDS:
            for n in MICRO_LENGTHS:
                out.append((micro_name(op, label, n), "us", "lower"))
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
