"""Failure certificates of verify properties whose library call raised.

Each case makes one library call raise, runs the suite that checks it, and
reads the certificate the report keeps for the first failure.
"""

from __future__ import annotations

import pytest

from pdisk import verify
from pdisk.errors import InternalInconsistency, NonzeroPCurvature

CERT_KEYS = ["property", "p", "rank", "trial", "connection", "error"]


@pytest.mark.parametrize(
    "suite, prop, name, exc",
    [
        (
            "pcurv",
            "invariant_descent",
            "descend_invariants",
            InternalInconsistency("planted descent failure", exponent=1, coefficient=2),
        ),
        ("cartier", "pullback_flat", "flat_matrix_section", NonzeroPCurvature(4, ["1"])),
        (
            "harmonic",
            "instance_generation",
            "solve_harmonic",
            InternalInconsistency("planted solver failure"),
        ),
    ],
    ids=["invariant_descent", "pullback_flat", "instance_generation"],
)
def test_raised_error_is_the_certificate_error(monkeypatch, suite, prop, name, exc) -> None:
    def planted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(f"pdisk.verify.{name}", planted)
    report = verify.run_suite(suite, [3], [2], None, 1, 0)
    failure = report["failure"]
    assert list(failure) == CERT_KEYS
    assert failure["property"] == prop
    assert (failure["p"], failure["rank"], failure["trial"]) == (3, 2, 0)
    assert failure["error"] == exc.payload()
    counts = {row["name"]: (row["pass"], row["fail"]) for row in report["properties"]}
    assert counts[prop] == (0, 1)
