"""Byte-level pins of whole-pipeline output.

Each value is the sha256 of canonical JSON that the package emits for a fixed
seed.  A refactor that keeps behaviour keeps every pin; a change that moves
any emitted coefficient, certificate or ordering breaks one.  The extension
field pin is the only byte-level guard of the k > 1 path through
solve_harmonic, cmap and cinv; the rank-3 pins guard the full Laplace
expansion of char_invariants and the cubic spectral rings.
"""

from __future__ import annotations

import hashlib

import pytest

from pdisk.connection import Connection
from pdisk.errors import NonSplitResidue, RepeatedResidueRoot
from pdisk.field import FieldSpec
from pdisk.harmonic import cinv, cmap, inverse, solve_harmonic
from pdisk.jsonio import dumps_canonical, package_to_json
from pdisk.rng import SplitMix64
from pdisk.series import VAR_DISK
from pdisk.verify import run_suite

INSTANCES = 2


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_report() -> None:
    report = run_suite("all", [2, 3, 5], [1, 2], None, 2, 0)
    digest = sha(dumps_canonical(report, compact=True))
    assert digest == "bdeefd3376913b7615aad9eb795137e9bb3ec62267a6e564c6273d9e28a15b30"


def test_verify_all_report_rank3() -> None:
    """Rank 3 runs the full Laplace expansion and a cubic spectral ring."""
    report = run_suite("all", [7], [3], None, 1, 5)
    digest = sha(dumps_canonical(report, compact=True))
    assert digest == "2e08ece3994a6e32c2422639b9a06999667d7fed1f7f0496e13022203db0248a"


def packages(field: FieldSpec, rank: int, precision: int, seed: int) -> list:
    """Seeded accepted instances, each followed by its cinv(cmap(...)) package."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < 2 * INSTANCES:
        conn = Connection(rng.matrix(field, VAR_DISK, rank, precision))
        try:
            pkg = solve_harmonic(conn)
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
        h = pkg.harmonic
        out += [pkg, cinv(cmap(h, pkg.higgs), inverse(h))]
    return out


@pytest.mark.parametrize(
    "field, rank, precision, want",
    [
        (
            FieldSpec(3, 2, (1, 0, 1)),
            2,
            22,
            "be69c25309d8a2a643b26ca09f126943dafc3721e0d5f34095743acbdf115b91",
        ),
        (
            FieldSpec(5),
            2,
            40,
            "724ef4496eeff8d8b371516af2cc24cd97b0f57aafeedc09babe46ee2cebb4a3",
        ),
        (
            FieldSpec(7),
            3,
            30,
            "dae81eae0e2266d6b8c2633d4f1a709d605614806c4e71288caae3a8e68285d0",
        ),
    ],
    ids=["F9-N22", "F5-N40", "F7-N30-rank3"],
)
def test_correspondence_packages(field: FieldSpec, rank: int, precision: int, want: str) -> None:
    docs = [package_to_json(pkg) for pkg in packages(field, rank, precision, 7)]
    assert sha(dumps_canonical(docs, compact=True)) == want
