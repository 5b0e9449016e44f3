"""Byte-level pins of whole-pipeline output.

Each value is the sha256 of canonical JSON that the package emits for a fixed
seed.  A refactor that keeps behaviour keeps every pin; a change that moves
any emitted coefficient, certificate or ordering breaks one.  The extension
field pin is the only byte-level guard of the k > 1 path through
solve_harmonic, cmap and cinv; the rank-3 pins guard Berkowitz's recursion
in char_invariants and the cubic spectral rings.  The eigen-split
pins cover what no package carries: the unit u of torsor_difference and the
Lagrange projectors of hensel_eigen.
"""

from __future__ import annotations

import hashlib

import pytest

from pdisk.connection import Connection, gauge, pcurv
from pdisk.errors import NonSplitResidue, RepeatedResidueRoot
from pdisk.field import FieldSpec
from pdisk.harmonic import cinv, cmap, inverse, solve_harmonic, torsor_difference
from pdisk.jsonio import dumps_canonical, matrix_to_json, package_to_json, spectral_to_json
from pdisk.rng import SplitMix64
from pdisk.series import VAR_DISK
from pdisk.spectral import hensel_eigen
from pdisk.verify import run_suite

INSTANCES = 2


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_report() -> None:
    report = run_suite("all", [2, 3, 5], [1, 2], None, 2, 0)
    digest = sha(dumps_canonical(report, compact=True))
    assert digest == "bdeefd3376913b7615aad9eb795137e9bb3ec62267a6e564c6273d9e28a15b30"


def test_verify_all_report_rank3() -> None:
    """Rank 3 runs Berkowitz's recursion and a cubic spectral ring."""
    report = run_suite("all", [7], [3], None, 1, 5)
    digest = sha(dumps_canonical(report, compact=True))
    assert digest == "2e08ece3994a6e32c2422639b9a06999667d7fed1f7f0496e13022203db0248a"


@pytest.mark.parametrize(
    "suite, ps, ranks, precision, trials, prop, want",
    [
        (
            "harmonic",
            [2],
            [3],
            7,
            1,
            "instance_generation",
            "cf7ea3ae2c20e3ea5eb68439d5f0997b597409543d041ae96e046cde94cbbbd7",
        ),
        (
            "cartier",
            [5],
            [1, 2],
            5,
            2,
            "defect_detected",
            "a7183dd50c0d58cce53851e5030840d2fed4242cc1a9878547cc9ed255f491f0",
        ),
        (
            "roundtrip",
            [3],
            [2],
            8,
            3,
            "torsor_unit",
            "1112641a2438dc3b059ed3b95829d5fb34bbb005e7f59ce699b01538009e716b",
        ),
    ],
    ids=["no-instance", "no-obstruction", "raised-error"],
)
def test_verify_failure_certificate(
    suite: str, ps: list[int], ranks: list[int], precision: int, trials: int, prop: str, want: str
) -> None:
    """Grids below a suite's floor keep a failure certificate, one of each shape:
    a bare note, evidence with an ``error`` that nothing raised, and the
    payload of a raised error."""
    report = run_suite(suite, ps, ranks, precision, trials, 0)
    assert report["failure"]["property"] == prop
    assert sha(dumps_canonical(report, compact=True)) == want


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


def eigen_split_docs(field: FieldSpec, rank: int, precision: int, seed: int) -> tuple[list, list]:
    """torsor_difference of two data over one base, and hensel_eigen of its p-curvature.

    Each accepted connection is paired with a seeded gauge transform of
    itself, so both harmonic data live over the same base.
    """
    rng = SplitMix64(seed)
    torsors: list = []
    eigens: list = []
    while len(torsors) < INSTANCES:
        conn = Connection(rng.matrix(field, VAR_DISK, rank, precision))
        g = rng.unit_matrix(field, VAR_DISK, rank, precision)
        try:
            h1 = solve_harmonic(conn).harmonic
            h2 = solve_harmonic(gauge(g, conn)).harmonic
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
        delta, u = torsor_difference(h1, h2)
        torsors.append({"delta": spectral_to_json(delta), "u": spectral_to_json(u)})
        psi = pcurv(conn)
        eigen = hensel_eigen(psi)
        eigens.append(
            {
                "projectors": [matrix_to_json(m) for m in eigen.projectors],
                "gauge": matrix_to_json(eigen.gauge),
            }
        )
    return torsors, eigens


@pytest.mark.parametrize(
    "field, rank, precision, want_torsor, want_eigen",
    [
        (
            FieldSpec(3),
            2,
            13,
            "d82d2e5225fbf9ceaa157af077a2019c4d04c070dd171166492a81bb826bc6ad",
            "56c2ac1fc4b07ba6f86f0507adec3acf545b23c521bd8131a6471f1ef2480958",
        ),
        (
            FieldSpec(5),
            2,
            19,
            "13c4917fdaecf75b6479dbd9239438e44890b5e1dfc5f6db781a867dd1a336c9",
            "3e6c3692a4b938f6fd1b6ad4aca1203790f68c89e42f1aa4baa4c01209d0758a",
        ),
        (
            FieldSpec(3, 2, (1, 0, 1)),
            2,
            13,
            "57ff182079284b4072ab30531eb05bcb4166245457ae7c1af5ef11a5230b04e9",
            "b4c4cd330f2d11c81b61da1ee9cf5e199c3e71245fb756601d1d176cbda3eb18",
        ),
        (
            FieldSpec(7),
            3,
            25,
            "073f04adffa82bbd56a3e8fe1cde87ff3d6635b8c38ed294ac9af5e2423264e7",
            "9491902cf2a2fbe81702f71b49924e405a1fb079b19aa753f256807e02c3f2ab",
        ),
        (
            FieldSpec(5),
            1,
            19,
            "60dcbad98c13ddead5f1c5eb0a9a29651abccc6fb121a159d14c12b556c25575",
            "9773c50496a91e60c09f4f1030f83efd2be500a9cf3792a1dd6a56fc04336a41",
        ),
    ],
    ids=["F3-rank2", "F5-rank2", "F9-rank2", "F7-rank3", "F5-rank1"],
)
def test_eigen_split(
    field: FieldSpec, rank: int, precision: int, want_torsor: str, want_eigen: str
) -> None:
    torsors, eigens = eigen_split_docs(field, rank, precision, 3)
    assert sha(dumps_canonical(torsors, compact=True)) == want_torsor
    assert sha(dumps_canonical(eigens, compact=True)) == want_eigen
