"""Planted defects: every property of the harmonic and roundtrip suites can fail.

A check that passes whatever the code does checks nothing.  Each case
monkeypatches one plausible defect (a sign, a missed step, a wrong cut, a
wrong frame) into the library, runs its suite on a small grid and asserts
that the report records a failure of the property that guards it, with the
certificate keys pinned.

The remaining cases are mutations that earlier changes checked only by
hand, on mutated copies: a sign flip in the ext_mul reduction, a dropped
eval_at cut, theta left unnegated by inverse and theta^2 added to the
in-ring p-curvature.  The last two are the instance_generation and
cinv_cmap_identity cases below.  Finally, theta + t planted in the solver
is still refused by its p-curvature certificate.
"""

from __future__ import annotations

import dataclasses

import pytest

from pdisk import field as field_mod, harmonic, spectral, verify
from pdisk.cartier import kernel_unit
from pdisk.connection import Connection
from pdisk.errors import CurvatureNonzero
from pdisk.field import FieldSpec
from pdisk.harmonic import HarmonicDatum, solve_harmonic
from pdisk.hitchin import InvariantTuple
from pdisk.matrix import SeriesMatrix

from conftest import M, S, sympy_poly

KEYS = ["property", "p", "rank", "trial", "connection"]


def _uncertified(h: HarmonicDatum, **changes) -> HarmonicDatum:
    """h with some fields replaced, built without the p-curvature certificate."""
    bad = object.__new__(HarmonicDatum)
    bad.__dict__.update(h.__dict__, **changes)
    return bad


def _solver_returns(monkeypatch, change) -> None:
    """verify's solve_harmonic hands back change(pkg): a defect its certificates miss."""
    solve = verify.solve_harmonic
    monkeypatch.setattr(verify, "solve_harmonic", lambda conn: change(solve(conn)))


# -- the defects: each plants one into the library through monkeypatch ---------


def _theta_squared_in_pcurv(monkeypatch) -> None:
    pcurv_in_ring = harmonic.pcurv_in_ring
    monkeypatch.setattr(harmonic, "pcurv_in_ring", lambda th: pcurv_in_ring(th) + th * th)


def _theta_plus_t(monkeypatch) -> None:
    def change(pkg):
        h = pkg.harmonic
        bad = _uncertified(h, theta=h.theta + h.ring.tautological())
        return dataclasses.replace(pkg, harmonic=bad)

    _solver_returns(monkeypatch, change)


def _higgs_reversed(monkeypatch) -> None:
    def change(pkg):
        n = pkg.higgs.rank
        diag = [pkg.higgs.entry(i, i) for i in reversed(range(n))]
        return dataclasses.replace(pkg, higgs=SeriesMatrix.diagonal(diag))

    _solver_returns(monkeypatch, change)


def _flat_frame_skipped(monkeypatch) -> None:
    def change(pkg):
        f = pkg.flat_frame
        identity = SeriesMatrix.identity(f.field, f.var, f.rank, f.precision)
        return dataclasses.replace(pkg, flat_frame=identity)

    _solver_returns(monkeypatch, change)


def _theta_unnegated(monkeypatch) -> None:
    monkeypatch.setattr(
        verify, "inverse", lambda h: _uncertified(h, curvature_sign=-h.curvature_sign)
    )


def _gauge_without_derivative(monkeypatch) -> None:
    def gauge(g, conn):
        return Connection(g @ conn.matrix @ g.inverse())

    monkeypatch.setattr(verify, "gauge", gauge)


def _kernel_unit_inverted(monkeypatch) -> None:
    monkeypatch.setattr(harmonic, "kernel_unit", lambda w: kernel_unit(w).inverse())


# (suite, property, defect, code of the error the certificate carries, if any)
CASES = [
    ("harmonic", "instance_generation", _theta_squared_in_pcurv, "CurvatureNonzero"),
    ("harmonic", "twisted_curvature_zero", _theta_plus_t, None),
    ("harmonic", "commutation", _higgs_reversed, None),
    ("harmonic", "transported_horizontal", _flat_frame_skipped, None),
    ("roundtrip", "cinv_cmap_identity", _theta_unnegated, "CurvatureNotCancelled"),
    ("roundtrip", "cmap_cinv_gauge", _gauge_without_derivative, None),
    ("roundtrip", "torsor_unit", _kernel_unit_inverted, "InternalInconsistency"),
]


@pytest.mark.parametrize("suite, prop, plant, code", CASES, ids=[c[1] for c in CASES])
def test_planted_defect_fails_its_property(monkeypatch, suite, prop, plant, code) -> None:
    plant(monkeypatch)
    report = verify.run_suite(suite, [3], [2], None, 2, 0)
    failure = report["failure"]
    assert failure is not None and failure["property"] == prop
    assert list(failure) == (KEYS if code is None else KEYS + ["error"])
    if code is not None:
        assert failure["error"]["code"] == code
    counts = {row["name"]: (row["pass"], row["fail"]) for row in report["properties"]}
    assert counts[prop][1] > 0


def test_unplanted_suites_pass() -> None:
    # the same grid without a defect: every failure above is the defect's
    for suite in ("harmonic", "roundtrip"):
        report = verify.run_suite(suite, [3], [2], None, 2, 0)
        assert report["fail"] == 0 and report["pass"] > 0


# ==========================================================================
# mutations from earlier scratch checks
# ==========================================================================


def _ext_mul_sign_flipped(a: int, b: int, p: int, k: int, mod: tuple[int, ...]) -> int:
    """field.ext_mul with the reduction adding c * mod instead of subtracting it."""
    da, db = field_mod.decode(a, p, k), field_mod.decode(b, p, k)
    buf = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            buf[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c, buf[i] = buf[i], 0
        for j in range(k):
            buf[i - k + j] += c * mod[j]
    return field_mod.encode(buf[:k], p)


def test_ext_mul_sign_flip_fails_the_sympy_oracle(monkeypatch) -> None:
    # the oracle of tests/test_field.py::test_mul_matches_sympy, over F_9
    monkeypatch.setattr(field_mod, "ext_mul", _ext_mul_sign_flipped)
    f9 = FieldSpec(3, 2, (1, 0, 1))
    modulus = sympy_poly(f9.modulus, 3)
    wrong = 0
    for a in f9.elements():
        for b in f9.elements():
            rem = (sympy_poly(f9.decode(a), 3) * sympy_poly(f9.decode(b), 3)).rem(modulus)
            digits = [int(c) % 3 for c in reversed(rem.all_coeffs())]
            wrong += f9.mul(a, b) != f9.encode(digits + [0] * (2 - len(digits)))
    assert wrong > 0


def _eval_at_uncut(coeffs, mu):
    """spectral.eval_at without cutting the leading coefficient to mu's precision."""
    *rest, acc = coeffs
    for c in reversed(rest):
        acc = acc * mu + c
    return acc


def test_dropped_eval_at_cut_breaks_the_stated_precision(monkeypatch) -> None:
    # the rule of tests/test_precision.py::test_eval_at: the least input precision
    monkeypatch.setattr(spectral, "eval_at", _eval_at_uncut)
    f5 = FieldSpec(5)
    ring = spectral.SpectralRing(InvariantTuple((S(f5, "1 + z", 8),)))
    out = ring.from_series(S(f5, "2 + z^2", 8)).eval_series(S(f5, "1 + z", 3))
    assert out.precision != 3


def test_theta_plus_t_in_the_solver_is_refused(monkeypatch) -> None:
    # the commutation certificate solve_harmonic no longer has could not see
    # this; the in-ring p-curvature certificate refuses it
    lagrange = harmonic._lagrange_element
    monkeypatch.setattr(
        harmonic,
        "_lagrange_element",
        lambda ring, values: lagrange(ring, values) + ring.tautological(),
    )
    conn = Connection(M(FieldSpec(2), [["0", "0"], ["0", "1"]], 8))
    with pytest.raises(CurvatureNonzero):
        solve_harmonic(conn)
