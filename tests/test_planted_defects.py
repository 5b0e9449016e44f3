"""Planted defects: every property of every verify suite can fail.

A check that passes whatever the code does checks nothing.  Each case
monkeypatches one plausible defect (a sign, a missed step, a wrong cut, a
wrong frame) into the library, runs its suite on a small grid and asserts
that the report records a failure of the property that guards it, with the
certificate keys pinned.  The cartier and exactness cases also guard the
flat-frame recursion that kernel_unit runs through.

The remaining cases are mutations that earlier changes checked only by
hand, on mutated copies: a sign flip in the ext_mul reduction, a dropped
eval_at cut, theta left unnegated by inverse and theta^2 added to the
in-ring p-curvature.  The last two are the instance_generation and
cinv_cmap_identity cases below.  Finally, theta + t planted in the solver
is still refused by its p-curvature certificate, and an eigenvalue lift whose
kept inverse of char' is never lifted by the Newton certificate of
SpectralRing.eigenvalues.
"""

from __future__ import annotations

import dataclasses

import pytest

from pdisk import _kernels_py, cartier, field as field_mod, harmonic, spectral, verify
from pdisk.cartier import flat_matrix_section, kernel_unit, solve_hp
from pdisk.connection import Connection, FHiggs
from pdisk.errors import CurvatureNonzero, InternalInconsistency, NonzeroPCurvature
from pdisk.field import FieldSpec
from pdisk.harmonic import HarmonicDatum, solve_harmonic
from pdisk.hitchin import InvariantTuple, companion_section
from pdisk.matrix import SeriesMatrix
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST

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


# -- the pcurv, hitchin, cartier and exactness suites --------------------------


def _pcurv_one_step_short(monkeypatch) -> None:
    def pcurv(conn):
        x = SeriesMatrix.identity(conn.field, VAR_DISK, conn.rank, conn.precision + 1)
        for _ in range(conn.field.p - 1):
            x = x.derivative() + conn.matrix @ x
        return FHiggs(x)

    monkeypatch.setattr(verify, "pcurv", pcurv)


def _companion_unsigned(monkeypatch) -> None:
    def companion(b):
        rows = companion_section(b).entries
        return SeriesMatrix(tuple(row[:-1] + (-row[-1],) for row in rows))

    monkeypatch.setattr(verify, "companion_section", companion)


def _flat_frame_of_negated_matrix(monkeypatch) -> None:
    # the d/dz - A sign convention in place of the package's d/dz + A
    def negated(conn):
        return flat_matrix_section(Connection(conn.matrix.map_entries(lambda e: -e)))

    monkeypatch.setattr(verify, "flat_matrix_section", negated)


def _obstruction_one_order_late(monkeypatch) -> None:
    def late(conn):
        try:
            return flat_matrix_section(conn)
        except NonzeroPCurvature as exc:
            raise NonzeroPCurvature(exc.order + 1, exc.residual) from None

    monkeypatch.setattr(verify, "flat_matrix_section", late)


def _cartier_op_slot_early(monkeypatch) -> None:
    def cartier_op(w):
        p = w.field.p
        nout = max(0, -(-(w.precision - p + 1) // p))
        out = tuple(w.coeffs[j * p + p - 2] for j in range(nout))
        return TruncSeries(w.field, VAR_TWIST, out)

    monkeypatch.setattr(cartier, "cartier_op", cartier_op)


def _verify_kernel_unit_inverted(monkeypatch) -> None:
    monkeypatch.setattr(verify, "kernel_unit", lambda w: kernel_unit(w).inverse())


def _solve_hp_adds_eta(monkeypatch) -> None:
    # solve_hp(-eta) sets u_{jp+p-1} = u_j^p + eta_j: the sign of eta flipped
    monkeypatch.setattr(verify, "solve_hp", lambda eta: solve_hp(-eta))


CELL = ["property", "p", "rank", "trial"]

# property -> (suite, ranks, defect, the property whose certificate the report
# keeps, that certificate's keys after CELL).  The pcurv defect breaks
# horizontality first, so invariant_descent is seen in the counts; its own
# certificate keys are pinned in tests/test_verify.py.
SUITE_CASES = {
    "closed_form_rank1": (
        "pcurv", [1], _pcurv_one_step_short, "closed_form_rank1", ["connection", "residual"]
    ),
    "horizontality": (
        "pcurv", [2], _pcurv_one_step_short, "horizontality", ["connection", "residual"]
    ),
    "invariant_descent": (
        "pcurv", [2], _pcurv_one_step_short, "horizontality", ["connection", "residual"]
    ),
    "gauge_invariance": (
        "hitchin", [2], _gauge_without_derivative, "gauge_invariance", ["connection", "gauge"]
    ),
    "companion_section": (
        "hitchin", [2], _companion_unsigned, "companion_section", ["invariants"]
    ),
    "pullback_flat": (
        "cartier", [2], _flat_frame_of_negated_matrix, "pullback_flat", ["connection", "error"]
    ),
    "defect_detected": (
        "cartier",
        [2],
        _obstruction_one_order_late,
        "defect_detected",
        ["connection", "predicted_order", "error"],
    ),
    "dlog_in_kernel": (
        "exactness", [1], _cartier_op_slot_early, "dlog_in_kernel", ["unit", "image"]
    ),
    "kernel_constructive": (
        "exactness", [1], _verify_kernel_unit_inverted, "kernel_constructive", ["unit", "recovered"]
    ),
    "section_identity": (
        "exactness", [1], _solve_hp_adds_eta, "section_identity", ["target", "image"]
    ),
}


@pytest.mark.parametrize("prop", list(SUITE_CASES))
def test_planted_defect_fails_its_suite_property(monkeypatch, prop) -> None:
    suite, ranks, plant, kept, keys = SUITE_CASES[prop]
    plant(monkeypatch)
    report = verify.run_suite(suite, [3], ranks, None, 2, 0)
    failure = report["failure"]
    assert failure is not None and failure["property"] == kept
    assert list(failure) == CELL + keys
    counts = {row["name"]: (row["pass"], row["fail"]) for row in report["properties"]}
    assert counts[prop][1] > 0


@pytest.mark.parametrize(
    "suite, ranks", [("pcurv", [1, 2]), ("hitchin", [2]), ("cartier", [2]), ("exactness", [1])]
)
def test_unplanted_grids_pass(suite, ranks) -> None:
    # the grids above without a defect: every failure there is the defect's
    report = verify.run_suite(suite, [3], ranks, None, 2, 0)
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
    out = spectral.eval_at(ring.element([S(f5, "2 + z^2", 8)]).coeffs, S(f5, "1 + z", 3))
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


def test_lift_with_an_unlifted_inverse_fails_its_certificate(monkeypatch) -> None:
    # the kept 1/char'(mu) never leaves its residue, so each Newton step of
    # the lift gains one order instead of doubling the known ones
    f5 = FieldSpec(5)
    ring = spectral.SpectralRing(InvariantTuple((S(f5, "3 + z", 20), S(f5, "2 + z^2", 20))))
    assert [mu.coeff(0) for mu in ring.eigenvalues] == [1, 2]
    monkeypatch.setattr(_kernels_py, "_newton_inverse", lambda inv, d, *rest: inv)
    with pytest.raises(InternalInconsistency, match="Newton lifting failed to converge"):
        spectral.SpectralRing(ring.b).eigenvalues
