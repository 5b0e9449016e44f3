"""Seeded verification suites with byte-stable reports.

Each suite draws every random object from a single splitmix stream, so a
fixed (suite, p list, rank list, precision, trials, seed) tuple always
produces the identical report, byte for byte.  Suites record ordered
per-property pass/fail counts and keep the first failure as a
certificate carrying enough input data to replay it.

Suite map: pcurv (closed form, horizontality, invariant descent),
hitchin (gauge invariance, companion section), cartier (descent
succeeds or fails exactly as predicted), exactness (the four-term
sequence), harmonic (the three output equations), roundtrip (both
compositions and the torsor difference).
"""

from __future__ import annotations

from typing import Any, Callable

from . import jsonio
from .cartier import flat_matrix_section, hp_map, kernel_unit, solve_hp
from .connection import Connection, check_horizontality, dlog, gauge, pcurv
from .errors import NonSplitResidue, NonzeroPCurvature, PdiskError, RepeatedResidueRoot
from .field import FieldSpec
from .harmonic import cinv, cmap, inverse, solve_harmonic, torsor_difference
from .hitchin import InvariantTuple, char_invariants, companion_section, descend_invariants, phitchin
from .matrix import SeriesMatrix
from .rng import SplitMix64
from .series import TruncSeries, VAR_DISK, VAR_TWIST

_ACCEPT_TRIES = 400


class _Tally:
    """Ordered per-property [pass, fail] counts plus the first failure certificate.

    ``cell`` is the grid cell (p, rank, trial) under way; every certificate
    starts with it.
    """

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}
        self.failure: dict[str, Any] | None = None
        self.cell: dict[str, int] = {}

    def record(self, prop: str, ok: bool, **cert: Any) -> None:
        """Count one outcome of ``prop``; keep the first failure's certificate.

        A callable certificate value is called only when that failure is kept.
        """
        self.counts.setdefault(prop, [0, 0])[0 if ok else 1] += 1
        if not ok and self.failure is None:
            self.failure = {"property": prop, **self.cell}
            for key, value in cert.items():
                self.failure[key] = value() if callable(value) else value

    def check(self, prop: str, test: Callable[[], bool], **cert: Any) -> None:
        """Record ``test()``; a raised PdiskError fails with its payload as ``error``."""
        try:
            ok = test()
        except PdiskError as exc:
            ok = False
            cert["error"] = exc.payload()
        self.record(prop, ok, **cert)

    def report(self) -> dict[str, Any]:
        total_pass = sum(c[0] for c in self.counts.values())
        total_fail = sum(c[1] for c in self.counts.values())
        return {
            "properties": [{"name": n, "pass": c[0], "fail": c[1]} for n, c in self.counts.items()],
            "pass": total_pass,
            "fail": total_fail,
            "total": total_pass + total_fail,
            "failure": self.failure,
        }


def _suite_pcurv(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    p = field.p
    conn = Connection(rng.matrix(field, VAR_DISK, n, prec))
    conn_json = lambda: jsonio.connection_to_json(conn)
    psi = pcurv(conn)
    if n == 1:
        a = conn.matrix.entry(0, 0)
        d = a
        for _ in range(p - 1):
            d = d.derivative()
        closed = a**p + d
        got = psi.matrix.entry(0, 0)
        tally.record(
            "closed_form_rank1",
            got.agrees_with(closed),
            connection=conn_json,
            residual=lambda: str(got - closed),
        )
    resid = check_horizontality(conn, psi)
    tally.record(
        "horizontality",
        resid.is_zero(),
        connection=conn_json,
        residual=lambda: jsonio.matrix_to_json(resid),
    )
    b = psi.matrix.invariants
    tally.check("invariant_descent", lambda: descend_invariants(b).rank == n, connection=conn_json)


def _suite_hitchin(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    conn = Connection(rng.matrix(field, VAR_DISK, n, prec))
    g = rng.unit_matrix(field, VAR_DISK, n, prec)
    b1 = phitchin(conn)
    b2 = phitchin(gauge(g, conn))
    tally.record(
        "gauge_invariance",
        b2.agrees_with(b1),
        connection=lambda: jsonio.connection_to_json(conn),
        gauge=lambda: jsonio.matrix_to_json(g),
    )
    b = InvariantTuple(tuple(rng.series(field, VAR_TWIST, prec) for _ in range(n)))
    back = char_invariants(companion_section(b))
    tally.record(
        "companion_section",
        back.agrees_with(b),
        invariants=lambda: jsonio.invariants_to_json(b),
    )


def _suite_cartier(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    p = field.p
    g = rng.unit_matrix(field, VAR_DISK, n, prec)
    conn = gauge(g, Connection(SeriesMatrix.zero(field, VAR_DISK, n, prec)))
    tally.check(
        "pullback_flat",
        lambda: flat_matrix_section(conn).rank == n,
        connection=lambda: jsonio.connection_to_json(conn),
    )

    diag = [dlog(rng.unit_series(field, VAR_DISK, prec)) for _ in range(n)]
    dprec = min(d.precision for d in diag)
    slot = rng.below(n)
    c = rng.unit(field)
    s = (p - 1) + p * rng.below(max(1, (dprec - p) // p + 1))
    defect = TruncSeries.monomial(field, VAR_DISK, s, dprec, c)
    diag[slot] = diag[slot] + defect
    bad = Connection(SeriesMatrix.diagonal(diag))
    try:
        flat_matrix_section(bad)
        ok = False
        detail = {"note": "no obstruction raised"}
    except NonzeroPCurvature as exc:
        ok = exc.order == s
        detail = exc.payload()
    tally.record(
        "defect_detected",
        ok,
        connection=lambda: jsonio.connection_to_json(bad),
        predicted_order=s,
        error=detail,
    )


def _suite_exactness(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    u = rng.unit_series(field, VAR_DISK, prec)
    w = dlog(u)
    img = hp_map(1, w)
    tally.record("dlog_in_kernel", img.is_zero(), unit=lambda: str(u), image=lambda: str(img))
    back = kernel_unit(w)
    tally.record(
        "kernel_constructive",
        dlog(back).agrees_with(w),
        unit=lambda: str(u),
        recovered=lambda: str(back),
    )
    eta = rng.series(field, VAR_TWIST, prec)
    w2 = solve_hp(eta)
    again = hp_map(1, w2)
    tally.record(
        "section_identity",
        again.agrees_with(eta),
        target=lambda: str(eta),
        image=lambda: str(again),
    )


def _accepted_instance(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int):
    """A random connection whose p-curvature the eigen machinery accepts.

    When the retry budget runs out, or solve_harmonic raises any other
    PdiskError, records the instance_generation failure and returns
    (None, None).
    """
    for _ in range(_ACCEPT_TRIES):
        conn = Connection(rng.matrix(field, VAR_DISK, n, prec))
        try:
            return conn, solve_harmonic(conn)
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
        except PdiskError as exc:
            conn_json = lambda: jsonio.connection_to_json(conn)
            tally.record("instance_generation", False, connection=conn_json, error=exc.payload())
            return None, None
    tally.record("instance_generation", False, note="no accepted instance within retry budget")
    return None, None


def _suite_harmonic(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    conn, pkg = _accepted_instance(tally, rng, field, n, prec)
    if conn is None:
        return
    conn_json = lambda: jsonio.connection_to_json(conn)
    psi = pcurv(conn)
    a = pkg.harmonic.endomorphism(psi.matrix)
    twisted = Connection(conn.matrix - a)
    tally.record(
        "twisted_curvature_zero", pcurv(twisted).matrix.is_zero(), connection=conn_json
    )
    # theta(psi) is frame-free: theta at the pulled-back Higgs side, moved by the gauge g
    g = pkg.gauge
    in_frame = g @ pkg.harmonic.theta.eval_matrix(pkg.higgs.expand_pth_power()) @ g.inverse()
    tally.record("commutation", a.agrees_with(in_frame), connection=conn_json)
    psi_flat = psi.matrix.conjugate_by(pkg.flat_frame)
    tally.record(
        "transported_horizontal", psi_flat.derivative().is_zero(), connection=conn_json
    )


def _suite_roundtrip(tally: _Tally, rng: SplitMix64, field: FieldSpec, n: int, prec: int) -> None:
    conn, pkg = _accepted_instance(tally, rng, field, n, prec)
    if conn is None:
        return
    h = pkg.harmonic
    x = pkg.higgs
    conn_json = lambda: jsonio.connection_to_json(conn)

    def cinv_cmap_identity() -> bool:
        c2 = cmap(h, x)
        pkg2 = cinv(c2, inverse(h))
        ok = pkg2.higgs.agrees_with(x)
        psi2 = pcurv(c2)
        lifted = pkg2.higgs.expand_pth_power()
        transported = psi2.matrix.conjugate_by(pkg2.gauge)
        return ok and lifted.agrees_with(transported)

    def cmap_cinv_gauge() -> bool:
        pkg3 = cinv(conn, inverse(h))
        c3 = cmap(h, pkg3.higgs)
        return gauge(pkg3.gauge.inverse(), conn).matrix.agrees_with(c3.matrix)

    def torsor_unit() -> bool:
        g = rng.unit_matrix(field, VAR_DISK, n, prec)
        _, unit = torsor_difference(h, solve_harmonic(gauge(g, conn)).harmonic)
        return unit is not None

    tally.check("cinv_cmap_identity", cinv_cmap_identity, connection=conn_json)
    tally.check("cmap_cinv_gauge", cmap_cinv_gauge, connection=conn_json)
    tally.check("torsor_unit", torsor_unit, connection=conn_json)


_SUITE_BODIES = {
    "pcurv": _suite_pcurv,
    "hitchin": _suite_hitchin,
    "cartier": _suite_cartier,
    "exactness": _suite_exactness,
    "harmonic": _suite_harmonic,
    "roundtrip": _suite_roundtrip,
}

SUITES = tuple(_SUITE_BODIES)

# The least working precision at which each suite can pass, per prime p.
# Below it a suite raises InsufficientPrecision or records failures that
# the precision itself causes: cartier at N <= p plants its defect beyond
# the known coefficients, and roundtrip at 2p + 2 loses to gauge the one
# order that solving the gauged connection again needs.
PRECISION_FLOORS: dict[str, Callable[[int], int]] = {
    "pcurv": lambda p: p + 2,
    "hitchin": lambda p: p + 3,
    "cartier": lambda p: p + 1,
    "exactness": lambda p: 1,
    "harmonic": lambda p: 2 * p + 2,
    "roundtrip": lambda p: 2 * p + 3,
}

# The largest prime the CLI runs suites at: a trial costs about p^2 at the
# default precision, and the default grid at p = 53 took 32 s (README).
MAX_PRIME = 53

# exactness properties are scalar; that suite ignores the rank grid
_RANK_FREE = {"exactness"}


def run_suite(
    name: str,
    ps: list[int],
    ranks: list[int],
    precision: int | None,
    trials: int,
    seed: int,
) -> dict[str, Any]:
    """Run one named suite (or 'all') and return its report dict."""
    if name == "all":
        rng = SplitMix64(seed)
        reports = [run_suite(s, ps, ranks, precision, trials, rng.next_u64()) for s in SUITES]
        total_pass = sum(r["pass"] for r in reports)
        total_fail = sum(r["fail"] for r in reports)
        return {
            "suite": "all",
            "parameters": _params(ps, ranks, precision, trials, seed),
            "suites": reports,
            "pass": total_pass,
            "fail": total_fail,
            "total": total_pass + total_fail,
        }
    if name not in _SUITE_BODIES:
        raise ValueError(f"unknown suite {name!r}")
    body = _SUITE_BODIES[name]
    tally = _Tally()
    rng = SplitMix64(seed)
    grid_ranks = [1] if name in _RANK_FREE else ranks
    for p in ps:
        field = FieldSpec(p)
        prec = precision if precision is not None else 3 * p + 4
        for n in grid_ranks:
            stream = rng.split()
            for t in range(trials):
                tally.cell = {"p": p, "rank": n, "trial": t}
                body(tally, stream, field, n, prec)
    return {"suite": name, "parameters": _params(ps, ranks, precision, trials, seed), **tally.report()}


def _params(ps, ranks, precision, trials, seed) -> dict[str, Any]:
    return {
        "p": list(ps),
        "rank": list(ranks),
        "precision": precision,
        "trials": trials,
        "seed": seed,
    }
