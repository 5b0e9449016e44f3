"""Per-layer tracing that wraps pdisk's functions at run time.

Nothing under ``src/`` knows about it.  ``install`` replaces every binding of
each traced function in every loaded ``pdisk`` module (``from .connection
import pcurv`` copies the function into ``harmonic``, ``hitchin``, ``verify``
and ``cli``; ``series`` reaches the kernels through the ``impl`` module), and
``Patches.restore`` puts every original back.

Spans are aggregated in memory per name (calls, self time) rather than kept
one by one: the kernels are called millions of times per run.  A span's self
time is its duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from spec import MUL_BUCKETS, REJECTIONS, SPANS


class Tracer:
    """Nested spans with self time, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[Any]] = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration


def coef_products(na: int, nb: int, nout: int) -> int:
    """Pairs (i, j) with i < na, j < nb and i + j < nout: the schoolbook product count."""
    m = min(na, nout)
    full = max(0, min(m, nout - nb + 1))  # rows i that reach all nb terms of b
    rest = m - full
    return full * nb + rest * nout - (full + m - 1) * rest // 2


def mul_bucket(n: int) -> str:
    for name, limit in MUL_BUCKETS:
        if limit is None or n <= limit:
            return name
    raise AssertionError("the last bucket is unbounded")


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count calls of a method; positional arguments only, to keep the hot path short."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(self, *args):
        counts[name] += 1
        return fn(self, *args)

    return wrapper


def _series_mul(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(a, b, nout, *rest):
        counts["kernels.series_mul.coef_products"] += coef_products(len(a), len(b), nout)
        counts["kernels.series_mul." + mul_bucket(nout)] += 1
        return fn(a, b, nout, *rest)

    return wrapper


def _solve_harmonic(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            kind = type(exc).__name__
            if kind in REJECTIONS:
                counts[f"harmonic.solve_harmonic.rejected.{kind}"] += 1
            raise

    return wrapper


def pdisk_modules() -> list:
    """Import and return every pdisk module (the optional compiled kernel may be absent)."""
    import pdisk

    for info in pkgutil.iter_modules(pdisk.__path__, "pdisk."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue
    return [m for name, m in sorted(sys.modules.items()) if name == "pdisk" or name.startswith("pdisk.")]


class Patches:
    """Replaced bindings, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, modules: list, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` wherever a module binds it by name."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _resolve(module: Any, path: str) -> tuple[Any, str]:
    *owners, attr = path.split(".")
    obj = module
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def install(tracer: Tracer) -> Patches:
    """Wrap every traced pdisk function and counter site; returns the undo log."""
    from pdisk.field import FieldSpec
    from pdisk.matrix import SeriesMatrix
    from pdisk.series import TruncSeries

    modules = pdisk_modules()
    patches = Patches()
    try:
        for name, module_name, path in SPANS:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = owner.__dict__[attr]
            wrapped = original
            if name == "kernels.series_mul":
                wrapped = _series_mul(tracer, wrapped)
            elif name == "harmonic.solve_harmonic":
                wrapped = _solve_harmonic(tracer, wrapped)
            wrapped = _span(tracer, name, wrapped)
            if isinstance(owner, type):
                patches.set(owner, attr, wrapped)
            else:
                patches.rebind(modules, original, wrapped)
        for cls, attr, name in (
            (TruncSeries, "__post_init__", "series.TruncSeries.constructed"),
            (SeriesMatrix, "__post_init__", "matrix.SeriesMatrix.constructed"),
            (FieldSpec, "validate", "series.coeffs_validated"),
            (FieldSpec, "mul", "field.mul.calls"),
            (FieldSpec, "add", "field.add.calls"),
        ):
            patches.set(cls, attr, _counted(tracer, name, cls.__dict__[attr]))
    except BaseException:
        patches.restore()
        raise
    return patches

