"""A value is its fields: every kept fact stays outside ==, hash, repr and pickles.

The kept facts are found by introspection: each ``functools.cached_property``
in the classes of the package's modules, plus the inverse that
``SeriesMatrix.inverse`` keeps.  For seeded instances of every class that
keeps one, every fact reachable through the fields is read; the object must
then compare, hash, print and pickle exactly as a twin built from the same
fields, and unpickle to an object that holds its fields alone.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from contextlib import suppress
from dataclasses import fields, is_dataclass
from functools import cached_property

import pytest

import pdisk
from pdisk.connection import Connection
from pdisk.errors import NonSplitResidue, RepeatedResidueRoot, SingularGauge
from pdisk.field import FieldSpec, Value
from pdisk.harmonic import inverse, solve_harmonic
from pdisk.matrix import SeriesMatrix
from pdisk.rng import SplitMix64
from pdisk.series import VAR_DISK


def kept_facts() -> dict[type, list[str]]:
    """Each class of a pdisk module with the names of its cached properties."""
    found = {}
    for info in pkgutil.iter_modules(pdisk.__path__):
        module = importlib.import_module(f"pdisk.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names = [n for n, v in vars(cls).items() if isinstance(v, cached_property)]
                if names:
                    found[cls] = names
    return found


FACTS = kept_facts()


def read_facts(obj, seen: set[int]) -> None:
    """Read every fact of obj and of everything its fields reach."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, tuple):
        for item in obj:
            read_facts(item, seen)
        return
    if not is_dataclass(obj):
        return
    for name in FACTS.get(type(obj), ()):
        getattr(obj, name)
        assert name in vars(obj), f"{type(obj).__name__}.{name} was not kept"
    if isinstance(obj, SeriesMatrix):
        # a singular matrix has no inverse to keep
        with suppress(SingularGauge):
            obj.inverse()
    for f in fields(obj):
        read_facts(getattr(obj, f.name), seen)


def twin(obj, memo: dict[int, object]):
    """obj rebuilt from its fields alone, sharing as obj shares, computing nothing."""
    if id(obj) in memo:
        return memo[id(obj)]
    if isinstance(obj, tuple):
        new = tuple(twin(item, memo) for item in obj)
    elif is_dataclass(obj):
        new = object.__new__(type(obj))
        new.__dict__.update({f.name: twin(getattr(obj, f.name), memo) for f in fields(obj)})
    else:
        new = obj
    memo[id(obj)] = new
    return new


def holds_fields_alone(obj) -> bool:
    if isinstance(obj, tuple):
        return all(holds_fields_alone(item) for item in obj)
    if not is_dataclass(obj):
        return True
    names = [f.name for f in fields(obj)]
    return sorted(vars(obj)) == sorted(names) and all(
        holds_fields_alone(getattr(obj, name)) for name in names
    )


def facts(obj) -> list:
    """The facts kept on obj itself (not on its fields), read."""
    kept = [getattr(obj, name) for name in FACTS.get(type(obj), ())]
    return kept + [obj.inverse()] if isinstance(obj, SeriesMatrix) else kept


F9 = FieldSpec(3, 2, (1, 0, 1))
CASES = [(FieldSpec(5), 2, 19), (FieldSpec(3), 1, 10), (F9, 2, 9)]


def seeded_instances(field: FieldSpec, n: int, precision: int) -> list:
    """One instance of every class that keeps a fact, from one solved connection."""
    rng = SplitMix64(field.q + 40)
    while True:
        conn = Connection(rng.unit_matrix(field, VAR_DISK, n, precision))
        try:
            pkg = solve_harmonic(conn)
            break
        except (NonSplitResidue, RepeatedResidueRoot):
            continue
    theta = pkg.harmonic.theta
    return [
        field,
        conn.matrix,
        pkg.gauge.inverse(),
        conn,
        theta.ring,
        theta,
        pkg.harmonic,
        inverse(pkg.harmonic),
        pkg,
    ]


def test_every_fact_keeper_follows_the_rule() -> None:
    assert FACTS, "no cached_property found"
    seeded = {type(obj) for obj in seeded_instances(*CASES[1])}
    for cls in FACTS:
        assert issubclass(cls, Value), f"{cls.__name__} keeps facts outside the rule"
        assert cls in seeded, f"{cls.__name__} has no seeded instance here"


@pytest.mark.parametrize("field,n,precision", CASES, ids=["F5-rank2", "F3-rank1", "F9-rank2"])
def test_kept_facts_stay_outside_the_value(field: FieldSpec, n: int, precision: int) -> None:
    for obj in seeded_instances(field, n, precision):
        read_facts(obj, set())
        fresh = twin(obj, {})
        assert holds_fields_alone(fresh) and not holds_fields_alone(obj)
        assert obj == fresh and hash(obj) == hash(fresh)
        assert repr(obj) == repr(fresh)
        assert pickle.dumps(obj) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(obj))
        assert holds_fields_alone(back)
        assert back == obj
        # a fact is a function of the value
        assert facts(back) == facts(fresh) == facts(obj)
