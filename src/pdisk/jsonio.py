"""JSON wire formats and the series text grammar.

Every emitted object is self-contained: it carries "p", "ext_degree" and
"modulus" alongside its payload, so files round-trip without out-of-band
context.  Readers accept objects missing the field keys when a fallback
prime is supplied (the CLI's --p flag).

Series grammar: terms `c`, `c*z^k`, `z^k`, `z` joined by `+`; c is an
integer coefficient, or a `[a0,...,a_{k-1}]` vector in the modulus basis
for extension fields.  Canonical output is ascending in the exponent,
omits zero terms, prints the zero series as `0`, uses bare `z` at
exponent 1, and always writes the letter z; the accompanying "var" tag
says which coordinate (z or z') the letters mean.  Parsing is more
lenient: whitespace, a missing `*`, `z'` letters, `z^1`, repeated
exponents and out-of-range integers are all accepted and normalized.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .connection import Connection, FHiggs
from .errors import SchemaError
from .field import FieldSpec
from .harmonic import CorrespondencePackage, HarmonicDatum, frame_for_rank
from .hitchin import InvariantTuple
from .matrix import SeriesMatrix
from .series import TruncSeries, VAR_DISK, VAR_TWIST, format_series
from .spectral import SpectralElement, SpectralRing

# The largest precision a document (or `pdisk verify`) may state.  Parsing
# allocates that many coefficients up front, and the costliest stage grows
# about as N^1.7: rank-2 F_5 solve_harmonic takes about 19 s at N = 4096.
MAX_PRECISION = 4096

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+|\[[^\]]*\])\s*\*?\s*)?(?:(?P<letter>z'?)(?:\^(?P<exp>\d+))?)?$"
)


# -- element and series text ------------------------------------------------


def parse_element(field: FieldSpec, text: str, path: str) -> int:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise SchemaError(f"unterminated coefficient vector {text!r}", path)
        body = text[1:-1].strip()
        digits = []
        if body:
            for part in body.split(","):
                part = part.strip()
                try:
                    digits.append(int(part) % field.p)
                except ValueError:
                    raise SchemaError(f"bad digit {part!r} in coefficient vector", path)
        if len(digits) > field.k:
            raise SchemaError(
                f"coefficient vector longer than extension degree {field.k}", path
            )
        digits += [0] * (field.k - len(digits))
        return field.encode(digits)
    try:
        value = int(text)
    except ValueError:
        raise SchemaError(f"bad coefficient {text!r}", path)
    return value % field.p


def parse_series(
    field: FieldSpec, text: str, var: str, precision: int, path: str
) -> TruncSeries:
    if not isinstance(text, str):
        raise SchemaError("series must be a string", path)
    coeffs = [0] * precision
    stripped = text.strip()
    if stripped == "":
        raise SchemaError("empty series string", path)
    for raw in stripped.split("+"):
        term = raw.strip()
        if term == "":
            raise SchemaError("empty term in series string", path)
        m = _TERM_RE.match(term)
        if m is None or (m.group("coeff") is None and m.group("letter") is None):
            raise SchemaError(f"unparseable term {term!r}", path)
        if m.group("coeff") is None:
            c = 1
        else:
            c = parse_element(field, m.group("coeff"), path)
        if m.group("letter") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        if c == 0:
            continue
        if exp >= precision:
            raise SchemaError(
                f"term {term!r} has exponent {exp} beyond stated precision {precision}",
                path,
            )
        coeffs[exp] = field.add(coeffs[exp], c)
    return TruncSeries.make(field, var, coeffs, precision)


# -- structural helpers -----------------------------------------------------


def _need(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", path)
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path)
    return obj[key]


def _is_int(v: Any) -> bool:
    """A JSON integer: bool is an int subclass in Python, but true and false are not integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _need_int(obj: Any, key: str, path: str) -> int:
    v = _need(obj, key, path)
    if not _is_int(v):
        raise SchemaError(f"key {key!r} must be an integer", f"{path}.{key}")
    return v


def _need_var(obj: Any, path: str) -> str:
    v = _need(obj, "var", path)
    if v not in (VAR_DISK, VAR_TWIST):
        raise SchemaError(f"var must be 'z' or \"z'\", got {v!r}", f"{path}.var")
    return v


def field_to_obj(field: FieldSpec) -> dict[str, Any]:
    return {
        "p": field.p,
        "ext_degree": field.k,
        "modulus": list(field.modulus) if field.modulus is not None else None,
    }


def field_from_obj(obj: Any, path: str, fallback_p: int | None = None) -> FieldSpec:
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", path)
    if "p" not in obj:
        if fallback_p is None:
            raise SchemaError("missing key 'p' and no --p fallback given", path)
        return _build_field(fallback_p, 1, None, path)
    p = _need_int(obj, "p", path)
    k = _need_int(obj, "ext_degree", path) if "ext_degree" in obj else 1
    modulus = obj.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or not all(_is_int(c) for c in modulus):
            raise SchemaError("modulus must be a list of integers", f"{path}.modulus")
        modulus = tuple(modulus)
    return _build_field(p, k, modulus, path)


def _build_field(p: int, k: int, modulus: tuple[int, ...] | None, path: str) -> FieldSpec:
    try:
        return FieldSpec(p, k, modulus)
    except ValueError as exc:
        raise SchemaError(str(exc), path)


def _header_to_obj(field: FieldSpec, var: str, precision: int) -> dict[str, Any]:
    obj = field_to_obj(field)
    obj["var"] = var
    obj["precision"] = precision
    return obj


def _header_from_obj(
    obj: Any, path: str, fallback_p: int | None
) -> tuple[FieldSpec, str, int]:
    """The field, var and precision every series-carrying object starts with."""
    field = field_from_obj(obj, path, fallback_p)
    var = _need_var(obj, path)
    precision = _need_int(obj, "precision", path)
    if precision < 0:
        raise SchemaError("precision must be nonnegative", f"{path}.precision")
    if precision > MAX_PRECISION:
        raise SchemaError(f"precision {precision} is above {MAX_PRECISION}", f"{path}.precision")
    return field, var, precision


def _need_ranked(obj: Any, key: str, noun: str, path: str) -> list:
    """obj[key], which must be a list of obj["rank"] >= 1 items."""
    rank = _need_int(obj, "rank", path)
    if rank < 1:
        raise SchemaError("rank must be at least 1", f"{path}.rank")
    items = _need(obj, key, path)
    if not isinstance(items, list) or len(items) != rank:
        raise SchemaError(f"{key} must be a list of {rank} {noun}", f"{path}.{key}")
    return items


# -- scalar and plain-series files ------------------------------------------


def scalar_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> tuple[FieldSpec, int]:
    field = field_from_obj(obj, path, fallback_p)
    v = _need(obj, "element", path)
    if isinstance(v, str):
        return field, parse_element(field, v, f"{path}.element")
    if _is_int(v):
        if field.k == 1:
            return field, v % field.p
        if not 0 <= v < field.q:
            raise SchemaError(
                f"element {v} is not an encoded element of F_{field.p}^{field.k}",
                f"{path}.element",
            )
        return field, v
    if isinstance(v, list) and all(_is_int(c) for c in v):
        if len(v) > field.k:
            raise SchemaError("element vector longer than extension degree", f"{path}.element")
        digits = [c % field.p for c in v] + [0] * (field.k - len(v))
        return field, field.encode(digits)
    raise SchemaError("element must be an integer or integer vector", f"{path}.element")


def series_to_json(s: TruncSeries) -> dict[str, Any]:
    obj = _header_to_obj(s.field, s.var, s.precision)
    obj["series"] = format_series(s)
    return obj


def series_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> TruncSeries:
    field, var, precision = _header_from_obj(obj, path, fallback_p)
    return parse_series(field, _need(obj, "series", path), var, precision, f"{path}.series")


# -- one-forms --------------------------------------------------------------


def oneform_to_json(w: TruncSeries) -> dict[str, Any]:
    """The one-form w dz (or w dz'), written as its coefficient series."""
    obj = _header_to_obj(w.field, w.var, w.precision)
    obj["coefficient"] = format_series(w)
    return obj


def oneform_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> TruncSeries:
    field, var, precision = _header_from_obj(obj, path, fallback_p)
    return parse_series(
        field, _need(obj, "coefficient", path), var, precision, f"{path}.coefficient"
    )


# -- matrices, connections, F-Higgs fields ----------------------------------


def matrix_to_json(m: SeriesMatrix) -> dict[str, Any]:
    obj = _header_to_obj(m.field, m.var, m.precision)
    obj["rank"] = m.rank
    obj["matrix"] = [[format_series(e) for e in row] for row in m.entries]
    return obj


def matrix_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> SeriesMatrix:
    field, var, precision = _header_from_obj(obj, path, fallback_p)
    rows = _need_ranked(obj, "matrix", "rows", path)
    rank = len(rows)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(f"row must be a list of {rank} entries", f"{path}.matrix[{i}]")
        out.append(
            tuple(
                parse_series(field, e, var, precision, f"{path}.matrix[{i}][{j}]")
                for j, e in enumerate(row)
            )
        )
    return SeriesMatrix(tuple(out))


def connection_to_json(conn: Connection) -> dict[str, Any]:
    return matrix_to_json(conn.matrix)


def connection_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> Connection:
    m = matrix_from_json(obj, path, fallback_p)
    if m.var != VAR_DISK:
        raise SchemaError("a connection matrix lives in the z coordinate", f"{path}.var")
    return Connection(m)


def fhiggs_to_json(psi: FHiggs) -> dict[str, Any]:
    obj = matrix_to_json(psi.matrix)
    obj["twist_weight"] = psi.twist_weight
    return obj


# -- invariant tuples -------------------------------------------------------


def invariants_to_json(b: InvariantTuple) -> dict[str, Any]:
    obj = _header_to_obj(b.field, b.var, b.precision)
    obj["rank"] = b.rank
    obj["entries"] = [format_series(e) for e in b.entries]
    return obj


def invariants_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> InvariantTuple:
    field, var, precision = _header_from_obj(obj, path, fallback_p)
    entries = _need_ranked(obj, "entries", "series", path)
    parsed = tuple(
        parse_series(field, e, var, precision, f"{path}.entries[{i}]")
        for i, e in enumerate(entries)
    )
    return InvariantTuple(parsed)


# -- spectral elements and harmonic data ------------------------------------


def spectral_to_json(elt: SpectralElement) -> dict[str, Any]:
    # the textual coefficients carry no precision of their own, so the
    # embedded base is cut to the element's precision to keep the
    # roundtrip from claiming unknown coefficients are zero
    return {
        "b": invariants_to_json(elt.ring.b.truncate(elt.precision)),
        "coeffs_in_lambda": [format_series(c) for c in elt.coeffs],
    }


def spectral_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> SpectralElement:
    b = invariants_from_json(_need(obj, "b", path), f"{path}.b", fallback_p)
    ring = SpectralRing(b)
    raw = _need(obj, "coeffs_in_lambda", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError("coeffs_in_lambda must be a nonempty list", f"{path}.coeffs_in_lambda")
    coeffs = [
        parse_series(b.field, c, b.var, b.precision, f"{path}.coeffs_in_lambda[{i}]")
        for i, c in enumerate(raw)
    ]
    return ring.element(coeffs)


def harmonic_to_json(h: HarmonicDatum) -> dict[str, Any]:
    obj = {
        "b_prime": invariants_to_json(h.b_prime),
        "theta": spectral_to_json(h.theta),
        "frame": h.frame,
    }
    if h.curvature_sign != 1:
        obj["curvature_sign"] = h.curvature_sign
    return obj


def harmonic_from_json(obj: Any, path: str = "$", fallback_p: int | None = None) -> HarmonicDatum:
    b_prime = invariants_from_json(_need(obj, "b_prime", path), f"{path}.b_prime", fallback_p)
    theta = spectral_from_json(_need(obj, "theta", path), f"{path}.theta", fallback_p)
    frame = _need(obj, "frame", path)
    want = frame_for_rank(b_prime.rank)
    if frame != want:
        raise SchemaError(f"rank {b_prime.rank} needs frame {want}, got {frame!r}", f"{path}.frame")
    sign = obj.get("curvature_sign", 1)
    if not _is_int(sign) or sign not in (1, -1):
        raise SchemaError("curvature_sign must be 1 or -1", f"{path}.curvature_sign")
    return HarmonicDatum(b_prime, theta, sign)


def package_to_json(pkg: CorrespondencePackage) -> dict[str, Any]:
    return {
        "connection": connection_to_json(pkg.connection),
        "higgs": matrix_to_json(pkg.higgs),
        "harmonic": harmonic_to_json(pkg.harmonic),
        "gauge": matrix_to_json(pkg.gauge),
    }


# -- canonical dumping ------------------------------------------------------


def dumps_canonical(obj: Any, compact: bool = False) -> str:
    if compact:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=2)
