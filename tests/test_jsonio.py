"""Wire formats: the series grammar, schema validation, canonical output."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pdisk.connection import Connection, FHiggs
from pdisk.errors import SchemaError
from pdisk.field import FieldSpec
from pdisk.harmonic import inverse, solve_harmonic
from pdisk.hitchin import InvariantTuple
from pdisk.jsonio import (
    MAX_PRECISION,
    connection_from_json,
    connection_to_json,
    dumps_canonical,
    fhiggs_to_json,
    field_from_obj,
    field_to_obj,
    format_series,
    harmonic_from_json,
    harmonic_to_json,
    invariants_from_json,
    invariants_to_json,
    matrix_from_json,
    matrix_to_json,
    oneform_from_json,
    oneform_to_json,
    package_to_json,
    parse_element,
    parse_series,
    scalar_from_json,
    series_from_json,
    series_to_json,
    spectral_from_json,
    spectral_to_json,
)
from pdisk.series import TruncSeries, VAR_DISK, VAR_TWIST
from pdisk.spectral import SpectralRing

from conftest import M, S

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2, (1, 0, 1))


# ==========================================================================
# series grammar
# ==========================================================================


class TestGrammar:
    def test_exponent_one_forms(self) -> None:
        a = parse_series(F3, "z", "z", 4, "t")
        b = parse_series(F3, "z^1", "z", 4, "t")
        c = parse_series(F3, "1*z", "z", 4, "t")
        assert a == b == c

    def test_star_optional(self) -> None:
        assert parse_series(F3, "2z^3", "z", 4, "t") == parse_series(
            F3, "2*z^3", "z", 4, "t"
        )

    def test_twist_letter_interchangeable(self) -> None:
        # the document's var field is authoritative; both letters parse
        a = parse_series(F3, "1 + z'^2", "z'", 4, "t")
        b = parse_series(F3, "1 + z^2", "z'", 4, "t")
        assert a == b and a.var == VAR_TWIST

    def test_repeated_terms_accumulate(self) -> None:
        s = parse_series(F3, "z + z + 2*z", "z", 3, "t")
        assert s.coeff(1) == 1

    def test_integers_reduced(self) -> None:
        s = parse_series(F3, "5 + -1*z", "z", 3, "t")
        assert s.coeff(0) == 2
        assert s.coeff(1) == 2

    def test_whitespace_tolerated(self) -> None:
        s = parse_series(F5, "  3 +  2 * z^2 ", "z", 4, "t")
        assert s.coeff(0) == 3 and s.coeff(2) == 2

    def test_extension_vectors(self) -> None:
        s = parse_series(F9, "[1,2] + [0,1]*z", "z", 3, "t")
        assert s.coeff(0) == F9.encode([1, 2])
        assert s.coeff(1) == F9.encode([0, 1])
        # short vectors pad with zeros
        assert parse_element(F9, "[2]", "t") == 2

    def test_vector_too_long(self) -> None:
        with pytest.raises(SchemaError):
            parse_element(F9, "[1,2,0]", "t")

    def test_exponent_beyond_precision(self) -> None:
        with pytest.raises(SchemaError) as exc:
            parse_series(F3, "z^7", "z", 5, "$.series")
        assert "precision" in str(exc.value)

    def test_garbage_rejected(self) -> None:
        for bad in ("", "q", "z**2", "1 + + z", "2^3", "1 - z"):
            with pytest.raises(SchemaError):
                parse_series(F3, bad, "z", 5, "t")

    def test_zero_coefficient_term_dropped(self) -> None:
        s = parse_series(F3, "0*z^4 + 3*z^2", "z", 5, "t")
        assert s.is_zero()

    def test_format_conventions(self) -> None:
        s = TruncSeries.make(F5, VAR_DISK, [2, 1, 0, 3], 6)
        assert format_series(s) == "2 + z + 3*z^3"
        assert format_series(TruncSeries.zero(F5, VAR_DISK, 4)) == "0"
        v = TruncSeries.make(F9, VAR_DISK, [F9.encode([1, 2])], 2)
        assert format_series(v) == "[1,2]"


@given(st.lists(st.integers(0, 8), min_size=0, max_size=10))
@settings(max_examples=60, deadline=None)
def test_grammar_roundtrip_f9(cs: list[int]) -> None:
    s = TruncSeries.make(F9, VAR_DISK, cs, max(len(cs), 1))
    assert parse_series(F9, format_series(s), "z", s.precision, "t") == s


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_document_roundtrip_f5(cs: list[int]) -> None:
    s = TruncSeries.make(F5, VAR_TWIST, cs, len(cs))
    assert series_from_json(series_to_json(s)) == s


# ==========================================================================
# field headers
# ==========================================================================


class TestFieldHeader:
    def test_fallback_p(self) -> None:
        obj = {"var": "z", "precision": 3, "series": "1 + z"}
        s = series_from_json(obj, fallback_p=5)
        assert s.field == F5

    def test_missing_p_without_fallback(self) -> None:
        with pytest.raises(SchemaError) as exc:
            series_from_json({"var": "z", "precision": 3, "series": "1"})
        assert "'p'" in str(exc.value)

    def test_nonprime_p_surfaces_as_schema_error(self) -> None:
        with pytest.raises(SchemaError):
            field_from_obj({"p": 6}, "$")

    def test_boolean_p_rejected(self) -> None:
        with pytest.raises(SchemaError):
            field_from_obj({"p": True}, "$")

    def test_extension_header_roundtrip(self) -> None:
        obj = {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1], "element": [2, 1]}
        field, a = scalar_from_json(obj)
        assert field == F9 and a == 5
        assert field_to_obj(field) == {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1]}

    def test_bad_modulus_type(self) -> None:
        with pytest.raises(SchemaError):
            field_from_obj({"p": 3, "ext_degree": 2, "modulus": "101"}, "$")

    @pytest.mark.parametrize("precision", [MAX_PRECISION + 1, 10**12])
    def test_precision_above_bound_refused(self, precision: int) -> None:
        """Refused before parsing allocates ``precision`` coefficients."""
        obj = {"p": 2, "var": "z", "precision": precision, "series": "1"}
        with pytest.raises(SchemaError) as exc:
            series_from_json(obj)
        assert exc.value.path == "$.precision"

    def test_precision_at_bound_accepted(self) -> None:
        obj = {"p": 2, "var": "z", "precision": MAX_PRECISION, "series": "1 + z"}
        assert series_from_json(obj).precision == MAX_PRECISION


# ==========================================================================
# scalars
# ==========================================================================


class TestScalar:
    def test_integer_element(self) -> None:
        field, a = scalar_from_json({"p": 7, "element": 9})
        assert a == 2

    def test_vector_element(self) -> None:
        field, a = scalar_from_json(
            {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1], "element": [1, 2]}
        )
        assert a == F9.encode([1, 2])

    def test_string_element(self) -> None:
        field, a = scalar_from_json({"p": 5, "element": "-1"})
        assert a == 4

    def test_junk_element(self) -> None:
        with pytest.raises(SchemaError):
            scalar_from_json({"p": 5, "element": 2.5})


# ==========================================================================
# structured documents
# ==========================================================================


class TestStructured:
    def test_matrix_roundtrip(self) -> None:
        m = M(F3, [["1 + z", "2*z^2"], ["0", "z"]], 5)
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_matrix_schema_paths(self) -> None:
        good = matrix_to_json(M(F3, [["z"]], 4))
        bad = dict(good)
        bad["rank"] = 0
        with pytest.raises(SchemaError) as e1:
            matrix_from_json(bad, "$")
        assert e1.value.details.get("path") == "$.rank"
        bad = dict(good)
        bad["matrix"] = [["z", "1"]]
        with pytest.raises(SchemaError) as e2:
            matrix_from_json(bad, "$")
        assert e2.value.details.get("path") == "$.matrix[0]"
        bad = dict(good)
        bad["matrix"] = [["z**"]]
        with pytest.raises(SchemaError) as e3:
            matrix_from_json(bad, "$")
        assert e3.value.details.get("path") == "$.matrix[0][0]"

    def test_connection_var_guard(self) -> None:
        obj = matrix_to_json(M(F3, [["z"]], 4, var="z'"))
        with pytest.raises(SchemaError) as exc:
            connection_from_json(obj)
        assert exc.value.details.get("path") == "$.var"

    def test_connection_roundtrip(self) -> None:
        conn = Connection(M(F2, [["1", "z"], ["0", "1 + z^2"]], 6))
        assert connection_from_json(connection_to_json(conn)) == conn

    def test_fhiggs_roundtrip(self) -> None:
        psi = FHiggs(M(F3, [["z"]], 4))
        obj = fhiggs_to_json(psi)
        assert obj["twist_weight"] == 3
        assert matrix_from_json(obj) == psi.matrix

    def test_oneform_chart_dispatch(self) -> None:
        w = S(F3, "1 + z", 5)
        back = oneform_from_json(oneform_to_json(w))
        assert back.var == "z" and back == w
        tw = S(F3, "z", 4, var="z'")
        back2 = oneform_from_json(oneform_to_json(tw))
        assert back2.var == "z'" and back2 == tw

    def test_invariants_roundtrip(self) -> None:
        b = InvariantTuple((S(F5, "z", 6), S(F5, "2 + z^3", 6)))
        obj = invariants_to_json(b)
        assert obj["rank"] == 2
        assert invariants_from_json(obj) == b

    def test_spectral_roundtrip(self) -> None:
        ring = SpectralRing(InvariantTuple((S(F2, "1", 9), S(F2, "z^2", 9))))
        elt = ring.element([S(F2, "z", 9), S(F2, "1 + z^3", 9)])
        back = spectral_from_json(spectral_to_json(elt))
        assert back == elt

    def test_spectral_precision_not_inflated(self) -> None:
        ring = SpectralRing(InvariantTuple((S(F2, "1", 9), S(F2, "z^2", 9))))
        elt = ring.element([S(F2, "z", 4), S(F2, "1", 4)])
        back = spectral_from_json(spectral_to_json(elt))
        assert back.precision == 4


# ==========================================================================
# harmonic data and packages
# ==========================================================================


class TestHarmonicWire:
    def test_forward_datum_omits_sign(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        obj = harmonic_to_json(pkg.harmonic)
        assert "curvature_sign" not in obj
        back = harmonic_from_json(obj)
        assert back == pkg.harmonic

    def test_inverse_datum_carries_sign(self) -> None:
        pkg = solve_harmonic(Connection(M(F3, [["1 + z"]], 10)))
        inv_h = inverse(pkg.harmonic)
        obj = harmonic_to_json(inv_h)
        assert obj["curvature_sign"] == -1
        assert harmonic_from_json(obj) == inv_h

    def test_frame_tag_validated(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        obj = harmonic_to_json(pkg.harmonic)
        # the cyclic tag was once accepted, though nothing ever produced it
        for tag in "diagonal cyclic".split():
            obj["frame"] = tag
            with pytest.raises(SchemaError):
                harmonic_from_json(obj)

    def test_frame_tag_must_fit_rank(self) -> None:
        rank1 = harmonic_to_json(solve_harmonic(Connection(M(F2, [["1"]], 8))).harmonic)
        rank2 = harmonic_to_json(
            solve_harmonic(Connection(M(F3, [["0", "0"], ["0", "1"]], 13))).harmonic
        )
        for obj, tag in ((rank1, "eigen"), (rank2, "rank1")):
            obj["frame"] = tag
            with pytest.raises(SchemaError) as exc:
                harmonic_from_json(obj)
            assert exc.value.path == "$.frame"

    def test_package_roundtrip_rank1(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["1"]], 8)))
        obj = package_to_json(pkg)
        assert connection_from_json(obj["connection"]) == pkg.connection
        assert matrix_from_json(obj["higgs"]) == pkg.higgs
        assert matrix_from_json(obj["gauge"]) == pkg.gauge
        assert harmonic_from_json(obj["harmonic"]) == pkg.harmonic

    def test_package_roundtrip_eigen(self) -> None:
        pkg = solve_harmonic(Connection(M(F2, [["0", "0"], ["0", "1"]], 8)))
        obj = package_to_json(pkg)
        assert connection_from_json(obj["connection"]) == pkg.connection
        assert matrix_from_json(obj["higgs"]) == pkg.higgs
        assert matrix_from_json(obj["gauge"]) == pkg.gauge
        back = harmonic_from_json(obj["harmonic"])
        assert back.b_prime == pkg.harmonic.b_prime
        assert back.theta.agrees_with(pkg.harmonic.theta)


# ==========================================================================
# refusals: each malformed document gets its message and path
# ==========================================================================

F9_HEADER = {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1]}
SERIES_HEADER = {"p": 3, "var": "z", "precision": 3}


INVERSE_DATUM = harmonic_to_json(
    inverse(solve_harmonic(Connection(M(F3, [["1 + z"]], 10))).harmonic)
)


REFUSALS = {
    "unterminated-vector": (
        scalar_from_json,
        dict(F9_HEADER, element="[1,2"),
        "unterminated coefficient vector '[1,2'",
        "$.element",
    ),
    "bad-digit": (
        scalar_from_json,
        dict(F9_HEADER, element="[1,x]"),
        "bad digit 'x' in coefficient vector",
        "$.element",
    ),
    "bad-coefficient": (
        scalar_from_json,
        {"p": 5, "element": "abc"},
        "bad coefficient 'abc'",
        "$.element",
    ),
    "element-vector-too-long": (
        scalar_from_json,
        dict(F9_HEADER, element=[1, 2, 0]),
        "element vector longer than extension degree",
        "$.element",
    ),
    "series-not-a-string": (
        series_from_json,
        dict(SERIES_HEADER, series=5),
        "series must be a string",
        "$.series",
    ),
    "document-not-an-object": (harmonic_from_json, [], "expected a JSON object", "$"),
    "header-not-an-object": (series_from_json, "1 + z", "expected a JSON object", "$"),
    "bad-var": (
        series_from_json,
        dict(SERIES_HEADER, var="w", series="1"),
        "var must be 'z' or \"z'\", got 'w'",
        "$.var",
    ),
    "ext-degree-string": (
        series_from_json,
        dict(SERIES_HEADER, series="1", **dict(F9_HEADER, ext_degree="2")),
        "key 'ext_degree' must be an integer",
        "$.ext_degree",
    ),
    "ext-degree-float": (
        series_from_json,
        dict(SERIES_HEADER, series="1", **dict(F9_HEADER, ext_degree=2.0)),
        "key 'ext_degree' must be an integer",
        "$.ext_degree",
    ),
    "ext-degree-bool": (
        series_from_json,
        dict(SERIES_HEADER, series="1", ext_degree=True),
        "key 'ext_degree' must be an integer",
        "$.ext_degree",
    ),
    "ext-degree-null": (
        series_from_json,
        dict(SERIES_HEADER, series="1", ext_degree=None),
        "key 'ext_degree' must be an integer",
        "$.ext_degree",
    ),
    "negative-precision": (
        series_from_json,
        dict(SERIES_HEADER, precision=-1, series="1"),
        "precision must be nonnegative",
        "$.precision",
    ),
    "ranked-list-short": (
        invariants_from_json,
        dict(SERIES_HEADER, rank=2, entries=["1"]),
        "entries must be a list of 2 series",
        "$.entries",
    ),
    "empty-coeffs-in-lambda": (
        spectral_from_json,
        {"b": dict(SERIES_HEADER, rank=1, entries=["1"]), "coeffs_in_lambda": []},
        "coeffs_in_lambda must be a nonempty list",
        "$.coeffs_in_lambda",
    ),
    "curvature-sign-two": (
        harmonic_from_json,
        dict(INVERSE_DATUM, curvature_sign=2),
        "curvature_sign must be 1 or -1",
        "$.curvature_sign",
    ),
    # -1.0 == -1 and True == 1 in Python, but neither is the integer the document means
    "curvature-sign-minus-one-float": (
        harmonic_from_json,
        dict(INVERSE_DATUM, curvature_sign=-1.0),
        "curvature_sign must be 1 or -1",
        "$.curvature_sign",
    ),
    "curvature-sign-one-float": (
        harmonic_from_json,
        dict(INVERSE_DATUM, curvature_sign=1.0),
        "curvature_sign must be 1 or -1",
        "$.curvature_sign",
    ),
    "curvature-sign-true": (
        harmonic_from_json,
        dict(INVERSE_DATUM, curvature_sign=True),
        "curvature_sign must be 1 or -1",
        "$.curvature_sign",
    ),
}


@pytest.mark.parametrize("reader, doc, message, path", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(reader, doc, message: str, path: str) -> None:
    with pytest.raises(SchemaError) as exc:
        reader(doc)
    assert str(exc.value) == message
    assert exc.value.details["path"] == path


def test_encoded_integer_element_over_extension() -> None:
    # an integer element over F_9 is a code in range(9), taken as it is
    assert scalar_from_json(dict(F9_HEADER, element=5)) == (F9, 5)
    assert scalar_from_json(dict(F9_HEADER, element=5)) == scalar_from_json(
        dict(F9_HEADER, element=F9.decode(5))
    )


# ==========================================================================
# canonical output
# ==========================================================================


class TestCanonical:
    def test_compact_bytes(self) -> None:
        doc = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": "z'"}}
        assert dumps_canonical(doc, compact=True) == '{"a":[1,2],"b":1,"c":{"x":"z\'","y":0}}'

    def test_indented_bytes(self) -> None:
        doc = {"b": 1, "a": 2}
        assert dumps_canonical(doc) == '{\n  "a": 2,\n  "b": 1\n}'

    def test_series_document_bytes(self) -> None:
        obj = series_to_json(S(F2, "1 + z^2", 4))
        assert dumps_canonical(obj, compact=True) == (
            '{"ext_degree":1,"modulus":null,"p":2,"precision":4,'
            '"series":"1 + z^2","var":"z"}'
        )
