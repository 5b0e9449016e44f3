"""End-to-end command line runs, in process."""

from __future__ import annotations

import json
import time

import pytest

from pdisk import verify
from pdisk.cli import main

from conftest import M, S


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


RANK_ABOVE_P = (
    "rank {} is above p = {}; the harmonic and roundtrip suites need that many "
    "distinct residue roots in F_p"
)

CONN_ANCHOR = {
    "p": 2,
    "var": "z",
    "precision": 4,
    "rank": 2,
    "matrix": [["0", "1"], ["z", "0"]],
}


class TestPcurv:
    def test_anchor_output(self, capsys, tmp_path) -> None:
        path = write_doc(tmp_path, "conn.json", CONN_ANCHOR)
        code, out, err = run(capsys, ["pcurv", "-i", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == [["z", "0"], ["1", "z"]]
        assert doc["twist_weight"] == 2
        assert doc["precision"] == 3
        assert doc["var"] == "z"

    def test_byte_determinism(self, capsys, tmp_path) -> None:
        path = write_doc(tmp_path, "conn.json", CONN_ANCHOR)
        _, out1, _ = run(capsys, ["pcurv", "-i", path, "--json"])
        _, out2, _ = run(capsys, ["pcurv", "-i", path, "--json"])
        assert out1 == out2

    def test_compact_and_indented_agree(self, capsys, tmp_path) -> None:
        path = write_doc(tmp_path, "conn.json", CONN_ANCHOR)
        _, indented, _ = run(capsys, ["pcurv", "-i", path])
        _, compact, _ = run(capsys, ["pcurv", "-i", path, "--json"])
        assert indented != compact
        assert json.loads(indented) == json.loads(compact)

    def test_output_file(self, capsys, tmp_path) -> None:
        path = write_doc(tmp_path, "conn.json", CONN_ANCHOR)
        dest = tmp_path / "psi.json"
        code, out, _ = run(capsys, ["pcurv", "-i", path, "-o", str(dest)])
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["matrix"] == [["z", "0"], ["1", "z"]]

    def test_stdin_input(self, capsys, monkeypatch) -> None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CONN_ANCHOR)))
        code, out, _ = run(capsys, ["pcurv", "-i", "-"])
        assert code == 0
        assert json.loads(out)["matrix"] == [["z", "0"], ["1", "z"]]

    def test_fallback_p(self, capsys, tmp_path) -> None:
        doc = {k: v for k, v in CONN_ANCHOR.items() if k != "p"}
        path = write_doc(tmp_path, "conn.json", doc)
        code, out, _ = run(capsys, ["pcurv", "-i", path, "--p", "2"])
        assert code == 0
        assert json.loads(out)["p"] == 2


class TestExitCodes:
    def test_schema_error_is_two(self, capsys, tmp_path) -> None:
        path = write_doc(tmp_path, "bad.json", {"p": 2, "var": "z"})
        code, out, err = run(capsys, ["pcurv", "-i", path])
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "SchemaError"
        assert "precision" in payload["message"]

    def test_prime_beyond_bound_is_schema_error(self, capsys, tmp_path) -> None:
        doc = dict(CONN_ANCHOR, p=2**89 - 1)
        path = write_doc(tmp_path, "big.json", doc)
        code, out, err = run(capsys, ["pcurv", "-i", path])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "SchemaError"

    def test_extension_element_out_of_range_is_schema_error(self, capsys, tmp_path) -> None:
        scalar = write_doc(
            tmp_path, "zeta.json", {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1], "element": 100}
        )
        form = write_doc(
            tmp_path,
            "form.json",
            {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1], "var": "z", "precision": 4, "coefficient": "1"},
        )
        code, out, err = run(capsys, ["hp", "-i", scalar, "-i", form])
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "SchemaError"
        assert payload["details"]["path"] == "$.element"

    def test_verify_nonprime_is_schema_error(self, capsys) -> None:
        code, out, err = run(capsys, ["verify", "--p", "2,4", "--trials", "1"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "SchemaError"
        assert payload["details"]["path"] == "--p"

    @pytest.mark.parametrize(
        "flags, path, message",
        [
            (["--trials", "0"], "--trials", "trials must be at least 1, got 0"),
            (["--trials", "-1"], "--trials", "trials must be at least 1, got -1"),
            (["--rank", "0"], "--rank", "rank 0 is outside 1..8"),
            (["--rank", "1,9"], "--rank", "rank 9 is outside 1..8"),
            (
                ["--precision", "2"],
                "--precision",
                "precision 2 is below 13, the floor of the requested suites and primes",
            ),
            (
                ["--suite", "roundtrip", "--p", "3", "--precision", "8"],
                "--precision",
                "precision 8 is below 9, the floor of the requested suites and primes",
            ),
            (["--p", "2", "--rank", "3"], "--rank", RANK_ABOVE_P.format(3, 2)),
            (
                ["--suite", "roundtrip", "--p", "3", "--rank", "4"],
                "--rank",
                RANK_ABOVE_P.format(4, 3),
            ),
            (
                ["--precision", str(10**12)],
                "--precision",
                "working precision 1000000000000 is above 4096",
            ),
            # the prime bound answers first: 3p + 4 stays below 4096 for every admitted prime
            (["--p", "1000003"], "--p", "prime 1000003 is above 53, the suites' bound"),
            (
                ["--p", "1361", "--suite", "pcurv", "--rank", "1"],
                "--p",
                "prime 1361 is above 53, the suites' bound",
            ),
            (["--p", ","], "--p", "empty value for --p"),
            (["--rank", ","], "--rank", "empty value for --rank"),
        ],
        ids=[
            "trials-0",
            "trials-neg",
            "rank-0",
            "rank-9",
            "precision-2",
            "roundtrip-below-floor",
            "rank-above-p",
            "roundtrip-rank-above-p",
            "precision-above-bound",
            "large-prime-above-bound",
            "prime-above-bound",
            "empty-p-list",
            "empty-rank-list",
        ],
    )
    def test_verify_flag_that_cannot_check_is_schema_error(
        self, capsys, flags, path, message
    ) -> None:
        code, out, err = run(capsys, ["verify", "--trials", "1", *flags])
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "SchemaError"
        assert payload["details"]["path"] == path
        assert payload["message"] == message

    def test_precision_above_bound_is_schema_error(self, capsys, tmp_path) -> None:
        """A 56-byte document stating precision 10^12 is refused, not allocated."""
        path = write_doc(
            tmp_path, "huge.json", {"p": 2, "var": "z", "precision": 10**12, "series": "1"}
        )
        code, out, err = run(capsys, ["descend", "-i", path])
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "SchemaError"
        assert payload["details"]["path"] == "$.precision"

    def test_precision_zero_matrix_has_invariants(self, capsys, tmp_path) -> None:
        doc = {"p": 2, "var": "z", "precision": 0, "rank": 1, "matrix": [["0"]]}
        path = write_doc(tmp_path, "m.json", doc)
        code, out, err = run(capsys, ["invariants", "-i", path, "--json"])
        assert (code, err) == (0, "")
        body = json.loads(out)
        assert body["precision"] == 0 and body["entries"] == ["0"]

    @pytest.mark.parametrize("command", ["cmap", "cinv"])
    def test_precision_zero_datum_is_insufficient(self, capsys, tmp_path, command: str) -> None:
        base = {"p": 2, "precision": 0, "rank": 1, "entries": ["0"]}
        datum = {
            "b_prime": dict(base, var="z'"),
            "frame": "rank1",
            "theta": {"b": dict(base, var="z"), "coeffs_in_lambda": ["0"]},
        }
        var = "z'" if command == "cmap" else "z"
        other = {"p": 2, "var": var, "precision": 0, "rank": 1, "matrix": [["0"]]}
        paths = [write_doc(tmp_path, "datum.json", datum), write_doc(tmp_path, "other.json", other)]
        code, out, err = run(capsys, [command, "-i", paths[0], "-i", paths[1]])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "InsufficientPrecision"

    def test_unreadable_file_is_two(self, capsys, tmp_path) -> None:
        code, _, err = run(capsys, ["pcurv", "-i", str(tmp_path / "absent.json")])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "SchemaError"

    def test_invalid_json_reports_line(self, capsys, tmp_path) -> None:
        path = tmp_path / "broken.json"
        path.write_text('{"p": 2,\n  "var"\n}')
        code, _, err = run(capsys, ["pcurv", "-i", str(path)])
        assert code == 2
        where = json.loads(err)["error"]["details"]["path"]
        name, _, line = where.rpartition(":")
        assert name.endswith("broken.json") and line.isdigit()

    def test_computation_error_is_one(self, capsys, tmp_path) -> None:
        doc = {"p": 3, "var": "z", "precision": 5, "series": "z"}
        path = write_doc(tmp_path, "series.json", doc)
        code, out, err = run(capsys, ["dlog", "-i", str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["code"] == "NonUnitConstantTerm"

    def test_missing_inputs_is_two(self, capsys) -> None:
        code, _, err = run(capsys, ["pcurv"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "SchemaError"

    def test_unknown_command_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSmallPrimeWarning:
    def test_invariants_warns_when_p_at_most_rank(self, capsys, tmp_path) -> None:
        doc = {
            "p": 2,
            "var": "z",
            "precision": 3,
            "rank": 2,
            "matrix": [["1", "0"], ["0", "z"]],
        }
        path = write_doc(tmp_path, "m.json", doc)
        code, out, err = run(capsys, ["invariants", "-i", path])
        assert code == 0
        assert "warning" in err and "p = 2" in err
        assert json.loads(out)["entries"] == ["1 + z", "z"]

    def test_no_warning_for_large_p(self, capsys, tmp_path) -> None:
        doc = {
            "p": 5,
            "var": "z",
            "precision": 3,
            "rank": 2,
            "matrix": [["1", "0"], ["0", "z"]],
        }
        path = write_doc(tmp_path, "m.json", doc)
        code, _, err = run(capsys, ["invariants", "-i", path])
        assert code == 0
        assert err == ""

    def test_phitchin_warns_and_computes(self, capsys, tmp_path) -> None:
        doc = {
            "p": 2,
            "var": "z",
            "precision": 6,
            "rank": 2,
            "matrix": [["0", "1"], ["z", "0"]],
        }
        path = write_doc(tmp_path, "conn.json", doc)
        code, out, err = run(capsys, ["phitchin", "-i", path])
        assert code == 0
        assert "warning" in err
        body = json.loads(out)
        assert body["var"] == "z'"
        assert body["entries"] == ["0", "z"]


class TestFormCommands:
    def test_cartier(self, capsys, tmp_path) -> None:
        doc = {"p": 3, "var": "z", "precision": 6, "coefficient": "1 + z^2 + z^5"}
        path = write_doc(tmp_path, "w.json", doc)
        code, out, _ = run(capsys, ["cartier", "-i", path])
        assert code == 0
        body = json.loads(out)
        assert body["coefficient"] == "1 + z"
        assert body["var"] == "z'"
        assert body["precision"] == 2

    def test_cartier_rejects_twist_input(self, capsys, tmp_path) -> None:
        doc = {"p": 3, "var": "z'", "precision": 6, "coefficient": "1"}
        path = write_doc(tmp_path, "w.json", doc)
        code, _, err = run(capsys, ["cartier", "-i", path])
        assert code == 2
        assert json.loads(err)["error"]["details"]["path"] == "$.var"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            (
                "hp",
                {"p": 3, "var": "z'", "precision": 3, "coefficient": "1"},
                'this map expects a form in the disk variable "z"',
            ),
            (
                "solve-hp",
                {"p": 3, "var": "z", "precision": 3, "coefficient": "1"},
                'the section solves for a target in the descended variable "z\'"',
            ),
            (
                "descend",
                {"p": 3, "var": "z'", "precision": 3, "series": "1"},
                'descent expects a series in the disk variable "z"',
            ),
        ],
        ids=["hp", "solve-hp", "descend"],
    )
    def test_wrong_chart_is_schema_error(self, capsys, tmp_path, command, doc, message) -> None:
        path = write_doc(tmp_path, "w.json", doc)
        code, out, err = run(capsys, [command, "-i", path])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "SchemaError"
        assert error["message"] == message
        assert error["details"]["path"] == "$.var"

    def test_hp_default_scalar_matches_explicit(self, capsys, tmp_path) -> None:
        w = write_doc(
            tmp_path, "w.json", {"p": 2, "var": "z", "precision": 5, "coefficient": "z"}
        )
        one = write_doc(tmp_path, "one.json", {"p": 2, "element": 1})
        _, out_default, _ = run(capsys, ["hp", "-i", w])
        _, out_explicit, _ = run(capsys, ["hp", "-i", one, "-i", w])
        assert out_default == out_explicit
        assert json.loads(out_default)["coefficient"] == "1 + z"

    def test_hp_field_mismatch(self, capsys, tmp_path) -> None:
        w = write_doc(
            tmp_path, "w.json", {"p": 2, "var": "z", "precision": 5, "coefficient": "z"}
        )
        zeta = write_doc(tmp_path, "zeta.json", {"p": 3, "element": 1})
        code, _, err = run(capsys, ["hp", "-i", zeta, "-i", w])
        assert code == 2

    def test_solve_hp_then_hp_is_identity(self, capsys, tmp_path) -> None:
        target = {"p": 2, "var": "z'", "precision": 8, "coefficient": "1"}
        path = write_doc(tmp_path, "target.json", target)
        code, out, _ = run(capsys, ["solve-hp", "-i", path])
        assert code == 0
        body = json.loads(out)
        assert body["coefficient"] == "z + z^3 + z^7 + z^15"
        back_in = write_doc(tmp_path, "back.json", body)
        code2, out2, _ = run(capsys, ["hp", "-i", back_in])
        assert code2 == 0
        assert json.loads(out2)["coefficient"] == "1"

    def test_dlog(self, capsys, tmp_path) -> None:
        doc = {"p": 2, "var": "z", "precision": 6, "series": "1 + z"}
        path = write_doc(tmp_path, "u.json", doc)
        code, out, _ = run(capsys, ["dlog", "-i", path])
        assert code == 0
        body = json.loads(out)
        assert body["coefficient"] == "1 + z + z^2 + z^3 + z^4"
        assert body["precision"] == 5

    def test_descend(self, capsys, tmp_path) -> None:
        doc = {"p": 2, "var": "z", "precision": 4, "series": "z^2"}
        path = write_doc(tmp_path, "s.json", doc)
        code, out, _ = run(capsys, ["descend", "-i", path])
        assert code == 0
        body = json.loads(out)
        assert body == {
            "ext_degree": 1,
            "modulus": None,
            "p": 2,
            "precision": 2,
            "series": "z",
            "var": "z'",
        }

    def test_descend_obstruction_is_one(self, capsys, tmp_path) -> None:
        doc = {"p": 2, "var": "z", "precision": 4, "series": "z^3"}
        path = write_doc(tmp_path, "s.json", doc)
        code, _, err = run(capsys, ["descend", "-i", path])
        assert code == 1
        assert json.loads(err)["error"]["code"] == "NotAPthPower"

    def test_descend_over_large_extension_in_bounded_time(self, capsys, tmp_path) -> None:
        # F_{101^8} under x^8 + 2: the modulus check must not enumerate the
        # ~10^8 candidate factors of degree <= 4
        doc = {
            "p": 101,
            "ext_degree": 8,
            "modulus": [2, 0, 0, 0, 0, 0, 0, 0, 1],
            "var": "z",
            "precision": 3,
            "series": "1 + z",
        }
        path = write_doc(tmp_path, "s.json", doc)
        start = time.perf_counter()
        code, _, err = run(capsys, ["descend", "-i", path])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert json.loads(err)["error"]["code"] == "NotAPthPower"


class TestCorrespondenceFlow:
    def solve(self, capsys, tmp_path, matrix, p=2, precision=8):
        doc = {
            "p": p,
            "var": "z",
            "precision": precision,
            "rank": len(matrix),
            "matrix": matrix,
        }
        path = write_doc(tmp_path, "conn.json", doc)
        code, out, _ = run(capsys, ["solve-harmonic", "-i", path])
        assert code == 0
        return json.loads(out)

    def test_package_shape(self, capsys, tmp_path) -> None:
        pkg = self.solve(capsys, tmp_path, [["1"]])
        assert set(pkg) == {"connection", "harmonic", "higgs", "gauge"}
        assert pkg["higgs"]["matrix"] == [["1"]]
        assert pkg["harmonic"]["frame"] == "rank1"
        assert pkg["harmonic"]["b_prime"]["entries"] == ["1"]

    def test_cmap_rebuilds_connection(self, capsys, tmp_path) -> None:
        pkg = self.solve(capsys, tmp_path, [["0", "0"], ["0", "1"]])
        datum = write_doc(tmp_path, "datum.json", pkg["harmonic"])
        higgs = write_doc(tmp_path, "higgs.json", pkg["higgs"])
        code, out, _ = run(capsys, ["cmap", "-i", datum, "-i", higgs])
        assert code == 0
        body = json.loads(out)
        assert body["matrix"][0][0] == "0"
        assert body["matrix"][1][1] == "1"
        # argument order is sniffed from the document shapes
        code2, out2, _ = run(capsys, ["cmap", "-i", higgs, "-i", datum])
        assert out2 == out

    def test_frame_tag_that_disagrees_with_rank_is_schema_error(self, capsys, tmp_path) -> None:
        pkg = self.solve(capsys, tmp_path, [["0", "0"], ["0", "1"]], p=3, precision=13)
        datum_doc = dict(pkg["harmonic"], frame="rank1")
        datum = write_doc(tmp_path, "datum.json", datum_doc)
        higgs = write_doc(tmp_path, "higgs.json", pkg["higgs"])
        code, out, err = run(capsys, ["cmap", "-i", datum, "-i", higgs])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "SchemaError"
        assert error["details"]["path"] == "$.frame"

    def test_cinv_roundtrip_at_p2(self, capsys, tmp_path) -> None:
        # at p = 2 the element is its own negative, so flipping the sign
        # tag alone builds the inverse datum
        pkg = self.solve(capsys, tmp_path, [["1"]])
        datum_doc = dict(pkg["harmonic"])
        datum_doc["curvature_sign"] = -1
        datum = write_doc(tmp_path, "inv.json", datum_doc)
        conn = write_doc(tmp_path, "conn2.json", pkg["connection"])
        code, out, _ = run(capsys, ["cinv", "-i", datum, "-i", conn])
        assert code == 0
        body = json.loads(out)
        assert body["higgs"]["matrix"] == [["1"]]

    @pytest.mark.parametrize("command", ["cmap", "cinv"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0, True], ids=["minus-1.0", "1.0", "true"])
    def test_non_integer_curvature_sign_is_schema_error(
        self, capsys, tmp_path, command, sign
    ) -> None:
        # at p = 2 the datum is its own inverse, so only the sign's type decides
        pkg = self.solve(capsys, tmp_path, [["1"]])
        datum = write_doc(tmp_path, "datum.json", dict(pkg["harmonic"], curvature_sign=sign))
        other = pkg["higgs"] if command == "cmap" else pkg["connection"]
        other_path = write_doc(tmp_path, "other.json", other)
        code, out, err = run(capsys, [command, "-i", datum, "-i", other_path])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "SchemaError"
        assert error["message"] == "curvature_sign must be 1 or -1"
        assert error["details"]["path"] == "$.curvature_sign"

    def test_second_document_without_matrix(self, capsys, tmp_path) -> None:
        pkg = self.solve(capsys, tmp_path, [["1"]])
        datum = write_doc(tmp_path, "datum.json", pkg["harmonic"])
        other = write_doc(tmp_path, "b.json", pkg["harmonic"]["b_prime"])
        code, out, err = run(capsys, ["cmap", "-i", datum, "-i", other])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "SchemaError"
        assert error["message"] == 'expected the second document to carry "matrix"'
        assert error["details"]["path"] == "$"

    def test_cmap_missing_theta_document(self, capsys, tmp_path) -> None:
        pkg = self.solve(capsys, tmp_path, [["1"]])
        higgs = write_doc(tmp_path, "h1.json", pkg["higgs"])
        higgs2 = write_doc(tmp_path, "h2.json", pkg["higgs"])
        code, _, err = run(capsys, ["cmap", "-i", higgs, "-i", higgs2])
        assert code == 2
        assert "theta" in json.loads(err)["error"]["message"]


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys) -> None:
        code, out, _ = run(
            capsys,
            [
                "verify",
                "--suite",
                "pcurv",
                "--p",
                "2,3",
                "--rank",
                "1,2",
                "--trials",
                "3",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "pcurv"
        assert report["fail"] == 0
        assert report["pass"] == report["total"]
        assert report["parameters"]["seed"] == 7

    def test_byte_determinism(self, capsys) -> None:
        argv = ["verify", "--suite", "cartier", "--trials", "2", "--seed", "3", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_each_suite_passes_at_its_floor(self, capsys, suite: str) -> None:
        for p in (2, 3, 5):
            floor = verify.PRECISION_FLOORS[suite](p)
            argv = ["verify", "--suite", suite, "--p", str(p), "--trials", "2", "--seed", "1"]
            code, out, _ = run(capsys, argv + ["--precision", str(floor), "--json"])
            assert code == 0
            assert json.loads(out)["fail"] == 0
            code, _, _ = run(capsys, argv + ["--precision", str(floor - 1)])
            assert code == 2

    @pytest.mark.parametrize(
        "suite, p", [("pcurv", "2"), ("harmonic", "3")], ids=["pcurv-rank-above-p", "harmonic-rank-p"]
    )
    def test_rank_refusal_spares_checkable_cells(self, capsys, suite: str, p: str) -> None:
        argv = ["verify", "--suite", suite, "--p", p, "--rank", "3", "--trials", "1", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["fail"] == 0

    def test_bad_prime_list(self, capsys) -> None:
        code, _, err = run(capsys, ["verify", "--p", "2;3", "--trials", "1"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "SchemaError"
