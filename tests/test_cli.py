"""Command line interface: JSON round trips, exit codes, CSV export."""

import io
import json
import math

import numpy as np
import pytest

from minktrig import cli, trig
from minktrig.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

from conftest import SQRT2


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def triangle_payload(*vertices):
    return json.dumps({"schema": "minktrig/1", "vertices": [list(v) for v in vertices]})


CHRONO = triangle_payload(
    (0, 1, 0), (0, 0, 1),
    (30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82),
)
HYP = triangle_payload((SQRT2, 1, 0), (SQRT2, 0, 1), (SQRT2, -1, 0))


class TestClassify:
    def test_chronosceles_fixture(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=CHRONO)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == "minktrig/1"
        assert data["proper_kind"] == "chronosceles"
        assert data["triangle_inequality"]["holds"] is False

    def test_strange_triangle(self, capsys, monkeypatch):
        payload = triangle_payload((1, 0, 0), (0, 1, 0), (0, 0, 1))
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=payload)
        assert code == EXIT_OK
        assert json.loads(out)["family"] == "strange"

    def test_infinite_lengths_serialized_as_string(self, capsys, monkeypatch):
        payload = triangle_payload((1, 0, 0), (0, 1, 0), (0, 0, 1))
        _, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=payload)
        lengths = [s["length"] for s in json.loads(out)["sides"]]
        assert "inf" in lengths

    def test_malformed_json_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["classify"], stdin="not json")
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_off_surface_vertex_exit_2(self, capsys, monkeypatch):
        payload = triangle_payload((0.5, 0, 0), (0, 1, 0), (0, 0, 1))
        code, _, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=payload)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command", ["classify", "polar"])
    @pytest.mark.parametrize("coordinate", ["NaN", "Infinity", "-Infinity", "true"])
    def test_non_finite_or_bool_coordinate_exit_2(self, capsys, monkeypatch,
                                                  command, coordinate):
        # json reads NaN and Infinity as floats, and true would make e1
        payload = ('{"schema": "minktrig/1", "vertices": '
                   f'[[{coordinate}, 0, 0], [0, 1, 0], [0, 0, 1]]}}')
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=payload)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error")

    def test_unknown_field_rejected_in_strict(self, capsys, monkeypatch):
        data = json.loads(CHRONO)
        data["extra"] = 1
        code, _, _ = run_cli(capsys, monkeypatch, ["classify", "--strict"],
                             stdin=json.dumps(data))
        assert code == EXIT_INPUT
        code, _, _ = run_cli(capsys, monkeypatch, ["classify"],
                             stdin=json.dumps(data))
        assert code == EXIT_OK

    def test_wrong_schema_rejected(self, capsys, monkeypatch):
        data = json.loads(CHRONO)
        data["schema"] = "minktrig/999"
        code, _, _ = run_cli(capsys, monkeypatch, ["classify"],
                             stdin=json.dumps(data))
        assert code == EXIT_INPUT


class TestPolar:
    def test_hyperbolic_fixture(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["polar"], stdin=HYP)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["epsilon"] == 1
        assert len(data["vertices"]) == 3

    def test_opposite_vertices_exit_3(self, capsys, monkeypatch):
        payload = triangle_payload((0, 1, 0), (0, -1, 0), (0, 0, 1))
        code, out, _ = run_cli(capsys, monkeypatch, ["polar"], stdin=payload)
        assert code == EXIT_DOMAIN
        assert json.loads(out)["nonexistent"] == "OppositeVertices"

    def test_degenerate_zero_triangle(self, capsys, monkeypatch):
        payload = triangle_payload((0, 1, 0), (0, 0, 1),
                                   (0, SQRT2 / 2, SQRT2 / 2))
        code, out, _ = run_cli(capsys, monkeypatch, ["polar"], stdin=payload)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["zero_triangle"] is True
        assert data["epsilon"] == 0


class TestVerify:
    def test_sampled_batch_summary(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "hyperbolic", "--count", "20", "--seed", "1"],
        )
        assert code == EXIT_OK
        summary = json.loads(out)["summary"]
        assert summary["count"] == 20
        assert summary["failures"] == 0
        assert summary["max_residual"] < 1e-9

    def test_fixture_report_contains_side_sum(self, capsys, monkeypatch):
        payload = triangle_payload((0, 1, 0), (0, 0, 1), (1 / 7, 5 / 7, 5 / 7))
        code, out, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=payload)
        assert code == EXIT_OK
        report = json.loads(out)["reports"][0]
        assert report["family"] == "spatiolateral_contractible"
        assert report["side_sum"] < 2 * math.pi

    def test_strict_tolerance_failure_exit_4(self, capsys, monkeypatch):
        code, _, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "hyperbolic", "--count", "5", "--seed", "1",
             "--strict", "--tolerance", "1e-300"],
        )
        assert code == EXIT_VERIFY

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_nan_or_negative_tolerance_exit_2(self, capsys, monkeypatch, tolerance):
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "hyperbolic", "--count", "2",
             "--tolerance", tolerance],
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: --tolerance")

    def test_zero_count_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "hyperbolic", "--count", "0"],
        )
        assert code == EXIT_INPUT
        assert err.startswith("input error: --count")

    def test_unsupported_family_exit_3(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["verify"], stdin=CHRONO)
        assert code == EXIT_DOMAIN
        assert err.startswith("UnsupportedFamily")

    @pytest.mark.parametrize("family", ["chorosceles", "lucilateral", "strange"])
    def test_unsupported_sampled_family_exit_3(self, capsys, monkeypatch, family):
        # refused before any triangle is sampled
        monkeypatch.setattr(cli, "sample_triangle", None)
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", family, "--count", "1000", "--seed", "4"],
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("UnsupportedFamily")

    def test_mixed_batch_fails_at_its_first_row_without_laws(self, capsys,
                                                             monkeypatch):
        # the first five rows of a mixed batch are one of each law family
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "--sample", "mixed", "--count", "5"])
        assert code == EXIT_OK
        assert len(json.loads(out)["reports"]) == 5
        code, out, err = run_cli(
            capsys, monkeypatch, ["verify", "--sample", "mixed", "--count", "6"])
        assert code == EXIT_DOMAIN
        assert err.startswith("UnsupportedFamily")

    def test_degenerate_triangle_exit_3(self, capsys, monkeypatch):
        payload = triangle_payload((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2))
        code, out, err = run_cli(capsys, monkeypatch, ["verify"], stdin=payload)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("DegenerateTriangle")

    @pytest.mark.parametrize("argv", [
        ["verify", "--sample", "tempolateral", "--count", "3", "--seed", "5"],
        ["verify"],
    ])
    def test_no_unique_apex_exit_3(self, capsys, monkeypatch, argv):
        # no triangle the samplers accept lacks an apex, so the kernel's
        # sign test is made to find none
        monkeypatch.setattr(trig, "_vertex_hits",
                            lambda family, p: np.zeros(p.shape, dtype=bool))
        tempo = triangle_payload(
            (0.06342978900812468, 0.8890758331676081, 0.4621336397741879),
            (1.004023020338628, 1.139722326699522, 0.8420779318997318),
            (-0.1978536994988652, 0.8399624866107704, 0.5775890472403702))
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin=tempo)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("DegenerateTriangle: expected one apex vertex, found 0")

    def test_sampled_reports_keep_their_keys(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "spatiolateral_contractible", "--count", "3"],
        )
        assert code == EXIT_OK
        for report in json.loads(out)["reports"]:
            assert list(report) == [
                "family", "lcs_residuals", "lca_residuals", "sines_ratios",
                "angle_sum", "side_sum", "max_residual", "within_tolerance"]
            assert report["family"] == "spatiolateral_contractible"
            assert report["angle_sum"] is None
            assert report["side_sum"] < 2 * math.pi


class TestExportGeodesic:
    def test_quarter_circle_rows(self, capsys, monkeypatch):
        payload = json.dumps({"schema": "minktrig/1",
                              "a": [0, 1, 0], "b": [0, 0, 1]})
        code, out, _ = run_cli(
            capsys, monkeypatch, ["export-geodesic", "--samples", "3"],
            stdin=payload,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,t"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[3].split(",")]
        assert first[:3] == pytest.approx([0.0, 1.0, 0.0])
        assert last[:3] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert last[3] == pytest.approx(math.pi / 2)

    def test_negative_samples_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"schema": "minktrig/1",
                              "a": [0, 1, 0], "b": [0, 0, 1]})
        code, out, err = run_cli(
            capsys, monkeypatch, ["export-geodesic", "--samples", "-3"],
            stdin=payload,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: --samples")

    @pytest.mark.filterwarnings("error")
    def test_empty_segment_exit_3(self, capsys, monkeypatch):
        payload = json.dumps({"schema": "minktrig/1",
                              "a": [0, 1, 0], "b": [0, -1, 0]})
        code, _, err = run_cli(capsys, monkeypatch, ["export-geodesic"],
                               stdin=payload)
        assert code == EXIT_DOMAIN
        assert "EmptySegment" in err


class TestSample:
    def test_batch_round_trips_through_classify(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["sample", "--family", "chronosceles", "--count", "3", "--seed", "2"],
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["triangles"]) == 3
        for verts in data["triangles"]:
            payload = json.dumps({"schema": "minktrig/1", "vertices": verts})
            code2, out2, _ = run_cli(capsys, monkeypatch, ["classify"],
                                     stdin=payload)
            assert code2 == EXIT_OK
            assert json.loads(out2)["proper_kind"] == "chronosceles"

    def test_negative_count_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["sample", "--family", "hyperbolic", "--count", "-1"],
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: --count")


class TestProcess:
    def test_subcommands_in_a_row_share_one_parser(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=CHRONO)
        assert code == EXIT_OK
        assert json.loads(out)["proper_kind"] == "chronosceles"
        code, out, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=HYP)
        assert code == EXIT_OK
        assert json.loads(out)["reports"][0]["family"] == "hyperbolic"
        code, out, _ = run_cli(capsys, monkeypatch, ["polar"], stdin=HYP)
        assert code == EXIT_OK
        assert len(json.loads(out)["vertices"]) == 3
        assert cli._build_parser() is cli._build_parser()

    def test_argument_errors_still_exit_2(self, capsys, monkeypatch):
        main(["sample", "--family", "hyperbolic", "--count", "1"])  # builds it
        capsys.readouterr()
        for argv, message in (
            (["verify", "--count", "many"], "invalid int value: 'many'"),
            (["sample", "--family", "euclidean"], "invalid choice: 'euclidean'"),
            ([], "the following arguments are required: command"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, stdin", [
        (["verify", "--sample", "tempolateral", "--count", "50"], None),
        (["classify"], triangle_payload((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ])
    def test_output_is_the_bytes_json_dump_writes(self, capsys, monkeypatch,
                                                  argv, stdin):
        # floats and key order survive a round trip through json, and the
        # classify payload's infinite lengths are already the string "inf"
        _, out, _ = run_cli(capsys, monkeypatch, argv, stdin=stdin)
        expected = io.StringIO()
        json.dump(json.loads(out), expected)
        assert out == expected.getvalue() + "\n"
