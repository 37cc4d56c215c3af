"""Command line interface: JSON round trips, exit codes, CSV export."""

import io
import json
import math

import pytest

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
        code, _, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=CHRONO)
        assert code == EXIT_DOMAIN


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
