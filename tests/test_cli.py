"""Command line interface: JSON round trips, exit codes, CSV export."""

import csv
import io
import json
import math

import numpy as np
import pytest

from minktrig import cli, samplers, surfaces, triangles, trig
from minktrig.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

from conftest import SQRT2, vec


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

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "hyperbolic", "--count", "1", "--seed", "-1"],
        ["verify", "--sample", "hyperbolic", "--count", "1", "--seed", "-1"],
        ["verify", "--sample", "mixed", "--count", "1", "--seed", "-5"],
    ])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, monkeypatch, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: --seed must be at least 0")


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


def jsonify(value):
    """_emit's stand-in for infinities: the string "inf", either sign."""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def emitted(payload):
    """What _emit writes for a payload: json.dumps, through jsonify where the
    payload holds an infinity or a NaN."""
    payload = {"schema": "minktrig/1", **payload}
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        text = json.dumps(jsonify(payload))
    return text + "\n"


def reference_reports(batch, bound):
    """verify's output written the way it used to be: one dict per row, then
    json.dumps of the whole payload.  Returns the text and the failure count."""
    worst = batch.max_residual.tolist()
    reports = [
        {
            "family": family.value,
            "lcs_residuals": lcs,
            "lca_residuals": lca,
            "sines_ratios": ratios,
            "angle_sum": angle_sum,
            "side_sum": side_sum,
            "max_residual": mr,
            "within_tolerance": mr <= bound,
        }
        for family, lcs, lca, ratios, angle_sum, side_sum, mr in zip(
            batch.families(), batch.lcs.tolist(), batch.lca.tolist(),
            batch.ratios.tolist(), batch.angle_sums(), batch.side_sums(), worst)
    ]
    failures = sum(not r["within_tolerance"] for r in reports)
    text = emitted({
        "reports": reports,
        "summary": {"count": len(reports), "max_residual": max(worst, default=0.0),
                    "failures": failures, "tolerance": bound},
    })
    return text, failures


LAW_SAMPLES = ["hyperbolic", "antipodal_hyperbolic", "spatiolateral_contractible",
               "spatiolateral_noncontractible", "tempolateral"]


class TestVerifyWriter:
    @pytest.mark.parametrize("family", LAW_SAMPLES)
    @pytest.mark.parametrize("count", [1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 11, 12])
    def test_sampled_output_matches_the_reference(self, capsys, monkeypatch,
                                                  family, count, seed):
        spec = samplers.SampleSpec(family=family, count=count, seed=seed)
        expected, _ = reference_reports(
            trig.law_batch(samplers._sample_rows(spec)), 1e-9)
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", family, "--count", str(count), "--seed", str(seed)])
        assert (code, out, err) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("stdin", [
        HYP,
        triangle_payload((0, 1, 0), (0, 0, 1), (1 / 7, 5 / 7, 5 / 7)),
        triangle_payload(
            (0.06342978900812468, 0.8890758331676081, 0.4621336397741879),
            (1.004023020338628, 1.139722326699522, 0.8420779318997318),
            (-0.1978536994988652, 0.8399624866107704, 0.5775890472403702)),
    ])
    def test_stdin_triangle_matches_the_reference(self, capsys, monkeypatch, stdin):
        vertices = json.loads(stdin)["vertices"]
        expected, _ = reference_reports(trig.law_batch([vertices]), 1e-9)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=stdin)
        assert (code, out) == (EXIT_OK, expected)

    def test_mixed_batch_matches_the_reference(self, capsys, monkeypatch):
        spec = samplers.SampleSpec(family="mixed", count=5, seed=0)
        rows = [[v.coords.as_tuple() for v in t.vertices()]
                for t in samplers.sample_triangle(spec)]
        expected, _ = reference_reports(trig.law_batch(rows), 1e-9)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--sample", "mixed", "--count", "5"])
        assert (code, out) == (EXIT_OK, expected)

    def test_zero_tolerance_strict_exit_4(self, capsys, monkeypatch):
        spec = samplers.SampleSpec(family="tempolateral", count=200, seed=3)
        expected, failures = reference_reports(
            trig.law_batch(samplers._sample_rows(spec)), 0.0)
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", "tempolateral", "--count", "200", "--seed", "3",
             "--tolerance", "0", "--strict"])
        assert code == EXIT_VERIFY
        assert out == expected
        assert failures > 0
        reports = json.loads(out)["reports"]
        assert sum(not r["within_tolerance"] for r in reports) == failures

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("bound", [1e-9, 0.0, math.inf])
    def test_hand_built_batch_matches_the_reference(self, capsys, reverse, bound):
        inf, nan = math.inf, math.nan
        columns = dict(
            status=[trig.OK] * 3,
            family=[0, 1, 3],  # hyperbolic, spatiolateral non-contractible, tempolateral
            sides=[[1.0, 2.0, 0.5], [1.0, 2.0, inf], [0.3, 0.2, 0.1]],
            angles=[[-0.0, -0.0, -0.0], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
            lcs=[[inf, 1e-16, 0.0], [nan, 2e-16, 1e-16], [0.0, 0.0, 3e-300]],
            lca=[[-inf, 1e-16, nan], [1e-16, 1e-16, 5e-17], [0.0, 2e-16, 0.0]],
            ratios=[[-0.0, 0.0, 1.5], [0.0, -0.0, inf], [-inf, nan, 0.1]],
            max_residual=[inf, nan, 2e-16],
            hits=[0, 0, 1],
        )
        batch = trig.LawBatch(
            **{k: np.array(v[::-1] if reverse else v) for k, v in columns.items()},
            classes=None)
        expected, failures = reference_reports(batch, bound)
        assert cli._write_reports(batch, bound) == failures
        assert capsys.readouterr().out == expected


class TestClassifyOnce:
    @pytest.mark.parametrize("family", ["tempolateral", "spatiolateral_contractible",
                                        "chorosceles", "photosceles_timelike_base",
                                        "strange", "impossible"])
    def test_output_matches_the_reference(self, capsys, monkeypatch, family):
        classify = triangles.classify_triangle
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(cli, "classify_triangle", counted)
        monkeypatch.setattr(triangles, "classify_triangle", counted)
        spec = samplers.SampleSpec(family=family, count=4, seed=5)
        for t in [*samplers.sample_triangle(spec), triangles.Triangle.from_vectors(
                *(vec(*v) for v in json.loads(HYP)["vertices"]))]:
            cls, sides = classify(t)
            ineq = triangles.triangle_inequality_report(t)
            calls.clear()
            expected = emitted({
                "family": cls.family.value,
                "proper_kind": cls.proper_kind.value if cls.proper_kind else None,
                "sides": [{"label": s.label, "kind": s.kind.value, "length": s.length}
                          for s in sides],
                "impossible_sides": list(cls.impossible_sides),
                "degenerate": cls.degenerate,
                "contractible": cls.contractible,
                "triangle_inequality": {"holds": ineq.holds,
                                        "predicted": ineq.predicted},
            })
            payload = triangle_payload(*(v.coords.as_tuple() for v in t.vertices()))
            code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=payload)
            assert (code, out) == (EXIT_OK, expected)
            assert len(calls) == 1


class TestGeodesicOnce:
    @pytest.mark.parametrize("a, b", [
        ((SQRT2, 1, 0), (SQRT2, 0, 1)),  # hyperbolic
        ((-SQRT2, 1, 0), (-SQRT2, 0, 1)),  # antipodal hyperbolic
        ((0, 1, 0), (0, 0.6, 0.8)),  # spacelike
        ((0, 1, 0), (0.75, 1.25, 0)),  # timelike
        ((0, 1, 0), (1, 1, 1)),  # lightlike
        ((0, 1, 0), (0, 1, 0)),  # a point
    ])
    @pytest.mark.parametrize("samples", [2, 16])
    def test_csv_matches_segment_point(self, capsys, monkeypatch, a, b, samples):
        pa, pb = surfaces.surface_point(vec(*a)), surfaces.surface_point(vec(*b))
        kind = surfaces.segment_kind(pa, pb)
        end = (1.0 if kind is surfaces.SegmentKind.DE_SITTER_LIGHTLIKE
               else surfaces.distance(pa, pb))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["x1", "x2", "x3", "t"])
        for t in np.linspace(0.0, end, samples):
            p = surfaces.segment_point(pa, pb, float(t))
            writer.writerow([repr(p.x1), repr(p.x2), repr(p.x3), repr(float(t))])

        side = surfaces._side
        calls = []

        def counted(*args):
            calls.append(args)
            return side(*args)

        monkeypatch.setattr(surfaces, "_side", counted)
        payload = json.dumps({"schema": "minktrig/1", "a": a, "b": b})
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["export-geodesic", "--samples", str(samples)],
                               stdin=payload)
        assert (code, out) == (EXIT_OK, expected.getvalue())
        assert len(calls) == 1
