"""Command line interface: JSON round trips, exit codes, CSV export."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minktrig import cli, samplers, surfaces, triangles, trig
from minktrig.cli import (
    EXIT_CLOSED,
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    MAX_COUNT,
    main,
)

from conftest import (
    SQRT2,
    classify_reply,
    emitted,
    law_families,
    polar_reply,
    random_lorentz,
    vec,
)


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
CHORO = triangle_payload(*samplers._sample_rows(
    samplers.SampleSpec(family="chorosceles", count=1, seed=0))[0].tolist())
GEODESIC = json.dumps({"schema": "minktrig/1", "a": [0, 1, 0], "b": [0, 0, 1]})


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

    def test_overflowing_cross_product_exit_3(self, capsys, monkeypatch):
        # side c's cross product has x3 = -inf, so its n2 and det(A, B, C)
        # are NaN and the det band cannot call the triangle degenerate
        payload = triangle_payload((1.3e154, 1.3e154, 1), (1.3e154, -1.3e154, 1),
                                   (0, 1, 0))
        code, out, err = run_cli(capsys, monkeypatch, ["polar"], stdin=payload)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("DegenerateTriangle: ")
        assert "NaN" not in err and "Infinity" not in err


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

    @pytest.mark.parametrize("stdin, name", [
        (CHRONO, "proper/chronosceles"),
        (CHORO, "proper/chorosceles"),
        (triangle_payload((1, 0, 0), (0, 1, 0), (0, 0, 1)), "strange"),
    ])
    def test_no_laws_error_names_the_class(self, capsys, monkeypatch, stdin, name):
        code, _, err = run_cli(capsys, monkeypatch, ["verify"], stdin=stdin)
        assert code == EXIT_DOMAIN
        assert err == f"UnsupportedFamily: no trig laws for {name} triangles\n"

    @pytest.mark.parametrize("family", ["chorosceles", "lucilateral", "strange"])
    def test_unsupported_sampled_family_exit_3(self, capsys, monkeypatch, family):
        # refused before any triangle is sampled
        monkeypatch.setattr(cli, "_sample_rows", None)
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--sample", family, "--count", "1000", "--seed", "4"],
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("UnsupportedFamily")

    def test_mixed_batch_fails_at_its_first_row_without_laws(self, capsys,
                                                             monkeypatch):
        # a mixed batch holds rows of every family, and is refused before
        # any is sampled, even where its first rows all have laws
        monkeypatch.setattr(cli, "_sample_rows", None)
        monkeypatch.setattr(cli, "_sample_classified", None)
        for count in ("1", "5", "6"):
            code, out, err = run_cli(
                capsys, monkeypatch, ["verify", "--sample", "mixed", "--count", count])
            assert code == EXIT_DOMAIN
            assert out == ""
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

    @pytest.mark.parametrize("family", samplers.FAMILIES)
    def test_batch_is_seeded_and_equals_sample_triangle(self, family, capsys,
                                                         monkeypatch):
        # sample writes _sample_rows; sample_triangle wraps the same rows,
        # and must keep every bit of them, -0.0 included
        argv = ["sample", "--family", family, "--count", "31", "--seed", "8"]
        code, out, _ = run_cli(capsys, monkeypatch, argv)
        assert code == EXIT_OK
        assert run_cli(capsys, monkeypatch, argv) == (EXIT_OK, out, "")
        spec = samplers.SampleSpec(family=family, count=31, seed=8)
        rows = json.loads(out)["triangles"]
        assert [[[x.hex() for x in v] for v in row] for row in rows] == [
            [[x.hex() for x in v.coords.as_tuple()] for v in t.vertices()]
            for t in samplers.sample_triangle(spec)]
        _, other, _ = run_cli(capsys, monkeypatch, argv[:-1] + ["9"])
        assert json.loads(other)["triangles"] != rows

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
        ["verify", "--seed", "-1"],  # a stdin triangle, which has no seed
    ])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin=HYP)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: --seed must be at least 0")


# Argument lists for the command-parser dispatch: each command bare, with -h,
# with each of its options and with all of them, and the lists only the full
# parser reads: none, an unknown command, an option before the command, and
# arguments left over or misspelt.
# Each command's options, as it takes them: the four that read a JSON object
# take READER_OPTIONS.
READER_OPTIONS = [["--file", "in.json"], ["--strict"]]
OWN_OPTIONS = {
    "classify": READER_OPTIONS, "polar": READER_OPTIONS,
    "verify": READER_OPTIONS + [["--tolerance", "1e-3"], ["--sample", "hyperbolic"],
                                ["--count", "5"], ["--seed", "2"]],
    "export-geodesic": READER_OPTIONS + [["--samples", "7"]],
    "sample": [["--count", "5"], ["--seed", "2"]],
}
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["--strict", "classify"], ["verify", "extra"],
    ["verify", "--samp", "hyperbolic"], ["verify", "--count", "many"],
    ["export-geodesic", "--samples", "3", "--samples", "4"], ["classify", "--", "x"],
    ["sample"], ["sample", "--family", "euclidean"],
]
for _command, _own in OWN_OPTIONS.items():
    _head = [_command] + (["--family", "hyperbolic"] if _command == "sample" else [])
    DISPATCH_ARGVS += [_head, [_command, "-h"],
                       *(_head + option for option in _own),
                       _head + [a for option in _own for a in option]]


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
            assert main(argv) == 2  # argparse's status, returned
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        pytest.param(command, option, id=f"{command[0]} {option[0]}")
        for command, option in [
            (["classify"], ["--tolerance", "1e-3"]),
            (["polar"], ["--tolerance", "1e-3"]),
            (["export-geodesic"], ["--tolerance", "1e-3"]),
            (["sample", "--family", "hyperbolic"], ["--file", "/nonexistent"]),
            (["sample", "--family", "hyperbolic"], ["--strict"]),
            (["sample", "--family", "hyperbolic"], ["--tolerance", "5"]),
        ]])
    def test_options_a_command_does_not_read_are_refused(self, capsys, monkeypatch,
                                                         command, option):
        # classify, polar and export-geodesic have no residual bound, and
        # sample reads no input
        code, out, err = run_cli(capsys, monkeypatch, command + option, stdin=HYP)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(option)}" in err

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                             ids=lambda argv: " ".join(argv) or "no arguments")
    def test_command_parsers_parse_as_the_full_parser(self, capsys, argv):
        parser, _ = cli._build_parser()
        try:
            expected, code = parser.parse_args(argv), None
        except SystemExit as exc:
            expected, code = None, exc.code
        written = capsys.readouterr()
        if code is None:
            assert cli._parse(argv) == expected
        else:
            assert main(argv) == code
        assert capsys.readouterr() == written

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["sample", "--family", "hyperbolic", "--count", "2", "--seed", "1"]
        expected = run_cli(capsys, monkeypatch, argv)
        monkeypatch.setattr(sys, "argv", ["minktrig", *argv])
        assert run_cli(capsys, monkeypatch, None) == expected
        assert expected[0] == EXIT_OK

    @pytest.mark.parametrize("command", ["classify", "polar", "verify"])
    @pytest.mark.parametrize("raw, via_file", [
        (b"[" * 100_000, False),
        (b'{"vertices": ' + b"[" * 5000, False),
        (b"\xff\xfe{", False),
        (b"\xff\xfe{", True),
    ], ids=["nested", "nested_vertices", "not_utf8", "not_utf8_file"])
    def test_unreadable_json_exit_2(self, capsys, monkeypatch, tmp_path,
                                    command, raw, via_file):
        # nesting beyond the decoder's recursion limit, and bytes that are
        # not UTF-8, on stdin or in a file
        argv = [command]
        if via_file:
            path = tmp_path / "input.json"
            path.write_bytes(raw)
            argv += ["--file", str(path)]
        else:
            monkeypatch.setattr("sys.stdin",
                                io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: cannot read input")

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
            law_families(batch), batch.lcs.tolist(), batch.lca.tolist(),
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
    @pytest.mark.parametrize("count", [1, 2, 4, 1000])
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
        batch = hand_built_batch([2, 1, 0] if reverse else [0, 1, 2])
        expected, failures = reference_reports(batch, bound)
        assert cli._write_reports(batch, bound) == failures
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("rows", [
        # n rows of one law family, hand-built row n mod 3: non-finite
        # residuals and sums (hyperbolic), an infinite side sum
        # (spatiolateral) and finite residuals (tempolateral), below and
        # from cli._UNIQUE_ROWS
        0, 1, 2, 3, 4, 5, 9, 40,
        pytest.param([0] * 5, id="hyperbolic-5"),
        pytest.param([1] * 5, id="spatiolateral-5"),
        pytest.param([2] * 5, id="tempolateral-5"),
        pytest.param([2] * 4, id="tempolateral-4"),
        pytest.param([0] * 4097, id="hyperbolic-4097"),
        pytest.param([2] * 8193, id="tempolateral-8193"),
    ])
    def test_either_residual_path_matches_the_reference(self, capsys, rows):
        # below cli._UNIQUE_ROWS rows each residual is formatted on its own;
        # from there np.unique finds the distinct ones first, and the reports
        # are written in chunks of cli._REPORT_ROWS
        batch = hand_built_batch(np.full(rows, rows % 3) if isinstance(rows, int) else rows)
        expected, failures = reference_reports(batch, 1e-9)
        assert cli._write_reports(batch, 1e-9) == failures
        assert capsys.readouterr().out == expected


def hand_built_batch(order):
    """Three rows holding non-finite values, -0.0 and the three families with
    a sum, in the given order (repeats allowed)."""
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
    return trig.LawBatch(**{k: np.array(v)[np.asarray(order, dtype=int)]
                            for k, v in columns.items()}, classes=None)


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
            expected = classify_reply(t)
            calls.clear()
            payload = triangle_payload(*(v.coords.as_tuple() for v in t.vertices()))
            code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin=payload)
            assert (code, out) == (EXIT_OK, expected)
            assert len(calls) == 1


def mapped_rows(family, count, seed):
    """count sampled rows of family, each under a random orthochronous map,
    as vertex lists."""
    rng = np.random.default_rng(seed)
    rows = samplers._sample_rows(samplers.SampleSpec(family=family, count=count,
                                                     seed=seed))
    return [(row @ random_lorentz(rng).T).tolist() for row in rows]


def parsed(stdin):
    """The triangle of a request's vertices, read as the reference reads it."""
    return triangles.Triangle.from_vectors(
        *(vec(*v) for v in json.loads(stdin)["vertices"]))


ZERO = triangle_payload((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2))
OPPOSITE = triangle_payload((0, 1, 0), (0, -1, 0), (0, 0, 1))
LIGHTLIKE = triangle_payload((0, 1, 0), (1, 1, 1), (0, 0, 1))


class TestReplies:
    """classify and polar write the bytes of json.dumps of the payload the
    reference builds as a dict (conftest.classify_reply, polar_reply)."""

    def test_sampled_rows_and_fixtures_match_the_reference(self, capsys, monkeypatch):
        # 8 rows of each family under random orthochronous maps, the zero
        # triangle, both nonexistent reasons and two fixtures; then every kind
        # of value must have been written: infinite lengths, the three
        # nullable fields as null, both booleans, both reasons
        replies = []
        requests = [triangle_payload(*rows) for family in samplers.FAMILIES
                    for rows in mapped_rows(family, 8, 31)]
        for stdin in requests + [ZERO, OPPOSITE, LIGHTLIKE, HYP, CHRONO]:
            t = parsed(stdin)
            for command, (code, expected) in (("classify", (EXIT_OK, classify_reply(t))),
                                              ("polar", polar_reply(t))):
                assert run_cli(capsys, monkeypatch, [command], stdin=stdin) == (
                    code, expected, ""), (command, stdin)
                replies.append(expected)
        text = "".join(replies)
        for fragment in ['"length": "inf"', '"proper_kind": null',
                         '"contractible": null', '"predicted": null',
                         '"contractible": true', '"contractible": false',
                         '"degenerate": true', '"impossible_sides": ["',
                         '"zero_triangle": true', '"epsilon": -1',
                         '"nonexistent": "OppositeVertices"',
                         '"nonexistent": "LightlikeSidePlane"']:
            assert fragment in text


# Each vertex value's exit and message through classify, read as the first
# vertex of a triangle whose other two are valid: the type check of all three
# values comes before the finite test.
PARSE_TABLE = [
    ("[true, 0, 0]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[0, false, 1]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[null, 1, 0]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ('["0", 1, 0]', EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[1" + "0" * 400 + ", 1, 0]", EXIT_INPUT, "vertices[0] must have finite coordinates"),
    ("[0, -1" + "0" * 400 + ", 0]", EXIT_INPUT, "vertices[0] must have finite coordinates"),
    ("[NaN, 1, 0]", EXIT_INPUT, "vertices[0] must have finite coordinates"),
    ("[0, Infinity, 0]", EXIT_INPUT, "vertices[0] must have finite coordinates"),
    ("[0, 1, -Infinity]", EXIT_INPUT, "vertices[0] must have finite coordinates"),
    ("[NaN, true, 0]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[1" + "0" * 400 + ", NaN, null]", EXIT_INPUT,
     "vertices[0] must be an array of 3 numbers"),
    ("[0, 1]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[0, 1, 0, 0]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[[0], 1, 0]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[[0, 1, 0]]", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ('{"0": 0}', EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("0", EXIT_INPUT, "vertices[0] must be an array of 3 numbers"),
    ("[-0.0, 1, 0]", EXIT_OK, ""),
    ("[5e-324, 1, -0.0]", EXIT_OK, ""),
    ("[9007199254740993, 9007199254740993, 1]", EXIT_OK, ""),
    ("[0.5, 0, 0]", EXIT_INPUT,
     "(0.5, 0.0, 0.0) has self-product -0.25, not +-1"),
]


class TestParseVec:
    @pytest.mark.parametrize("raw, code, message", PARSE_TABLE)
    def test_vertex_exit_and_message(self, capsys, monkeypatch, raw, code, message):
        stdin = '{"vertices": [%s, [0, 0, 1], [0, 0.6, 0.8]]}' % raw
        got, out, err = run_cli(capsys, monkeypatch, ["classify"], stdin=stdin)
        assert (got, err) == (code, f"input error: {message}\n" if message else "")
        if code == EXIT_OK:
            assert out == classify_reply(parsed(stdin))

    @pytest.mark.parametrize("raw, code, message", [
        row for row in PARSE_TABLE if row[2].startswith("vertices[0]")])
    def test_later_vertices_and_geodesic_ends_are_named(self, capsys, monkeypatch,
                                                        raw, code, message):
        stdin = '{"vertices": [[0, 0, 1], [0, 0.6, 0.8], %s]}' % raw
        assert run_cli(capsys, monkeypatch, ["polar"], stdin=stdin) == (
            code, "", "input error: %s\n" % message.replace("vertices[0]", "vertices[2]"))
        stdin = '{"a": [0, 1, 0], "b": %s}' % raw
        assert run_cli(capsys, monkeypatch, ["export-geodesic"], stdin=stdin) == (
            code, "", "input error: %s\n" % message.replace("vertices[0]", "b"))

    @pytest.mark.parametrize("raw", [(0, 1, 0), [0.0, 1.0, 0.0], (np.float64(0.5), 1, 2)])
    def test_tuples_lists_and_float_subclasses_are_read(self, raw):
        assert cli._parse_vec(raw, "v").as_tuple() == tuple(float(v) for v in raw)


class TestGeodesicOnce:
    @pytest.mark.parametrize("a, b", [
        ((SQRT2, 1, 0), (SQRT2, 0, 1)),  # hyperbolic
        ((-SQRT2, 1, 0), (-SQRT2, 0, 1)),  # antipodal hyperbolic
        ((0, 1, 0), (0, 0.6, 0.8)),  # spacelike
        ((0, 1, 0), (0.75, 1.25, 0)),  # timelike
        ((0, 1, 0), (1, 1, 1)),  # lightlike
        ((0, 1, 0), (0, 1, 0)),  # a point
        ((0, -0.0, 1), (0, -0.0, 1)),  # a point with a -0.0 coordinate
    ])
    @pytest.mark.parametrize("samples", [2, 16, 1000])
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


@pytest.mark.parametrize("end", [0.0, 5e-324, 1e-310, 1e-300, 1.0, math.pi, 700.0, 1e300])
def test_geodesic_grid_is_linspace_bit_for_bit(end):
    # the tiny ends take numpy's branch for a step that underflows to 0
    for samples in (2, 3, 16, 17, 4097):
        expected = np.linspace(0.0, end, samples).tolist()
        got = list(cli._grid(end, samples))
        assert list(map(float.hex, got)) == list(map(float.hex, expected))


class TestCountCap:
    @pytest.mark.parametrize("argv, option", [
        (["verify", "--sample", "hyperbolic"], "--count"),
        (["verify", "--sample", "mixed"], "--count"),
        (["sample", "--family", "hyperbolic"], "--count"),
        (["export-geodesic"], "--samples"),
        (["verify"], "--count"),  # a stdin triangle, which has no count
    ])
    def test_counts_above_the_cap_exit_2(self, capsys, monkeypatch, argv, option):
        # refused before any row or point is made
        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the count check")

        for name in ("_sample_rows", "_sample_classified", "law_batch", "_grid"):
            monkeypatch.setattr(cli, name, allocate)
        argv = argv + [option, str(MAX_COUNT + 1)]
        stdin = GEODESIC if argv[0] == "export-geodesic" else HYP
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin=stdin)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"input error: {option} must be at most 1000000, "
                       f"got 1000001\n")

    def test_the_cap_itself_is_accepted(self, capsys, monkeypatch):
        counts = []

        def record(spec):
            counts.append(spec.count)
            return np.zeros((0, 3, 3))

        monkeypatch.setattr(cli, "_sample_rows", record)
        argv = ["sample", "--family", "hyperbolic", "--count", str(MAX_COUNT)]
        code, _, _ = run_cli(capsys, monkeypatch, argv)
        assert (code, counts) == (EXIT_OK, [MAX_COUNT])


def test_closed_stdout_exits_1_without_a_traceback():
    # 2000 reports, about 760 KB, overfill the pipe buffer, so the writer
    # meets the closed pipe whatever the timing
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "minktrig.cli", "verify", "--sample",
            "tempolateral", "--count", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(100).startswith(b'{"schema": "minktrig/1"')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_CLOSED
    assert err == b""


def readme_commands():
    """The commands of the sh block under README.md's "## Command line", as
    (argv, stdin) pairs: each `echo '...' | minktrig ...` pipeline, and each
    bare `minktrig ...` line with empty stdin."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    piped = re.findall(r"^echo '([^']*)' \\\n\s*\| minktrig (.*)$", block, re.M)
    bare = re.findall(r"^minktrig (.*)$", block, re.M)
    commands = [pytest.param(shlex.split(argv), stdin, id=argv)
                for stdin, argv in piped + [("", argv) for argv in bare]]
    assert len(commands) == block.count("minktrig ")
    return commands


@pytest.mark.parametrize("argv, stdin", readme_commands())
def test_readme_examples_exit_0(capsys, monkeypatch, argv, stdin):
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=stdin)
    assert (code, err) == (EXIT_OK, "")
    assert out


# Runs in a fresh interpreter: the scalar commands, then whether numpy has
# been executed, then two array commands, each command's (code, stdout).
FRESH = """
import io, json, sys
import minktrig, minktrig.cli

def run(argv, stdin):
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    try:
        return minktrig.cli.main(argv), sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__

scalar, array = json.loads(sys.stdin.read())
outputs = [run(argv, stdin) for argv, stdin in scalar]
lazy = "numpy._core" not in sys.modules
outputs += [run(argv, stdin) for argv, stdin in array]
print(json.dumps([lazy, outputs]))
"""


def test_scalar_commands_run_without_numpy(capsys, monkeypatch):
    # conftest imports numpy, so only a fresh interpreter reaches the lazy
    # path; the array commands there load numpy and write the same bytes
    scalar = [p.values for p in readme_commands()
              if p.values[0][0] in ("classify", "polar", "export-geodesic")]
    assert len(scalar) == 3
    array = [(["verify", "--sample", "hyperbolic", "--count", "4", "--seed", "3"], ""),
             (["sample", "--family", "tempolateral", "--count", "3"], "")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH], env=env, timeout=60,
                          input=json.dumps([scalar, array]), capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lazy, outputs = json.loads(proc.stdout)
    assert lazy
    expected = [list(run_cli(capsys, monkeypatch, argv, stdin=stdin)[:2])
                for argv, stdin in scalar + array]
    assert outputs == expected
