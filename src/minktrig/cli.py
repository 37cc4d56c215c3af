"""JSON-in/JSON-out command line interface.

Exit codes: 0 success, 2 input error, 3 domain error, 4 verification failure
(in --strict mode only).  Infinite distances are serialized as the string
"inf" since JSON has no infinity literal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .constants import DEFAULT_RESIDUAL_BOUND, DEFAULT_TOL
from .errors import EmptySegment, MinkTrigError, PolarNonExistent, UnsupportedFamily
from .mink import MVec3
from .polar import polar_triangle
from .samplers import _BLOCK_KINDS, FAMILIES, SampleSpec, _sample_rows, sample_triangle
from .surfaces import distance, segment_kind, segment_point, surface_point
from .surfaces import SegmentKind
from .triangles import Triangle, classify_triangle, triangle_inequality_report
from .trig import LawBatch, law_batch

SCHEMA = "minktrig/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class InputError(Exception):
    pass


def _jsonify(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    """Write the payload as one line of JSON, infinities as "inf".

    json.dumps runs the C encoder, where json.dump to a stream runs the Python
    one.  A payload with no infinity or NaN, the usual case, is written as it
    is; _jsonify walks only the others.
    """
    payload = {"schema": SCHEMA, **payload}
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:  # an infinite length or residual, or a NaN
        text = json.dumps(_jsonify(payload))
    sys.stdout.write(text + "\n")


def _fail(code: int, error: str, message: str) -> int:
    sys.stderr.write(f"{error}: {message}\n")
    return code


def _load_json(args) -> dict:
    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}")
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise InputError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
    return data


def _check_fields(data: dict, allowed: set, strict: bool) -> None:
    unknown = set(data) - allowed - {"schema"}
    if unknown and strict:
        raise InputError(f"unknown fields in strict mode: {sorted(unknown)}")


def _parse_vec(raw, name: str) -> MVec3:
    """Three finite JSON numbers; booleans, NaN and +-Infinity are refused."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in raw)):
        raise InputError(f"{name} must be an array of 3 numbers")
    try:
        coords = [float(v) for v in raw]
    except OverflowError:  # an integer beyond the float range
        coords = None
    if coords is None or not all(math.isfinite(v) for v in coords):
        raise InputError(f"{name} must have finite coordinates")
    return MVec3(*coords)


def _at_least(value: int, least: int, option: str) -> int:
    if value < least:
        raise InputError(f"{option} must be at least {least}, got {value}")
    return value


def _parse_triangle(data: dict) -> Triangle:
    verts = data.get("vertices")
    if not isinstance(verts, list) or len(verts) != 3:
        raise InputError("'vertices' must be an array of 3 vertices")
    vs = [_parse_vec(v, f"vertices[{i}]") for i, v in enumerate(verts)]
    try:
        return Triangle.from_vectors(*vs)
    except MinkTrigError as exc:
        raise InputError(str(exc))


def _triangle_json(t: Triangle) -> list:
    return [list(v.coords.as_tuple()) for v in t.vertices()]


def cmd_classify(args) -> int:
    data = _load_json(args)
    _check_fields(data, {"vertices"}, args.strict)
    t = _parse_triangle(data)
    cls, sides = classify_triangle(t)
    ineq = triangle_inequality_report(t)
    _emit({
        "family": cls.family.value,
        "proper_kind": cls.proper_kind.value if cls.proper_kind else None,
        "sides": [
            {"label": s.label, "kind": s.kind.value, "length": s.length}
            for s in sides
        ],
        "impossible_sides": list(cls.impossible_sides),
        "degenerate": cls.degenerate,
        "contractible": cls.contractible,
        "triangle_inequality": {
            "holds": ineq.holds, "predicted": ineq.predicted,
        },
    })
    return EXIT_OK


def cmd_polar(args) -> int:
    data = _load_json(args)
    _check_fields(data, {"vertices"}, args.strict)
    t = _parse_triangle(data)
    try:
        result = polar_triangle(t)
    except PolarNonExistent as exc:
        _emit({"nonexistent": exc.reason, "epsilon": None})
        return EXIT_DOMAIN
    if result.zero_triangle:
        _emit({"zero_triangle": True, "epsilon": 0})
        return EXIT_OK
    _emit({
        "vertices": [list(v.as_tuple()) for v in result.vertices],
        "epsilon": result.epsilon,
    })
    return EXIT_OK


def _verify_batch(args) -> LawBatch:
    if args.sample:
        if args.file:
            raise InputError("--sample and --file are mutually exclusive")
        count = _at_least(args.count, 1, "--count")
        spec = SampleSpec(family=args.sample, count=count,
                          seed=_at_least(args.seed, 0, "--seed"))
        if spec.family in _BLOCK_KINDS:
            return law_batch(_sample_rows(spec))
        if spec.family != "mixed":  # no triangle of the family has laws
            raise UnsupportedFamily(f"no trig laws for {spec.family} triangles")
        triangles = sample_triangle(spec)
    else:
        data = _load_json(args)
        _check_fields(data, {"vertices"}, args.strict)
        triangles = [_parse_triangle(data)]
    return law_batch([_triangle_json(t) for t in triangles])


def cmd_verify(args) -> int:
    bound = args.tolerance
    if not bound >= 0.0:  # also refuses NaN, which JSON cannot carry
        raise InputError(f"--tolerance must be a non-negative number, got {bound}")
    batch = _verify_batch(args)
    batch.raise_first()
    worst = batch.max_residual.tolist()
    families = [f.value for f in batch.families()]
    reports = [
        {
            "family": family,
            "lcs_residuals": lcs,
            "lca_residuals": lca,
            "sines_ratios": ratios,
            "angle_sum": angle_sum,
            "side_sum": side_sum,
            "max_residual": mr,
            "within_tolerance": mr <= bound,
        }
        for family, lcs, lca, ratios, angle_sum, side_sum, mr in zip(
            families, batch.lcs.tolist(), batch.lca.tolist(),
            batch.ratios.tolist(), batch.angle_sums(), batch.side_sums(), worst)
    ]
    failures = sum(not r["within_tolerance"] for r in reports)
    _emit({
        "reports": reports,
        "summary": {
            "count": len(reports),
            "max_residual": max(worst, default=0.0),
            "failures": failures,
            "tolerance": bound,
        },
    })
    if failures and args.strict:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_export_geodesic(args) -> int:
    samples = _at_least(args.samples, 2, "--samples")
    data = _load_json(args)
    _check_fields(data, {"a", "b"}, args.strict)
    if "a" not in data or "b" not in data:
        raise InputError("expected fields 'a' and 'b'")
    try:
        a = surface_point(_parse_vec(data["a"], "a"))
        b = surface_point(_parse_vec(data["b"], "b"))
    except MinkTrigError as exc:
        raise InputError(str(exc))

    kind = segment_kind(a, b)
    if kind is SegmentKind.EMPTY:
        raise EmptySegment("no segment joins antipodal or infinitely separated points")
    bound = 1.0 if kind is SegmentKind.DE_SITTER_LIGHTLIKE else distance(a, b)
    writer = csv.writer(sys.stdout)
    writer.writerow(["x1", "x2", "x3", "t"])
    for t in np.linspace(0.0, bound, samples):
        p = segment_point(a, b, float(t))
        writer.writerow([repr(p.x1), repr(p.x2), repr(p.x3), repr(float(t))])
    return EXIT_OK


def cmd_sample(args) -> int:
    count = _at_least(args.count, 1, "--count")
    spec = SampleSpec(family=args.family, count=count,
                      seed=_at_least(args.seed, 0, "--seed"))
    triangles = sample_triangle(spec)
    _emit({"family": args.family, "seed": args.seed,
           "triangles": [_triangle_json(t) for t in triangles]})
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused for every later call."""
    parser = argparse.ArgumentParser(
        prog="minktrig",
        description="Trigonometry on the de Sitter surface and hyperbolic plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", help="read input JSON from a file instead of stdin")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown fields; fail verification with exit 4")
        p.add_argument("--tolerance", type=float, default=DEFAULT_RESIDUAL_BOUND,
                       help="residual bound for verification reports")

    p = sub.add_parser("classify", help="classify a triangle")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polar", help="compute the polar triangle")
    common(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("verify", help="evaluate all applicable trig laws")
    common(p)
    p.add_argument("--sample", choices=sorted(FAMILIES),
                   help="verify sampled triangles instead of reading input")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-geodesic", help="export a geodesic polyline as CSV")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_export_geodesic)

    p = sub.add_parser("sample", help="generate triangles of a given family")
    common(p)
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        return _fail(EXIT_INPUT, "input error", str(exc))
    except MinkTrigError as exc:
        return _fail(EXIT_DOMAIN, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
