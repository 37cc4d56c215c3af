"""JSON-in/JSON-out command line interface.

Exit codes: 0 success, 1 stdout closed before the output was written, 2 input
error, 3 domain error, 4 verification failure (in --strict mode only).
Infinite distances are serialized as the string "inf" since JSON has no
infinity literal.

Each command takes only the options it reads.  classify, polar, verify and
export-geodesic read one JSON object from stdin or --file, and --strict
refuses its unknown fields.  verify adds --tolerance, the residual bound (with
--strict, a report beyond it exits 4), and --sample, --count and --seed to
verify sampled triangles instead; export-geodesic adds --samples.  sample
reads no input and takes --family, --count and --seed.

classify and polar fill in a template of their reply from the
classification or the polar triangle; the bytes are those json.dumps would
write for the payload as a dict.  sample, and polar's nonexistent and
zero-triangle replies, which hold no infinity or NaN, build their payload as a
dict and write it with json.dumps.  verify writes its reports as text read
straight off the LawBatch columns, formatting each distinct residual once;
its bytes too are those json.dumps would write for the same payload.
export-geodesic builds the t grid np.linspace would, evaluates each point
from the segment's floats and writes each row as the reprs of its floats, the
bytes csv.writer would write for them, a few thousand rows per write.

classify, polar and export-geodesic run on floats alone and never execute
numpy, which a fresh process would otherwise spend about two fifths of its
start-up on; verify and sample load it on their first array call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Optional

from ._numpy import np
from .constants import DEFAULT_RESIDUAL_BOUND
from .errors import MinkTrigError, PolarNonExistent, UnsupportedFamily
from .mink import MVec3
from .polar import polar_triangle
from .samplers import _LAW_SAMPLES, FAMILIES, SampleSpec, _sample_classified, _sample_rows
from .surfaces import _segment, surface_point
from .triangles import LawFamily, Triangle, _inequality_report, classify_triangle
from .trig import _HYP, _SPATIO_C, _SPATIO_NC, LawBatch, _law_rows, law_batch

SCHEMA = "minktrig/1"

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

# The largest --count or --samples, checked before anything is allocated: a
# batch of 10**6 rows takes about 2 GB.
MAX_COUNT = 10**6


class InputError(Exception):
    pass


# The types _parse_vec reads as numbers, bool (a subclass of int) aside.
_NUMBER = (int, float)


def _emit(payload: dict) -> None:
    """Write the payload as one line of JSON.  It holds no infinity or NaN,
    which json.dumps would write as literals that strict JSON readers refuse.

    json.dumps runs the C encoder, where json.dump to a stream runs the Python
    one.
    """
    sys.stdout.write(json.dumps({"schema": SCHEMA, **payload}) + "\n")


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
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; deep
        # nesting overflows the decoder's recursion
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
    """Three finite JSON numbers; booleans, NaN and +-Infinity are refused.
    A value that is not a number is named before one that is not finite."""
    if isinstance(raw, (list, tuple)) and len(raw) == 3:
        x, y, z = raw
        if (isinstance(x, _NUMBER) and isinstance(y, _NUMBER)
                and isinstance(z, _NUMBER) and type(x) is not bool
                and type(y) is not bool and type(z) is not bool):
            try:
                x, y, z = float(x), float(y), float(z)
            except OverflowError:  # an integer beyond the float range
                pass
            else:
                if x - x == 0.0 and y - y == 0.0 and z - z == 0.0:  # all finite
                    return MVec3(x, y, z)
            raise InputError(f"{name} must have finite coordinates")
    raise InputError(f"{name} must be an array of 3 numbers")


def _in_range(value: int, option: str, least: int, most: float = math.inf) -> int:
    if value < least:
        raise InputError(f"{option} must be at least {least}, got {value}")
    if value > most:
        raise InputError(f"{option} must be at most {most}, got {value}")
    return value


def _parse_triangle(data: dict) -> Triangle:
    verts = data.get("vertices")
    if not isinstance(verts, list) or len(verts) != 3:
        raise InputError("'vertices' must be an array of 3 vertices")
    a, b, c = verts
    a = _parse_vec(a, "vertices[0]")
    b = _parse_vec(b, "vertices[1]")
    c = _parse_vec(c, "vertices[2]")
    try:
        return Triangle.from_vectors(a, b, c)
    except MinkTrigError as exc:
        raise InputError(str(exc))


def _number(x: float) -> str:
    """A float as a reply holds it: its repr, "inf" for either infinity, NaN."""
    if x - x == 0.0:  # finite
        return repr(x)
    return "NaN" if x != x else '"inf"'


# The classify and polar replies, in the key order and with the separators
# json.dumps writes.  Every string filled in is an enum value, a side label
# or a literal of _LITERAL, none of which needs escaping.
_CLASSIFY = ('{"schema": "' + SCHEMA + '", "family": "%s", "proper_kind": %s, '
             '"sides": [{"label": "a", "kind": "%s", "length": %s}, '
             '{"label": "b", "kind": "%s", "length": %s}, '
             '{"label": "c", "kind": "%s", "length": %s}], '
             '"impossible_sides": [%s], "degenerate": %s, "contractible": %s, '
             '"triangle_inequality": {"holds": %s, "predicted": %s}}\n')
_POLAR = ('{"schema": "' + SCHEMA + '", "vertices": [[%s, %s, %s], [%s, %s, %s], '
          '[%s, %s, %s]], "epsilon": %d}\n')
_LITERAL = {True: "true", False: "false", None: "null"}


def cmd_classify(args) -> int:
    data = _load_json(args)
    _check_fields(data, {"vertices"}, args.strict)
    t = _parse_triangle(data)
    cls, sides = classify_triangle(t)
    ineq = _inequality_report(cls, sides)
    a, b, c = sides
    kind = cls.proper_kind
    impossible = cls.impossible_sides
    # an enum member's _value_ is its value, read in a fifth of the time the
    # .value descriptor takes
    sys.stdout.write(_CLASSIFY % (
        cls.family._value_, "null" if kind is None else '"%s"' % kind._value_,
        a.kind._value_, _number(a.length), b.kind._value_, _number(b.length),
        c.kind._value_, _number(c.length),
        '"%s"' % '", "'.join(impossible) if impossible else "",
        _LITERAL[cls.degenerate], _LITERAL[cls.contractible],
        _LITERAL[ineq.holds], _LITERAL[ineq.predicted]))
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
    a, b, c = result.vertices
    sys.stdout.write(_POLAR % (
        _number(a.x1), _number(a.x2), _number(a.x3), _number(b.x1), _number(b.x2),
        _number(b.x3), _number(c.x1), _number(c.x2), _number(c.x3), result.epsilon))
    return EXIT_OK


def _verify_batch(args) -> LawBatch:
    if args.sample and args.file:
        raise InputError("--sample and --file are mutually exclusive")
    count = _in_range(args.count, "--count", 1, MAX_COUNT)
    seed = _in_range(args.seed, "--seed", 0)
    if args.sample:
        spec = SampleSpec(family=args.sample, count=count, seed=seed)
        if spec.family not in _LAW_SAMPLES:
            raise UnsupportedFamily(f"no trig laws for {spec.family} triangles")
        _, classes = _sample_classified(spec)
        return _law_rows(classes)
    data = _load_json(args)
    _check_fields(data, {"vertices"}, args.strict)
    t = _parse_triangle(data)
    return law_batch([[v.coords.as_tuple() for v in t.vertices()]])


# One verify report and the verify payload's head and tail, in the key order
# and with the separators json.dumps writes.
_REPORT = ('{"family": "%s", "lcs_residuals": [%s, %s, %s], '
           '"lca_residuals": [%s, %s, %s], "sines_ratios": [%s, %s, %s], '
           '"angle_sum": %s, "side_sum": %s, "max_residual": %s, '
           '"within_tolerance": %s}')
_HEAD = '{"schema": "%s", "reports": [' % SCHEMA
_TAIL = ('], "summary": {"count": %d, "max_residual": %s, "failures": %d, '
         '"tolerance": %s}}\n')
_BOOL = ("false", "true")
_LAW_NAMES = tuple(f.value for f in LawFamily)
# _REPORT of each law family, with its name filled in and null for the sums
# it has not.
_FAMILY_REPORTS = tuple(
    _REPORT % (name, *["%s"] * 9, "%s" if f == _HYP else "null",
               "%s" if f in (_SPATIO_NC, _SPATIO_C) else "null", "%s", "%s")
    for f, name in enumerate(_LAW_NAMES))
# Reports per write: --count may be MAX_COUNT, so the text is never built
# whole.
_REPORT_ROWS = 4096
# Rows from which the numpy calls of _write_reports, np.unique over the
# residuals among them, cost less than formatting each value of a list.
_UNIQUE_ROWS = 4


def _floats(x):
    """The %s arguments of the floats x, shape (N, k): x itself where every
    value is finite, since a finite float's str is its repr, else each value,
    a finite one as it is and any other as _number writes it."""
    if np.isfinite(x).all():
        return x
    return [[v if v - v == 0.0 else _number(v) for v in row] for row in x.tolist()]


def _write_reports(batch: LawBatch, bound: float) -> int:
    """Write the verify payload of the batch's rows, byte for byte what _emit
    writes for it, and return the number of rows beyond the bound.

    The rows are of one law family, as every sampled batch and every stdin
    triangle is, and the text is read straight off the batch's columns, one
    report per row.  A batch of fewer than _UNIQUE_ROWS rows, as every stdin
    triangle is, reads each column once as a list and formats its values one
    by one into _REPORT: a numpy call per column costs more than that.  A
    larger batch fills in its family's report.  Its residuals are small
    multiples of an ulp, so it holds few distinct ones: one np.unique over
    the seven residual columns finds them, and each is formatted once.
    np.unique takes 0.0 and -0.0 for one value, so this relies on the
    residuals being absolute values, which never hold -0.0.  Each row's %s
    arguments go into one object array, and each chunk of _REPORT_ROWS rows
    is formatted with one % against the family's report repeated.
    """
    n = len(batch.status)
    family, worst = batch.family, batch.max_residual
    write = sys.stdout.write
    write(_HEAD)
    if n < _UNIQUE_ROWS:
        worst = worst.tolist()
        within = [w <= bound for w in worst]
        failures = within.count(False)
        columns = [
            (_LAW_NAMES[f], *map(_number, lcs), *map(_number, lca),
             *map(_number, ratios),
             _number(angles[0] + angles[1] + angles[2]) if f == _HYP else "null",
             _number(sides[0] + sides[1] + sides[2])
             if f == _SPATIO_NC or f == _SPATIO_C else "null",
             _number(w), _BOOL[ok])
            for f, lcs, lca, ratios, angles, sides, w, ok in zip(
                family.tolist(), batch.lcs.tolist(), batch.lca.tolist(),
                batch.ratios.tolist(), batch.angles.tolist(), batch.sides.tolist(),
                worst, within)]
        write(", ".join(map(_REPORT.__mod__, columns)))
    else:
        stacked = np.concatenate((batch.lcs.T, batch.lca.T, worst[None]))
        unique, inverse = np.unique(stacked, return_inverse=True)
        text = map(float.__repr__ if np.isfinite(unique).all() else _number,
                   unique.tolist())
        residuals = np.array(list(text), dtype=object)[inverse.reshape(7, n)]
        f = family[0]
        summed = (batch.angles if f == _HYP
                  else batch.sides if f == _SPATIO_NC or f == _SPATIO_C else None)
        floats = batch.ratios if summed is None else np.concatenate(
            (batch.ratios, (summed[:, 0] + summed[:, 1] + summed[:, 2])[:, None]),
            axis=1)
        within = worst <= bound
        failures = n - int(np.count_nonzero(within))
        # one row of %s arguments per report: the residual texts, the ratio
        # and sum floats, the worst residual's text and the verdict
        k = floats.shape[1]
        args = np.empty((n, k + 8), dtype=object)
        args[:, :6] = residuals[:6].T
        args[:, 6:6 + k] = _floats(floats)
        args[:, -2] = residuals[6]
        args[:, -1] = np.array(_BOOL, dtype=object)[within.view(np.int8)]
        report = _FAMILY_REPORTS[f]
        for first in range(0, n, _REPORT_ROWS):
            chunk = args[first:first + _REPORT_ROWS]
            if first:
                write(", ")
            write(", ".join([report] * len(chunk)) % tuple(chunk.ravel().tolist()))
        worst = worst.tolist()
    write(_TAIL % (n, _number(max(worst, default=0.0)), failures, _number(bound)))
    return failures


def cmd_verify(args) -> int:
    bound = args.tolerance
    if not bound >= 0.0:  # also refuses NaN, which JSON cannot carry
        raise InputError(f"--tolerance must be a non-negative number, got {bound}")
    batch = _verify_batch(args)
    batch.raise_first()
    if _write_reports(batch, bound) and args.strict:
        return EXIT_VERIFY
    return EXIT_OK


# Rows of export-geodesic's CSV per write: --samples may be MAX_COUNT, so the
# text is never built whole.
_CSV_ROWS = 4096


def _grid(end: float, samples: int):
    """The values of np.linspace(0.0, end, samples), bit for bit, one by one:
    i * step, or (i / (samples - 1)) * end where the step underflows to 0
    (numpy's gh-5437 branch), and end itself last."""
    div = samples - 1
    step = end / div
    if step:
        yield from map(step.__mul__, range(div))
    else:
        yield from (i / div * end for i in range(div))
    yield end


def cmd_export_geodesic(args) -> int:
    samples = _in_range(args.samples, "--samples", 2, MAX_COUNT)
    data = _load_json(args)
    _check_fields(data, {"a", "b"}, args.strict)
    if "a" not in data or "b" not in data:
        raise InputError("expected fields 'a' and 'b'")
    try:
        a = surface_point(_parse_vec(data["a"], "a"))
        b = surface_point(_parse_vec(data["b"], "b"))
    except MinkTrigError as exc:
        raise InputError(str(exc))

    _, end, (a1, a2, a3), (x1, x2, x3), c, s = _segment(a, b)
    t = _grid(end, samples)
    write = sys.stdout.write
    write("x1,x2,x3,t\r\n")
    for _ in range(0, samples, _CSV_ROWS):
        rows = []
        for tk in itertools.islice(t, _CSV_ROWS):
            ck, sk = c(tk), s(tk)
            rows.append(f"{ck * a1 + sk * x1!r},{ck * a2 + sk * x2!r},"
                        f"{ck * a3 + sk * x3!r},{tk!r}\r\n")
        write("".join(rows))
    return EXIT_OK


def cmd_sample(args) -> int:
    count = _in_range(args.count, "--count", 1, MAX_COUNT)
    spec = SampleSpec(family=args.family, count=count,
                      seed=_in_range(args.seed, "--seed", 0))
    _emit({"family": args.family, "seed": args.seed,
           "triangles": _sample_rows(spec).tolist()})
    return EXIT_OK


@functools.cache
def _build_parser() -> tuple:
    """The CLI parser and its table of command parsers by name, built on
    first use and reused for every later call."""
    parser = argparse.ArgumentParser(
        prog="minktrig",
        description="Trigonometry on the de Sitter surface and hyperbolic plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def reader(p):
        p.add_argument("--file", help="read input JSON from a file instead of stdin")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown fields; verify also exits 4 on a failed "
                       "report")

    p = sub.add_parser("classify", help="classify a triangle")
    reader(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polar", help="compute the polar triangle")
    reader(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("verify", help="evaluate all applicable trig laws")
    reader(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_RESIDUAL_BOUND,
                   help="residual bound for verification reports")
    p.add_argument("--sample", choices=sorted(FAMILIES),
                   help="verify sampled triangles instead of reading input")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-geodesic", help="export a geodesic polyline as CSV")
    reader(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_export_geodesic)

    p = sub.add_parser("sample", help="generate triangles of a given family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    return parser, sub.choices


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed as the full parser parses it.

    A command's arguments go straight to its own parser, as argparse's
    subparser action passes them, without the top-level pass.  The full parser
    takes the rest: no arguments, a first argument that is not a command, and
    arguments left over, so that every usage message is argparse's own.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    """Run one command and return its exit code; argv defaults to
    sys.argv[1:].  A usage error returns 2, and -h returns 0, once argparse
    has written its message."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at /dev/null so that the
        # interpreter's final flush cannot raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_CLOSED
    except InputError as exc:
        return _fail(EXIT_INPUT, "input error", str(exc))
    except MinkTrigError as exc:
        return _fail(EXIT_DOMAIN, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
