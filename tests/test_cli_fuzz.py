"""The command line boundary under hostile input: every call ends in a
documented exit code, never an exception, and every classify and polar reply
is the bytes json.dumps writes for its payload."""

import io
import json
import math
import os
import sys
import tempfile
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from minktrig import cli
from minktrig.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, MAX_COUNT
from minktrig.samplers import FAMILIES
from minktrig.triangles import Triangle

from conftest import classify_reply, polar_reply, vec

EXITS = {EXIT_OK, EXIT_INPUT, EXIT_DOMAIN, EXIT_VERIFY}

# Points on each component of the quadric, so that some vertex arrays reach
# the classifier and the law kernel, and values at the edges of the float
# range, integers past it among them.
ON_SURFACE = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0],
              [math.cosh(1.0), math.sinh(1.0), 0.0], [1e10, 1e10, 1],
              [math.sqrt(2), 1, 0], [math.sqrt(2), 0, 1]]
EXTREME = st.sampled_from([
    1e308, -1e308, 1e154, -1e154, 5e-324, -5e-324, 2.2250738585072014e-308,
    2**53, 2**53 + 1, 10**400, -(10**400), 0, 1, -1, 0.5, True, None, "1",
]) | st.floats()
ON = st.sampled_from(ON_SURFACE)
VECTORS = st.one_of(ON, ON, ON, ON, st.lists(EXTREME, min_size=3, max_size=3),
                    st.lists(EXTREME, max_size=4))

JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

# Requests of every command, some with an unknown field for --strict.
REQUESTS = st.fixed_dictionaries(
    {"schema": st.just("minktrig/1"),
     "vertices": st.lists(VECTORS, min_size=3, max_size=3),
     "a": VECTORS, "b": VECTORS},
    optional={"extra": st.none()})

STDIN = (st.binary(max_size=64)
         | JSON.map(lambda v: json.dumps(v).encode())
         | REQUESTS.map(lambda v: json.dumps(v).encode()))

COUNTS = st.integers(1, 50) | st.integers(-2, 0) | st.just(MAX_COUNT + 1)
SEEDS = st.integers(-2, 2**64)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["classify", "polar", "verify", "export-geodesic", "sample"]))
    argv = [command]
    if command != "sample" and draw(st.booleans()):  # sample reads no input
        argv.append("--strict")
    if command == "verify":
        if draw(st.booleans()):
            argv += ["--sample", draw(st.sampled_from(FAMILIES))]
        argv += ["--count", str(draw(COUNTS)), "--seed", str(draw(SEEDS))]
        argv += ["--tolerance", draw(st.sampled_from(
            ["1e-9", "0", "1e-300", "-1", "nan", "inf"]))]
    elif command == "sample":
        argv += ["--family", draw(st.sampled_from(FAMILIES)),
                 "--count", str(draw(COUNTS)), "--seed", str(draw(SEEDS))]
    elif command == "export-geodesic":
        argv += ["--samples", str(draw(COUNTS))]
    return argv


def run(argv, raw: bytes, request: Optional[bytes] = None) -> int:
    """cli.main(argv) with raw on stdin, read as UTF-8, and the output held
    in memory.  An exit-0 classify or polar call must write the reference
    reply of its request, raw unless given."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    if code == EXIT_OK and argv[0] in ("classify", "polar"):
        data = json.loads((raw if request is None else request).decode("utf-8"))
        t = Triangle.from_vectors(*(vec(*v) for v in data["vertices"]))
        assert out == (classify_reply(t) if argv[0] == "classify" else polar_reply(t)[1])
    return code


@settings(max_examples=200, deadline=None)
@given(argvs(), STDIN)
def test_every_input_ends_in_a_documented_exit(argv, raw):
    assert run(argv, raw) in EXITS


# Triangle requests, half of them with three distinct vertices on the
# quadric, so that many reach the classifier and the polar construction.
TRIANGLES = st.fixed_dictionaries({"vertices": st.one_of(
    st.lists(ON, min_size=3, max_size=3, unique_by=tuple),
    st.lists(VECTORS, min_size=3, max_size=3))})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["classify", "polar"]), TRIANGLES)
def test_every_reply_is_its_reference(command, request):
    assert run([command], json.dumps(request).encode()) in EXITS


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["classify", "polar", "verify", "export-geodesic"]),
       st.booleans(), STDIN)
def test_every_file_ends_in_a_documented_exit(command, strict, raw):
    # a directory per example: a function-scoped fixture would be shared by
    # every example hypothesis draws
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        argv = [command, "--file", path] + (["--strict"] if strict else [])
        assert run(argv, b"", raw) in EXITS
