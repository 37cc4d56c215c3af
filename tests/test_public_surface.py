"""The public surface, written out: the package's exported names and each
command's options.  Adding an export or an option means editing these sets."""

import inspect

import minktrig
from minktrig import cli

PUBLIC_NAMES = {
    "Component", "DEFAULT_RESIDUAL_BOUND", "LawBatch", "LawFamily", "MVec3",
    "MinkTrigError", "PolarResult", "ProperKind", "SampleSpec", "SegmentKind",
    "SurfacePoint", "Triangle", "TriangleClass", "TriangleFamily", "TrigReport",
    "angle", "angle_via_cross", "classify_point", "classify_triangle", "cross",
    "distance", "is_contractible", "law_batch", "minkowski_norm",
    "minkowski_product", "polar_triangle", "predict_polar_type",
    "sample_triangle", "segment_kind", "segment_point", "surface_point",
    "tangent_vector", "triangle_inequality_report", "trig_report",
}

COMMAND_OPTIONS = {
    "classify": {"--file", "--strict"},
    "polar": {"--file", "--strict"},
    "verify": {"--file", "--strict", "--tolerance", "--sample", "--count", "--seed"},
    "export-geodesic": {"--file", "--strict", "--samples"},
    "sample": {"--family", "--count", "--seed"},
}


def test_public_surface_is_pinned():
    # submodules become attributes once imported, so they are left out
    exported = {name for name, value in vars(minktrig).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    _, commands = cli._build_parser()
    options = {name: {s for action in parser._actions if action.dest != "help"
                      for s in action.option_strings}
               for name, parser in commands.items()}
    assert options == COMMAND_OPTIONS
    assert sum(map(len, options.values())) == 16
