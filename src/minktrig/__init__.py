"""Trigonometry on the de Sitter surface and the hyperbolic plane.

The package works in the hyperboloid model of 3-dimensional Minkowski space:
the unit quadric under the product -x1*y1 + x2*y2 + x3*y3 splits into two
hyperbolic sheets and the de Sitter surface between them.  Modules provide
the indefinite product (`mink`), distances, segments, and angles
(`surfaces`), the triangle taxonomy (`triangles`), polar duality (`polar`),
the laws of cosines and sines (`trig`), and seeded triangle generators
(`samplers`).

Importing the package does not execute numpy.  The scalar API, and the
`classify`, `polar` and `export-geodesic` commands, never need it; the
first array call (`law_batch`, `trig_report`, the samplers, `verify` and
`sample`) loads it, and builds the code tables of `triangles` and `trig`.
"""

from .constants import DEFAULT_RESIDUAL_BOUND
from .errors import MinkTrigError
from .mink import MVec3, cross, minkowski_norm, minkowski_product
from .polar import PolarResult, polar_triangle, predict_polar_type
from .samplers import SampleSpec, sample_triangle
from .surfaces import (
    Component,
    SegmentKind,
    SurfacePoint,
    angle,
    angle_via_cross,
    classify_point,
    distance,
    segment_kind,
    segment_point,
    surface_point,
    tangent_vector,
)
from .triangles import (
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    classify_triangle,
    is_contractible,
    triangle_inequality_report,
)
from .trig import LawBatch, LawFamily, TrigReport, law_batch, trig_report

__version__ = "0.1.0"
