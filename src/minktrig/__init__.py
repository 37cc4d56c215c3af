"""Trigonometry on the de Sitter surface and the hyperbolic plane.

The package works in the hyperboloid model of 3-dimensional Minkowski space:
the unit quadric under the product -x1*y1 + x2*y2 + x3*y3 splits into two
hyperbolic sheets and the de Sitter surface between them.  Modules provide
causal classification (`mink`), distances, segments, and angles (`surfaces`),
the triangle taxonomy (`triangles`), polar duality (`polar`), the laws of
cosines and sines (`trig`), and seeded generators with numerical oracles
(`samplers`).
"""

from .constants import DEFAULT_RESIDUAL_BOUND, DEFAULT_TOL, Tolerances
from .errors import MinkTrigError
from .mink import (
    CausalClass,
    MVec3,
    classify_vector,
    cross,
    det3,
    j_transform,
    minkowski_norm,
    minkowski_product,
    random_lorentz,
)
from .polar import PolarResult, polar_exists, polar_triangle, predict_polar_type
from .samplers import SampleSpec, arc_length_oracle, sample_point, sample_triangle
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
    is_degenerate,
    triangle_inequality_report,
)
from .trig import (
    LawBatch,
    LawFamily,
    TriangleMeasurements,
    TrigReport,
    angle_sum_check,
    law_batch,
    law_batch_of,
    lca_residuals,
    lcs_residuals,
    measure,
    side_sum_check,
    sines_ratios,
    trig_report,
)

__version__ = "0.1.0"
