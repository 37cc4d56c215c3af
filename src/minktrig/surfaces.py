"""Points, distances, geodesic segments, and angles on the unit quadric.

The quadric |<<x,x>>| = 1 has three components: the forward hyperboloid sheet
(containing e1), the backward sheet, and the one-sheeted hyperboloid between
them (the Lorentzian component).  Distances on the Lorentzian component follow
a four-case definition dispatching on the causal class of the difference
vector; cross-component distances are infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .constants import DEFAULT_TOL, Tolerances
from .errors import (
    AntipodalPoints,
    ClampError,
    CoincidentPoints,
    DegenerateLeg,
    EmptySegment,
    InfiniteSeparation,
    LightlikeLeg,
    MixedSegmentKinds,
    OffSurfaceError,
    ParamOutOfRange,
)
from .mink import (
    CausalClass,
    MVec3,
    PlaneClass,
    classify_plane,
    classify_vector,
    cross,
    minkowski_norm,
    minkowski_product,
)

_POINT_EQ_TOL = 1e-12


class Component(Enum):
    H2 = "h2"
    NEG_H2 = "neg_h2"
    DE_SITTER = "de_sitter"


@dataclass(frozen=True)
class SurfacePoint:
    coords: MVec3
    component: Component

    def negated(self) -> "SurfacePoint":
        flip = {
            Component.H2: Component.NEG_H2,
            Component.NEG_H2: Component.H2,
            Component.DE_SITTER: Component.DE_SITTER,
        }
        return SurfacePoint(-self.coords, flip[self.component])


@dataclass(frozen=True)
class OffSurface:
    """Report value for a vector not on the unit quadric (not an error)."""

    self_product: float


class SegmentKind(Enum):
    HYPERBOLIC = "hyperbolic"
    ANTIPODAL_HYPERBOLIC = "antipodal_hyperbolic"
    DE_SITTER_SPACELIKE = "de_sitter_spacelike"
    DE_SITTER_TIMELIKE = "de_sitter_timelike"
    DE_SITTER_LIGHTLIKE = "de_sitter_lightlike"
    POINT = "point"
    EMPTY = "empty"


def classify_point(
    x: MVec3, tol: Tolerances = DEFAULT_TOL
) -> Union[SurfacePoint, OffSurface]:
    """Tag x with its quadric component, or report OffSurface.

    A NaN or infinite coordinate makes the self-product NaN or infinite, so
    such an x is reported OffSurface.
    """
    q = minkowski_product(x, x)
    if abs(q + 1.0) <= tol.eps_surf:
        comp = Component.H2 if x.x1 > 0.0 else Component.NEG_H2
        return SurfacePoint(x, comp)
    if abs(q - 1.0) <= tol.eps_surf:
        return SurfacePoint(x, Component.DE_SITTER)
    return OffSurface(q)


def surface_point(x: MVec3, tol: Tolerances = DEFAULT_TOL) -> SurfacePoint:
    """Like classify_point, but raises for off-surface input."""
    p = classify_point(x, tol)
    if isinstance(p, OffSurface):
        raise OffSurfaceError(
            f"{x.as_tuple()} has self-product {p.self_product}, not +-1"
        )
    return p


def points_equal(a: SurfacePoint, b: SurfacePoint) -> bool:
    return (a.coords - b.coords).euclid_norm() <= _POINT_EQ_TOL


def points_antipodal(a: SurfacePoint, b: SurfacePoint) -> bool:
    return (a.coords + b.coords).euclid_norm() <= _POINT_EQ_TOL


def _clamped_arcosh(arg: float, tol: Tolerances) -> float:
    if arg < 1.0:
        if arg < 1.0 - tol.eps_clamp:
            raise ClampError(f"arcosh argument {arg} below 1 beyond clamp band")
        arg = 1.0
    return math.acosh(arg)


def _clamped_arccos(arg: float, tol: Tolerances) -> float:
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + tol.eps_clamp:
            raise ClampError(f"arccos argument {arg} outside [-1,1] beyond clamp band")
        arg = math.copysign(1.0, arg)
    return math.acos(arg)


def proper_distance(a: MVec3, b: MVec3, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance on the Lorentzian component, evaluated in the definition's case order."""
    p = minkowski_product(a, b)
    diff_class = classify_vector(a - b, tol)
    if diff_class is CausalClass.TIMELIKE:
        return _clamped_arcosh(p, tol)
    if diff_class is CausalClass.LIGHTLIKE:
        return 0.0
    antipodal = (a + b).euclid_norm() <= _POINT_EQ_TOL
    if p <= -1.0 and not antipodal:
        return math.inf
    return _clamped_arccos(p, tol)


def distance(a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL) -> float:
    """Generalized distance; infinite across components."""
    if a.component != b.component:
        return math.inf
    if a.component is Component.DE_SITTER:
        return proper_distance(a.coords, b.coords, tol)
    # both sheets use arcosh(-<<a,b>>); the backward sheet reduces to the
    # forward one under negation of both points, which leaves the product fixed
    return _clamped_arcosh(-minkowski_product(a.coords, b.coords), tol)


def segment_kind(
    a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL
) -> SegmentKind:
    if points_equal(a, b):
        return SegmentKind.POINT
    if points_antipodal(a, b) or math.isinf(distance(a, b, tol)):
        return SegmentKind.EMPTY
    if a.component is Component.H2:
        return SegmentKind.HYPERBOLIC
    if a.component is Component.NEG_H2:
        return SegmentKind.ANTIPODAL_HYPERBOLIC
    plane = classify_plane(a.coords, b.coords, tol)
    return {
        PlaneClass.SPACELIKE: SegmentKind.DE_SITTER_SPACELIKE,
        PlaneClass.TIMELIKE: SegmentKind.DE_SITTER_TIMELIKE,
        PlaneClass.LIGHTLIKE: SegmentKind.DE_SITTER_LIGHTLIKE,
    }[plane]


def tangent_vector(
    a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL
) -> MVec3:
    """Tangent vector at a pointing toward b.

    Normalized except when span(a, b) is lightlike, in which case it is the
    (lightlike) difference b - a.  Always Minkowski-orthogonal to a.
    """
    if points_equal(a, b):
        raise CoincidentPoints("tangent direction undefined for equal points")
    if points_antipodal(a, b):
        raise AntipodalPoints("tangent direction undefined for antipodal points")
    if math.isinf(distance(a, b, tol)):
        raise InfiniteSeparation("no geodesic joins points at infinite distance")

    A, B = a.coords, b.coords
    if classify_plane(A, B, tol) is PlaneClass.LIGHTLIKE:
        return B - A
    p = minkowski_product(A, B)
    denom = minkowski_norm(cross(A, B))
    hyperbolic = a.component in (Component.H2, Component.NEG_H2)
    num = B + p * A if hyperbolic else B - p * A
    return num / denom


def _segment_bound(a: SurfacePoint, b: SurfacePoint, kind: SegmentKind,
                   tol: Tolerances) -> float:
    if kind is SegmentKind.DE_SITTER_LIGHTLIKE:
        return 1.0
    return distance(a, b, tol)


def segment_point(
    a: SurfacePoint, b: SurfacePoint, t: float, tol: Tolerances = DEFAULT_TOL
) -> MVec3:
    """Point at parameter t on the geodesic segment from a to b.

    t runs over [0, 1] for lightlike segments, [0, distance] otherwise;
    endpoints map to a and b exactly up to roundoff.
    """
    kind = segment_kind(a, b, tol)
    if kind is SegmentKind.EMPTY:
        raise EmptySegment("no segment joins antipodal or infinitely separated points")
    if kind is SegmentKind.POINT:
        if t != 0.0:
            raise ParamOutOfRange("the segment of a single point has t = 0 only")
        return a.coords

    T = _segment_bound(a, b, kind, tol)
    if t < -tol.eps_clamp or t > T + tol.eps_clamp:
        raise ParamOutOfRange(f"t = {t} outside [0, {T}]")

    A = a.coords
    X = tangent_vector(a, b, tol)
    if kind is SegmentKind.DE_SITTER_LIGHTLIKE:
        return A + t * X
    if kind is SegmentKind.DE_SITTER_SPACELIKE:
        return math.cos(t) * A + math.sin(t) * X
    return math.cosh(t) * A + math.sinh(t) * X


_ANGLE_KINDS = (
    SegmentKind.HYPERBOLIC,
    SegmentKind.ANTIPODAL_HYPERBOLIC,
    SegmentKind.DE_SITTER_SPACELIKE,
    SegmentKind.DE_SITTER_TIMELIKE,
)


def _check_legs(b: SurfacePoint, a: SurfacePoint, c: SurfacePoint,
                tol: Tolerances) -> SegmentKind:
    kinds = (segment_kind(a, b, tol), segment_kind(a, c, tol))
    for k in kinds:
        if k is SegmentKind.POINT:
            raise DegenerateLeg("a leg degenerates to a point")
        if k is SegmentKind.EMPTY:
            raise EmptySegment("a leg is empty")
    if kinds[0] is not kinds[1]:
        raise MixedSegmentKinds(f"legs of different kinds: {kinds[0]}, {kinds[1]}")
    if kinds[0] is SegmentKind.DE_SITTER_LIGHTLIKE:
        raise LightlikeLeg("angles with lightlike legs are undefined")
    return kinds[0]


def _wrap_angle(p: float, kind: SegmentKind, tol: Tolerances) -> float:
    if kind in (SegmentKind.HYPERBOLIC, SegmentKind.ANTIPODAL_HYPERBOLIC):
        return _clamped_arccos(p, tol)
    return _clamped_arcosh(abs(p), tol)


def angle(
    b: SurfacePoint, a: SurfacePoint, c: SurfacePoint,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Angle at vertex a between the segments toward b and toward c."""
    kind = _check_legs(b, a, c, tol)
    p = minkowski_product(tangent_vector(a, b, tol), tangent_vector(a, c, tol))
    return _wrap_angle(p, kind, tol)


def angle_via_cross(
    b: SurfacePoint, a: SurfacePoint, c: SurfacePoint,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Same angle computed from the normalized cross products of the vertex pairs.

    The tangent-vector product equals +-<<(AxB)^, (AxC)^>>, with the minus sign
    on the Lorentzian component and the plus sign on the hyperboloid sheets.
    """
    kind = _check_legs(b, a, c, tol)
    A, B, C = a.coords, b.coords, c.coords
    nab = cross(A, B)
    nac = cross(A, C)
    p = minkowski_product(nab, nac) / (minkowski_norm(nab) * minkowski_norm(nac))
    if kind in (SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE):
        p = -p
    return _wrap_angle(p, kind, tol)
