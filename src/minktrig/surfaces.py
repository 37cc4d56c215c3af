"""Points, distances, geodesic segments, and angles on the unit quadric.

The quadric |<<x,x>>| = 1 has three components: the forward hyperboloid sheet
(containing e1), the backward sheet, and the one-sheeted hyperboloid between
them (the Lorentzian component).  Cross-component distances are infinite.

Every verdict on a segment from a to b is read off two numbers: the product
p = <<a,b>> and n2 = <<a x b, a x b>>, which equals p^2 - <<a,a>><<b,b>> by the
Lorentzian Binet-Cauchy identity.  Across components the segment is empty.  On
the Lorentzian component it is empty when p <= -1; otherwise the plane
span(a, b) is lightlike when n2 is within the light band, and the segment is
lightlike with length 0, timelike with length arcosh p when p > 1, and
spacelike with length arccos p in between.  On a sheet its length is
arcosh(-p).  sqrt|n2| normalises the tangent vectors.  segment_kind, distance
and tangent_vector are views of that one rule, so they cannot disagree.

n2 is evaluated from the cross product rather than as p^2 - <<a,a>><<b,b>>: on
a short side p is close to 1 and that difference loses the digits the cross
product keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

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
from .mink import MVec3, cross, euclid_dot, minkowski_norm, minkowski_product

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


class _Side(NamedTuple):
    """Every verdict on the segment from a to b, read off p and n2."""

    kind: SegmentKind
    length: float
    p: float  # <<a, b>>
    cross: MVec3  # a x b
    n2: float  # <<a x b, a x b>>
    lightlike: bool  # span(a, b) is a lightlike plane
    opposite: bool  # a = -b


def _side(a: SurfacePoint, b: SurfacePoint, tol: Tolerances) -> _Side:
    A, B = a.coords, b.coords
    p = minkowski_product(A, B)
    n = cross(A, B)
    n2 = minkowski_product(n, n)
    equal = points_equal(a, b)
    opposite = points_antipodal(a, b)
    lightlike = (not (equal or opposite)
                 and abs(n2) <= tol.eps_light * max(1.0, euclid_dot(n, n)))
    if equal:
        kind, length = SegmentKind.POINT, 0.0
    elif opposite or a.component is not b.component:
        kind, length = SegmentKind.EMPTY, math.inf
    elif a.component is Component.H2:
        kind, length = SegmentKind.HYPERBOLIC, _clamped_arcosh(-p, tol)
    elif a.component is Component.NEG_H2:
        kind, length = SegmentKind.ANTIPODAL_HYPERBOLIC, _clamped_arcosh(-p, tol)
    elif p <= -1.0:
        kind, length = SegmentKind.EMPTY, math.inf
    elif lightlike:
        kind, length = SegmentKind.DE_SITTER_LIGHTLIKE, 0.0
    elif p > 1.0:
        kind, length = SegmentKind.DE_SITTER_TIMELIKE, math.acosh(p)
    else:
        kind, length = SegmentKind.DE_SITTER_SPACELIKE, math.acos(p)
    return _Side(kind, length, p, n, n2, lightlike, opposite)


def distance(a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL) -> float:
    """Generalized distance; infinite across components."""
    return _side(a, b, tol).length


def segment_kind(
    a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL
) -> SegmentKind:
    return _side(a, b, tol).kind


def _tangent(a: SurfacePoint, b: SurfacePoint, side: _Side) -> MVec3:
    A, B = a.coords, b.coords
    if side.lightlike:
        return B - A
    p = side.p
    num = B + p * A if a.component is not Component.DE_SITTER else B - p * A
    return num / math.sqrt(abs(side.n2))


def tangent_vector(
    a: SurfacePoint, b: SurfacePoint, tol: Tolerances = DEFAULT_TOL
) -> MVec3:
    """Tangent vector at a pointing toward b.

    Normalized except when span(a, b) is lightlike, in which case it is the
    (lightlike) difference b - a.  Always Minkowski-orthogonal to a.
    """
    side = _side(a, b, tol)
    if side.kind is SegmentKind.POINT:
        raise CoincidentPoints("tangent direction undefined for equal points")
    if side.opposite:
        raise AntipodalPoints("tangent direction undefined for antipodal points")
    if side.kind is SegmentKind.EMPTY:
        raise InfiniteSeparation("no geodesic joins points at infinite distance")
    return _tangent(a, b, side)


def _segment(a: SurfacePoint, b: SurfacePoint, tol: Tolerances):
    """The segment from a to b as (end, point): t runs over [0, end], and
    point(t) is the point at t.  The side and the tangent are built once, for
    any number of points."""
    side = _side(a, b, tol)
    kind = side.kind
    if kind is SegmentKind.EMPTY:
        raise EmptySegment("no segment joins antipodal or infinitely separated points")
    A = a.coords
    if kind is SegmentKind.POINT:
        def point(t: float) -> MVec3:
            if t != 0.0:
                raise ParamOutOfRange("the segment of a single point has t = 0 only")
            return A
        return 0.0, point

    T = 1.0 if kind is SegmentKind.DE_SITTER_LIGHTLIKE else side.length
    X = _tangent(a, b, side)

    def point(t: float) -> MVec3:
        if t < -tol.eps_clamp or t > T + tol.eps_clamp:
            raise ParamOutOfRange(f"t = {t} outside [0, {T}]")
        if kind is SegmentKind.DE_SITTER_LIGHTLIKE:
            return A + t * X
        if kind is SegmentKind.DE_SITTER_SPACELIKE:
            return math.cos(t) * A + math.sin(t) * X
        return math.cosh(t) * A + math.sinh(t) * X
    return T, point


def segment_point(
    a: SurfacePoint, b: SurfacePoint, t: float, tol: Tolerances = DEFAULT_TOL
) -> MVec3:
    """Point at parameter t on the geodesic segment from a to b.

    t runs over [0, 1] for lightlike segments, [0, distance] otherwise;
    endpoints map to a and b exactly up to roundoff.
    """
    _, point = _segment(a, b, tol)
    return point(t)


def _check_legs(kinds: tuple) -> SegmentKind:
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
    return _angle(a, b, c, _side(a, b, tol), _side(a, c, tol), tol)


def _angle(a: SurfacePoint, b: SurfacePoint, c: SurfacePoint,
           ab: _Side, ac: _Side, tol: Tolerances) -> float:
    kind = _check_legs((ab.kind, ac.kind))
    p = minkowski_product(_tangent(a, b, ab), _tangent(a, c, ac))
    return _wrap_angle(p, kind, tol)


def angle_via_cross(
    b: SurfacePoint, a: SurfacePoint, c: SurfacePoint,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Same angle computed from the normalized cross products of the vertex pairs.

    The tangent-vector product equals +-<<(AxB)^, (AxC)^>>, with the minus sign
    on the Lorentzian component and the plus sign on the hyperboloid sheets.
    """
    kind = _check_legs((segment_kind(a, b, tol), segment_kind(a, c, tol)))
    A, B, C = a.coords, b.coords, c.coords
    nab = cross(A, B)
    nac = cross(A, C)
    p = minkowski_product(nab, nac) / (minkowski_norm(nab) * minkowski_norm(nac))
    if kind in (SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE):
        p = -p
    return _wrap_angle(p, kind, tol)
