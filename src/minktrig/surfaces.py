"""Points, distances, geodesic segments, and angles on the unit quadric.

The quadric |<<x,x>>| = 1 has three components: the forward hyperboloid sheet
(containing e1), the backward sheet, and the one-sheeted hyperboloid between
them (the Lorentzian component).  Cross-component distances are infinite.

Every verdict on a segment from a to b is read off two numbers: the product
p = <<a,b>> and n2 = <<a x b, a x b>>, which equals p^2 - <<a,a>><<b,b>> by the
Lorentzian Binet-Cauchy identity.  Across components the segment is empty.  On
the Lorentzian component it is empty when p <= -1; otherwise the plane
span(a, b) is lightlike when n2 is within the light band, and the segment is
lightlike with length 0, timelike with length arcosh p when n2 > 0, and
spacelike with length arccos p otherwise: the sign of n2, not p, tells the
two apart, since p rounds to exactly 1 on sides shorter than about 1e-8.  On
a sheet its length is arcosh(-p).  sqrt|n2| normalises the tangent vectors.
segment_kind, distance and tangent_vector are views of that one rule, so
they cannot disagree.

n2 is evaluated from the cross product rather than as p^2 - <<a,a>><<b,b>>: on
a short side p is close to 1 and that difference loses the digits the cross
product keeps.

_side computes the rule on the six coordinates as floats, in the operation
order of the mink functions, so each value keeps every bit theirs would have;
the only object it builds besides its _Side is the cross product a x b, which
the triangle's determinant and the polar vertices are read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

from .constants import _POINT_EQ_TOL, EPS_CLAMP, EPS_LIGHT, EPS_SURF
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
from .mink import MVec3, cross, minkowski_norm, minkowski_product


class Component(Enum):
    H2 = "h2"
    NEG_H2 = "neg_h2"
    DE_SITTER = "de_sitter"


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    coords: MVec3
    component: Component


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


def classify_point(x: MVec3) -> Union[SurfacePoint, OffSurface]:
    """Tag x with its quadric component, or report OffSurface.

    A NaN or infinite coordinate makes the self-product NaN or infinite, so
    such an x is reported OffSurface.
    """
    q = minkowski_product(x, x)
    if abs(q + 1.0) <= EPS_SURF:
        comp = Component.H2 if x.x1 > 0.0 else Component.NEG_H2
        return SurfacePoint(x, comp)
    if abs(q - 1.0) <= EPS_SURF:
        return SurfacePoint(x, Component.DE_SITTER)
    return OffSurface(q)


def surface_point(x: MVec3) -> SurfacePoint:
    """Like classify_point, but raises for off-surface input."""
    p = classify_point(x)
    if isinstance(p, OffSurface):
        raise OffSurfaceError(
            f"{x.as_tuple()} has self-product {p.self_product}, not +-1"
        )
    return p


def points_equal(a: SurfacePoint, b: SurfacePoint) -> bool:
    return (a.coords - b.coords).euclid_norm() <= _POINT_EQ_TOL


def _clamped_arcosh(arg: float) -> float:
    if arg < 1.0:
        if arg < 1.0 - EPS_CLAMP:
            raise ClampError(f"arcosh argument {arg} below 1 beyond clamp band")
        arg = 1.0
    return math.acosh(arg)


def _clamped_arccos(arg: float) -> float:
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + EPS_CLAMP:
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


def _side(a: SurfacePoint, b: SurfacePoint) -> _Side:
    """The side rule on the six coordinates, read into floats once, in the
    operation order of minkowski_product, cross, euclid_norm and euclid_dot;
    the cross product is the one MVec3 it builds."""
    A, B = a.coords, b.coords
    a1, a2, a3 = A.x1, A.x2, A.x3
    b1, b2, b3 = B.x1, B.x2, B.x3
    p = -a1 * b1 + a2 * b2 + a3 * b3
    c1, c2, c3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    n2 = -c1 * c1 + c2 * c2 + c3 * c3
    d1, d2, d3 = a1 - b1, a2 - b2, a3 - b3
    equal = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3) <= _POINT_EQ_TOL
    s1, s2, s3 = a1 + b1, a2 + b2, a3 + b3
    opposite = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3) <= _POINT_EQ_TOL
    lightlike = (not (equal or opposite)
                 and abs(n2) <= EPS_LIGHT * (c1 * c1 + c2 * c2 + c3 * c3))
    if equal:
        kind, length = SegmentKind.POINT, 0.0
    elif opposite or a.component is not b.component:
        kind, length = SegmentKind.EMPTY, math.inf
    elif a.component is Component.H2:
        kind, length = SegmentKind.HYPERBOLIC, _clamped_arcosh(-p)
    elif a.component is Component.NEG_H2:
        kind, length = SegmentKind.ANTIPODAL_HYPERBOLIC, _clamped_arcosh(-p)
    elif p <= -1.0:
        kind, length = SegmentKind.EMPTY, math.inf
    elif lightlike:
        kind, length = SegmentKind.DE_SITTER_LIGHTLIKE, 0.0
    # p may round to 1, or just past it, on short sides; the clamps are
    # conditional expressions, as max and min calls cost 1% of a classify
    elif n2 > 0.0:
        kind = SegmentKind.DE_SITTER_TIMELIKE
        length = math.acosh(p if p > 1.0 else 1.0)
    else:
        kind = SegmentKind.DE_SITTER_SPACELIKE
        length = math.acos(p if p < 1.0 else 1.0)
    return _Side(kind, length, p, MVec3(c1, c2, c3), n2, lightlike, opposite)


def distance(a: SurfacePoint, b: SurfacePoint) -> float:
    """Generalized distance; infinite across components."""
    return _side(a, b).length


def segment_kind(a: SurfacePoint, b: SurfacePoint) -> SegmentKind:
    return _side(a, b).kind


def _tangent(a: SurfacePoint, b: SurfacePoint, side: _Side) -> MVec3:
    A, B = a.coords, b.coords
    if side.lightlike:
        return B - A
    p = side.p
    num = B + p * A if a.component is not Component.DE_SITTER else B - p * A
    return num / math.sqrt(abs(side.n2))


def tangent_vector(a: SurfacePoint, b: SurfacePoint) -> MVec3:
    """Tangent vector at a pointing toward b.

    Normalized except when span(a, b) is lightlike, in which case it is the
    (lightlike) difference b - a.  Always Minkowski-orthogonal to a.
    """
    side = _side(a, b)
    if side.kind is SegmentKind.POINT:
        raise CoincidentPoints("tangent direction undefined for equal points")
    if side.opposite:
        raise AntipodalPoints("tangent direction undefined for antipodal points")
    if side.kind is SegmentKind.EMPTY:
        raise InfiniteSeparation("no geodesic joins points at infinite distance")
    return _tangent(a, b, side)


def _one(t: float) -> float:
    return 1.0


def _identity(t: float) -> float:
    return t


def _segment(a: SurfacePoint, b: SurfacePoint) -> tuple:
    """The geodesic segment from a to b as floats, (point, end, A, X, c, s),
    its side and tangent built once for any number of points.

    t runs over [0, end], or is 0 only where point, a = b, holds; the point at
    t is c(t)*A + s(t)*X.  (c, s) is (cos, sin) on a spacelike segment, (cosh,
    sinh) on a timelike or hyperbolic one and (1, t) on a lightlike one, whose
    X is b - a.  A single point is A + 1*X with X = -0, which adds -0.0 to
    each coordinate of A and so keeps it to the bit.
    """
    side = _side(a, b)
    kind = side.kind
    if kind is SegmentKind.EMPTY:
        raise EmptySegment("no segment joins antipodal or infinitely separated points")
    A = a.coords.as_tuple()
    if kind is SegmentKind.POINT:
        return True, 0.0, A, (-0.0, -0.0, -0.0), _one, _one
    X = _tangent(a, b, side).as_tuple()
    if kind is SegmentKind.DE_SITTER_LIGHTLIKE:
        return False, 1.0, A, X, _one, _identity
    if kind is SegmentKind.DE_SITTER_SPACELIKE:
        return False, side.length, A, X, math.cos, math.sin
    return False, side.length, A, X, math.cosh, math.sinh


def segment_point(a: SurfacePoint, b: SurfacePoint, t: float) -> MVec3:
    """Point at parameter t on the geodesic segment from a to b.

    t runs over [0, 1] for lightlike segments, [0, distance] otherwise;
    endpoints map to a and b exactly up to roundoff.
    """
    point, end, (a1, a2, a3), (x1, x2, x3), c, s = _segment(a, b)
    if point:
        if t != 0.0:
            raise ParamOutOfRange("the segment of a single point has t = 0 only")
    elif not -EPS_CLAMP <= t <= end + EPS_CLAMP:  # also refuses NaN
        raise ParamOutOfRange(f"t = {t} outside [0, {end}]")
    ct, st = c(t), s(t)
    return MVec3(ct * a1 + st * x1, ct * a2 + st * x2, ct * a3 + st * x3)


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


def _wrap_angle(p: float, kind: SegmentKind) -> float:
    if kind in (SegmentKind.HYPERBOLIC, SegmentKind.ANTIPODAL_HYPERBOLIC):
        return _clamped_arccos(p)
    return _clamped_arcosh(abs(p))


def angle(b: SurfacePoint, a: SurfacePoint, c: SurfacePoint) -> float:
    """Angle at vertex a between the segments toward b and toward c."""
    return _angle(a, b, c, _side(a, b), _side(a, c))


def _angle(a: SurfacePoint, b: SurfacePoint, c: SurfacePoint,
           ab: _Side, ac: _Side) -> float:
    kind = _check_legs((ab.kind, ac.kind))
    p = minkowski_product(_tangent(a, b, ab), _tangent(a, c, ac))
    return _wrap_angle(p, kind)


def angle_via_cross(b: SurfacePoint, a: SurfacePoint, c: SurfacePoint) -> float:
    """Same angle computed from the normalized cross products of the vertex pairs.

    The tangent-vector product equals +-<<(AxB)^, (AxC)^>>, with the minus sign
    on the Lorentzian component and the plus sign on the hyperboloid sheets.
    """
    kind = _check_legs((segment_kind(a, b), segment_kind(a, c)))
    A, B, C = a.coords, b.coords, c.coords
    nab = cross(A, B)
    nac = cross(A, C)
    p = minkowski_product(nab, nac) / (minkowski_norm(nab) * minkowski_norm(nac))
    if kind in (SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE):
        p = -p
    return _wrap_angle(p, kind)
