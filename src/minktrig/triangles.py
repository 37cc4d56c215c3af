"""Triangle taxonomy, degeneracy, contractibility, and triangle-inequality reports.

A triangle is any three pairwise-distinct points of the unit quadric.  Side
``a`` joins B and C, side ``b`` joins A and C, side ``c`` joins A and B.

Each public call builds the triangle's geometry once: the three sides, each
read off its product p = <<V, W>> and n2 = <<V x W, V x W>> by the one rule
of ``surfaces``, and det(A, B, C).  Side kinds, lengths, the lightlike-plane and
opposite-vertex flags, degeneracy and contractibility are all read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .constants import DEFAULT_TOL, Tolerances
from .errors import DegenerateTriangle, DuplicateVertices, NotSpatiolateral
from .mink import MVec3, euclid_dot
from .surfaces import (
    Component,
    SegmentKind,
    SurfacePoint,
    _side,
    points_equal,
    surface_point,
)

SIDE_LABELS = ("a", "b", "c")


class TriangleFamily(Enum):
    HYPERBOLIC = "hyperbolic"
    ANTIPODAL_HYPERBOLIC = "antipodal_hyperbolic"
    PROPER = "proper"
    STRANGE = "strange"


class ProperKind(Enum):
    SPATIOLATERAL_CONTRACTIBLE = "spatiolateral_contractible"
    SPATIOLATERAL_NONCONTRACTIBLE = "spatiolateral_noncontractible"
    CHOROSCELES = "chorosceles"
    TEMPOLATERAL = "tempolateral"
    CHRONOSCELES = "chronosceles"
    LUCILATERAL = "lucilateral"
    BIMETRICAL_CHOROSCELES = "bimetrical_chorosceles"
    PHOTOSCELES_SPACELIKE_BASE = "photosceles_spacelike_base"
    BIMETRICAL_CHRONOSCELES = "bimetrical_chronosceles"
    PHOTOSCELES_TIMELIKE_BASE = "photosceles_timelike_base"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Triangle:
    A: SurfacePoint
    B: SurfacePoint
    C: SurfacePoint

    def __post_init__(self):
        pairs = ((self.A, self.B), (self.A, self.C), (self.B, self.C))
        if any(points_equal(p, q) for p, q in pairs):
            raise DuplicateVertices("triangle vertices must be pairwise distinct")

    @classmethod
    def from_vectors(cls, a: MVec3, b: MVec3, c: MVec3,
                     tol: Tolerances = DEFAULT_TOL) -> "Triangle":
        return cls(surface_point(a, tol), surface_point(b, tol), surface_point(c, tol))

    def vertices(self) -> tuple:
        return (self.A, self.B, self.C)

    def side_endpoints(self) -> tuple:
        """Endpoint pairs in side order a, b, c."""
        return ((self.B, self.C), (self.A, self.C), (self.A, self.B))


@dataclass(frozen=True)
class SideReport:
    label: str
    kind: SegmentKind
    length: float


@dataclass(frozen=True)
class TriangleClass:
    family: TriangleFamily
    proper_kind: Optional[ProperKind]
    side_kinds: tuple
    impossible_sides: tuple
    degenerate: bool
    contractible: Optional[bool]
    vertex_components: tuple
    has_opposite_vertices: bool
    has_lightlike_side_plane: bool


class _Geometry(NamedTuple):
    """One call's view of a triangle; never stored on the triangle."""

    sides: tuple  # surfaces._Side of sides a, b, c
    det: float  # det(A, B, C)
    degenerate: bool


def _geometry(t: Triangle, tol: Tolerances) -> _Geometry:
    sides = tuple(_side(p, q, tol) for p, q in t.side_endpoints())
    A, B, C = (v.coords for v in t.vertices())
    det = euclid_dot(sides[2].cross, C)  # det(A, B, C) = (A x B) . C
    scale = A.euclid_norm() * B.euclid_norm() * C.euclid_norm()
    return _Geometry(sides, det, abs(det) <= tol.eps_degen * scale)


def is_degenerate(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the vertices are coplanar with the origin."""
    return _geometry(t, tol).degenerate


def _winding_number(t: Triangle) -> int:
    """Winding of the projected boundary loop A -> B -> C -> A about the origin
    of the x2-x3 plane.

    A spacelike side is shorter than pi and projects to less than half of an
    origin-centred ellipse, so its signed sweep is the angle between its
    projected endpoints, which atan2 returns in (-pi, pi).
    """
    A, B, C = (v.coords for v in t.vertices())
    sweep = sum(
        math.atan2(p.x2 * q.x3 - p.x3 * q.x2, p.x2 * q.x2 + p.x3 * q.x3)
        for p, q in ((A, B), (B, C), (C, A))
    )
    return round(sweep / (2.0 * math.pi))


def is_contractible(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the projected boundary does not wind around the origin."""
    g = _geometry(t, tol)
    if any(s.kind is not SegmentKind.DE_SITTER_SPACELIKE for s in g.sides):
        raise NotSpatiolateral("contractibility is defined for spatiolateral triangles")
    if g.degenerate:
        raise DegenerateTriangle("contractibility is undefined for degenerate triangles")
    return _winding_number(t) == 0


_KIND_TABLE = {
    (3, 0, 0): None,  # spatiolateral, split by contractibility below
    (2, 1, 0): ProperKind.CHOROSCELES,
    (0, 3, 0): ProperKind.TEMPOLATERAL,
    (1, 2, 0): ProperKind.CHRONOSCELES,
    (0, 0, 3): ProperKind.LUCILATERAL,
    (2, 0, 1): ProperKind.BIMETRICAL_CHOROSCELES,
    (1, 0, 2): ProperKind.PHOTOSCELES_SPACELIKE_BASE,
    (0, 2, 1): ProperKind.BIMETRICAL_CHRONOSCELES,
    (0, 1, 2): ProperKind.PHOTOSCELES_TIMELIKE_BASE,
    (1, 1, 1): ProperKind.MULTIPLE,
}


def classify_triangle(t: Triangle, tol: Tolerances = DEFAULT_TOL):
    """Classify a triangle; returns (TriangleClass, [SideReport])."""
    cls, sides, _ = _classify(t, tol)
    return cls, sides


def _classify(t: Triangle, tol: Tolerances):
    """classify_triangle, plus the geometry it was read off."""
    comps = tuple(v.component for v in t.vertices())
    if all(c is Component.H2 for c in comps):
        family = TriangleFamily.HYPERBOLIC
    elif all(c is Component.NEG_H2 for c in comps):
        family = TriangleFamily.ANTIPODAL_HYPERBOLIC
    elif all(c is Component.DE_SITTER for c in comps):
        family = TriangleFamily.PROPER
    else:
        family = TriangleFamily.STRANGE

    g = _geometry(t, tol)
    sides = [SideReport(label, s.kind, s.length)
             for label, s in zip(SIDE_LABELS, g.sides)]
    impossible = tuple(s.label for s in sides if s.kind is SegmentKind.EMPTY)

    proper_kind = None
    contractible = None
    if family is TriangleFamily.PROPER and not impossible:
        counts = (
            sum(s.kind is SegmentKind.DE_SITTER_SPACELIKE for s in sides),
            sum(s.kind is SegmentKind.DE_SITTER_TIMELIKE for s in sides),
            sum(s.kind is SegmentKind.DE_SITTER_LIGHTLIKE for s in sides),
        )
        proper_kind = _KIND_TABLE[counts]
        if counts == (3, 0, 0):
            if g.degenerate:
                # winding is ill-defined here; fall back to the side-sum criterion
                contractible = sum(s.length for s in sides) < 2.0 * math.pi
            else:
                contractible = _winding_number(t) == 0
            proper_kind = (
                ProperKind.SPATIOLATERAL_CONTRACTIBLE
                if contractible
                else ProperKind.SPATIOLATERAL_NONCONTRACTIBLE
            )

    cls = TriangleClass(
        family=family,
        proper_kind=proper_kind,
        side_kinds=tuple(s.kind for s in sides),
        impossible_sides=impossible,
        degenerate=g.degenerate,
        contractible=contractible,
        vertex_components=comps,
        has_opposite_vertices=any(s.opposite for s in g.sides),
        has_lightlike_side_plane=any(s.lightlike for s in g.sides),
    )
    return cls, sides, g


@dataclass(frozen=True)
class InequalityReport:
    holds: bool
    lengths: tuple  # lengths in side order a, b, c
    predicted: Optional[bool]


_ISOSCELES_TOL = 1e-9


def _predicted_inequality(cls: TriangleClass, sides) -> Optional[bool]:
    lengths = [s.length for s in sides]
    infinite = sum(math.isinf(x) for x in lengths)
    if cls.degenerate:
        return True
    if cls.family in (TriangleFamily.HYPERBOLIC, TriangleFamily.ANTIPODAL_HYPERBOLIC):
        return True
    if cls.family is TriangleFamily.STRANGE:
        return True if infinite >= 2 else None
    if cls.impossible_sides:
        return infinite >= 2
    pk = cls.proper_kind
    if pk is ProperKind.TEMPOLATERAL:
        return False
    if pk is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE:
        return True
    if pk is ProperKind.SPATIOLATERAL_CONTRACTIBLE:
        return False
    if pk is ProperKind.LUCILATERAL:
        return True
    if pk in (ProperKind.PHOTOSCELES_SPACELIKE_BASE,
              ProperKind.PHOTOSCELES_TIMELIKE_BASE):
        return False
    if pk in (ProperKind.BIMETRICAL_CHOROSCELES,
              ProperKind.BIMETRICAL_CHRONOSCELES):
        measurable = sorted(x for x in lengths if x > 0.0)
        if len(measurable) != 2:
            return None
        return abs(measurable[0] - measurable[1]) <= _ISOSCELES_TOL
    # chorosceles, chronosceles, multiple: the inequality holds only case by case
    return None


def triangle_inequality_report(
    t: Triangle, tol: Tolerances = DEFAULT_TOL
) -> InequalityReport:
    cls, sides = classify_triangle(t, tol)
    la, lb, lc = (s.length for s in sides)
    holds = (lb + lc >= la) and (la + lc >= lb) and (la + lb >= lc)
    return InequalityReport(
        holds=holds,
        lengths=(la, lb, lc),
        predicted=_predicted_inequality(cls, sides),
    )
