"""Polar triangles: construction, existence, involution, and type prediction.

The polar vertex opposite A is the signed, normalized Euclidean cross product
of B and C, with the sign taken from the determinant of the vertex matrix.
Construction fails exactly when some cross product is zero (opposite
vertices) or lightlike (a side plane is lightlike).  Both verdicts, the
normaliser sqrt|<<B x C, B x C>>| and the sign are read off the triangle's
geometry, the same values its classification reads, so a side cannot be
lightlike for one and not for the other.  Where det(A, B, C) or a cross
product overflows floats, the polar has no float vertices, and
DegenerateTriangle is raised.

The type mapping is one table of (type, polar type) pairs.  Polarity is an
involution, so the table is read in both directions, and "the polar of X may
be of type Y" holds exactly when "the polar of Y may be of type X" does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateTriangle, PolarNonExistent
from .surfaces import Component, SegmentKind
from .triangles import Triangle, TriangleClass, TriangleFamily, _geometry

REASON_OPPOSITE = "OppositeVertices"
REASON_LIGHTLIKE = "LightlikeSidePlane"


@dataclass(frozen=True)
class PolarResult:
    vertices: Optional[tuple]  # (A', B', C') or None for the degenerate case
    epsilon: int
    zero_triangle: bool = False


def polar_triangle(t: Triangle) -> PolarResult:
    """Polar triangle of t, or the zero triangle when t is degenerate."""
    g = _geometry(t)
    for s in g.sides:
        if s.opposite:
            raise PolarNonExistent(REASON_OPPOSITE)
        if s.lightlike:
            raise PolarNonExistent(REASON_LIGHTLIKE)
    a, b, c = g.sides
    # an overflowing cross product leaves det or an n2 infinite or NaN, which
    # neither the det band nor the normaliser can read
    if not all(map(math.isfinite, (g.det, a.n2, b.n2, c.n2))):
        raise DegenerateTriangle("det(A, B, C) or a side's n2 overflows floats")
    if g.degenerate:
        return PolarResult(vertices=None, epsilon=0, zero_triangle=True)
    eps = 1 if g.det > 0.0 else -1
    # B x C, C x A, A x B; side b runs from A to C
    crosses = (a.cross, -b.cross, c.cross)
    verts = tuple(float(eps) * n / math.sqrt(abs(s.n2))
                  for n, s in zip(crosses, g.sides))
    return PolarResult(vertices=verts, epsilon=eps)


@dataclass(frozen=True)
class PolarPrediction:
    nonexistent: bool = False
    zero_triangle: bool = False
    outcomes: frozenset = frozenset()  # the admissible _polar_type labels


def _polar_type(c: TriangleClass):
    """A class's label in the type mapping: a family, a proper kind, or for an
    impossible proper triangle its (spacelike, timelike, empty) side counts."""
    if c.family is TriangleFamily.STRANGE:
        if Component.DE_SITTER in c.vertex_components:
            return "strange"
        return "strange_on_sheets"
    if c.family is not TriangleFamily.PROPER:
        return "hyperbolic"
    if c.proper_kind is not None:
        return c.proper_kind.value
    return tuple(sum(k is kind for k in c.side_kinds) for kind in (
        SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE,
        SegmentKind.EMPTY))


# Each pair is a type and a type its polar may have, read both ways; where the
# source theorems give a disjunction, a type has several pairs.
_POLAR_PAIRS = (
    ("hyperbolic", "spatiolateral_noncontractible"),
    ("spatiolateral_contractible", "strange_on_sheets"),
    ("strange", "strange"),
    ("strange", "chorosceles"),
    ("strange", "chronosceles"),
    ("strange", (1, 0, 2)),
    ("strange", (2, 0, 1)),
    ("strange", (1, 1, 1)),
    ("tempolateral", (0, 1, 2)),
    ((0, 1, 2), (0, 1, 2)),
    ((0, 2, 1), (0, 2, 1)),
    ((0, 0, 3), (0, 0, 3)),
)
_ADMISSIBLE = {}
for _pair in _POLAR_PAIRS:
    for _type, _polar in (_pair, _pair[::-1]):
        _ADMISSIBLE[_type] = _ADMISSIBLE.get(_type, frozenset()) | {_polar}


def predict_polar_type(c: TriangleClass) -> PolarPrediction:
    """The polar triangle's existence and its admissible types, read off the
    class; membership is all that can be checked."""
    if c.has_opposite_vertices or c.has_lightlike_side_plane:
        return PolarPrediction(nonexistent=True)
    if c.degenerate:
        return PolarPrediction(zero_triangle=True)
    return PolarPrediction(outcomes=_ADMISSIBLE.get(_polar_type(c), frozenset()))


def prediction_satisfied(pred: PolarPrediction, polar_class: TriangleClass) -> bool:
    # a nonexistent or zero-triangle prediction admits no class; callers check
    # those flags against the construction itself
    return _polar_type(polar_class) in pred.outcomes
