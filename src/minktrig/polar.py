"""Polar triangles: construction, existence, involution, and type prediction.

The polar vertex opposite A is the signed, normalized Euclidean cross product
of B and C, with the sign taken from the determinant of the vertex matrix.
Construction fails exactly when some cross product is zero (opposite
vertices) or lightlike (a side plane is lightlike).  Both verdicts, the
normaliser sqrt|<<B x C, B x C>>| and the sign are read off the triangle's
geometry, the same values its classification reads, so a side cannot be
lightlike for one and not for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .constants import DEFAULT_TOL, Tolerances
from .errors import PolarNonExistent
from .surfaces import Component, SegmentKind
from .triangles import (
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    _geometry,
    _Geometry,
)

REASON_OPPOSITE = "OppositeVertices"
REASON_LIGHTLIKE = "LightlikeSidePlane"


@dataclass(frozen=True)
class PolarResult:
    vertices: Optional[tuple]  # (A', B', C') or None for the degenerate case
    epsilon: int
    zero_triangle: bool = False


def _exists(g: _Geometry):
    for s in g.sides:
        if s.opposite:
            return False, REASON_OPPOSITE
        if s.lightlike:
            return False, REASON_LIGHTLIKE
    return True, None


def polar_exists(t: Triangle, tol: Tolerances = DEFAULT_TOL):
    """(exists, reason); reason is None when the polar triangle exists."""
    return _exists(_geometry(t, tol))


def polar_triangle(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> PolarResult:
    """Polar triangle of t, or the zero triangle when t is degenerate."""
    g = _geometry(t, tol)
    exists, reason = _exists(g)
    if not exists:
        raise PolarNonExistent(reason)
    if g.degenerate:
        return PolarResult(vertices=None, epsilon=0, zero_triangle=True)
    eps = 1 if g.det > 0.0 else -1
    a, b, c = g.sides
    # B x C, C x A, A x B; side b runs from A to C
    crosses = (a.cross, -b.cross, c.cross)
    verts = tuple(float(eps) * n / math.sqrt(abs(s.n2))
                  for n, s in zip(crosses, g.sides))
    return PolarResult(vertices=verts, epsilon=eps)


class PolarOutcome(Enum):
    """Coarse descriptions of a polar triangle's class, used for predictions."""

    HYPERBOLIC_EITHER_SHEET = "hyperbolic_either_sheet"
    SPATIOLATERAL_NONCONTRACTIBLE = "spatiolateral_noncontractible"
    SPATIOLATERAL_CONTRACTIBLE = "spatiolateral_contractible"
    STRANGE_ON_SHEETS = "strange_on_sheets"
    STRANGE = "strange"
    CHOROSCELES = "chorosceles"
    CHRONOSCELES = "chronosceles"
    TEMPOLATERAL = "tempolateral"
    IMPOSSIBLE_ONE_TIMELIKE = "impossible_one_timelike"
    IMPOSSIBLE_TWO_TIMELIKE = "impossible_two_timelike"
    IMPOSSIBLE_ALL = "impossible_all"
    IMPOSSIBLE_WITH_SPACELIKE = "impossible_with_spacelike"


@dataclass(frozen=True)
class PolarPrediction:
    nonexistent: bool = False
    zero_triangle: bool = False
    outcomes: tuple = ()


def _side_kind_counts(c: TriangleClass) -> tuple:
    kinds = c.side_kinds
    return (
        sum(k is SegmentKind.DE_SITTER_SPACELIKE for k in kinds),
        sum(k is SegmentKind.DE_SITTER_TIMELIKE for k in kinds),
        sum(k is SegmentKind.EMPTY for k in kinds),
    )


def predict_polar_type(c: TriangleClass) -> PolarPrediction:
    """The type-mapping table for polar triangles, as data.

    Where the source theorems give a disjunction, every admissible outcome is
    listed and membership is all that can be checked.
    """
    if c.has_opposite_vertices or c.has_lightlike_side_plane:
        return PolarPrediction(nonexistent=True)
    if c.degenerate:
        return PolarPrediction(zero_triangle=True)

    fam = c.family
    if fam in (TriangleFamily.HYPERBOLIC, TriangleFamily.ANTIPODAL_HYPERBOLIC):
        return PolarPrediction(outcomes=(PolarOutcome.SPATIOLATERAL_NONCONTRACTIBLE,))
    if fam is TriangleFamily.STRANGE:
        on_sheets = all(
            comp in (Component.H2, Component.NEG_H2) for comp in c.vertex_components
        )
        if on_sheets:
            return PolarPrediction(outcomes=(PolarOutcome.SPATIOLATERAL_CONTRACTIBLE,))
        return PolarPrediction(outcomes=(
            PolarOutcome.STRANGE,
            PolarOutcome.CHOROSCELES,
            PolarOutcome.CHRONOSCELES,
            PolarOutcome.IMPOSSIBLE_WITH_SPACELIKE,
        ))

    # proper triangles
    pk = c.proper_kind
    if pk is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE:
        return PolarPrediction(outcomes=(PolarOutcome.HYPERBOLIC_EITHER_SHEET,))
    if pk is ProperKind.SPATIOLATERAL_CONTRACTIBLE:
        return PolarPrediction(outcomes=(PolarOutcome.STRANGE_ON_SHEETS,))
    if pk in (ProperKind.CHOROSCELES, ProperKind.CHRONOSCELES):
        return PolarPrediction(outcomes=(PolarOutcome.STRANGE,))
    if pk is ProperKind.TEMPOLATERAL:
        return PolarPrediction(outcomes=(PolarOutcome.IMPOSSIBLE_ONE_TIMELIKE,))

    # impossible proper triangles (no proper kind)
    s, t, e = _side_kind_counts(c)
    if s >= 1:
        return PolarPrediction(outcomes=(PolarOutcome.STRANGE,))
    if t == 1 and e == 2:
        return PolarPrediction(outcomes=(
            PolarOutcome.IMPOSSIBLE_ONE_TIMELIKE, PolarOutcome.TEMPOLATERAL,
        ))
    if t == 2 and e == 1:
        return PolarPrediction(outcomes=(PolarOutcome.IMPOSSIBLE_TWO_TIMELIKE,))
    if e == 3:
        return PolarPrediction(outcomes=(PolarOutcome.IMPOSSIBLE_ALL,))
    return PolarPrediction(outcomes=())


def outcome_matches(outcome: PolarOutcome, c: TriangleClass) -> bool:
    s, t, e = _side_kind_counts(c)
    if outcome is PolarOutcome.HYPERBOLIC_EITHER_SHEET:
        return c.family in (
            TriangleFamily.HYPERBOLIC, TriangleFamily.ANTIPODAL_HYPERBOLIC
        )
    if outcome is PolarOutcome.SPATIOLATERAL_NONCONTRACTIBLE:
        return c.proper_kind is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE
    if outcome is PolarOutcome.SPATIOLATERAL_CONTRACTIBLE:
        return c.proper_kind is ProperKind.SPATIOLATERAL_CONTRACTIBLE
    if outcome is PolarOutcome.STRANGE_ON_SHEETS:
        return c.family is TriangleFamily.STRANGE and all(
            comp in (Component.H2, Component.NEG_H2) for comp in c.vertex_components
        )
    if outcome is PolarOutcome.STRANGE:
        return c.family is TriangleFamily.STRANGE
    if outcome is PolarOutcome.CHOROSCELES:
        return c.proper_kind is ProperKind.CHOROSCELES
    if outcome is PolarOutcome.CHRONOSCELES:
        return c.proper_kind is ProperKind.CHRONOSCELES
    if outcome is PolarOutcome.TEMPOLATERAL:
        return c.proper_kind is ProperKind.TEMPOLATERAL
    if outcome is PolarOutcome.IMPOSSIBLE_ONE_TIMELIKE:
        return c.family is TriangleFamily.PROPER and (s, t, e) == (0, 1, 2)
    if outcome is PolarOutcome.IMPOSSIBLE_TWO_TIMELIKE:
        return c.family is TriangleFamily.PROPER and (s, t, e) == (0, 2, 1)
    if outcome is PolarOutcome.IMPOSSIBLE_ALL:
        return c.family is TriangleFamily.PROPER and e == 3
    if outcome is PolarOutcome.IMPOSSIBLE_WITH_SPACELIKE:
        return c.family is TriangleFamily.PROPER and e >= 1 and s >= 1
    return False


def prediction_satisfied(pred: PolarPrediction, polar_class: TriangleClass) -> bool:
    if pred.nonexistent or pred.zero_triangle:
        return False  # callers check those flags against the construction itself
    return any(outcome_matches(o, polar_class) for o in pred.outcomes)
