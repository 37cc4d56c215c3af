"""Laws of cosines, laws of sines, and sum theorems for the four triangle families.

Supported families: hyperbolic (and antipodal hyperbolic), spatiolateral
non-contractible, spatiolateral contractible, and tempolateral.  Their laws
differ only in which of cos/cosh and sin/sinh apply to sides and to angles and
in their sign patterns, so they are stated once, as rows of the ``_LAWS`` table.
Sides and angles are measured independently with distance() and angle(); the
laws are then evaluated as residuals, never solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .constants import DEFAULT_TOL, Tolerances
from .errors import DegenerateTriangle, UnsupportedFamily
from .polar import polar_triangle
from .surfaces import Component, angle, distance, surface_point, tangent_vector
from .triangles import (
    ProperKind,
    Triangle,
    TriangleFamily,
    classify_triangle,
    is_degenerate,
)

VERTEX_LABELS = ("A", "B", "C")


class LawFamily(Enum):
    HYP = "hyperbolic"
    SPATIO_NC = "spatiolateral_noncontractible"
    SPATIO_C = "spatiolateral_contractible"
    TEMPO = "tempolateral"


@dataclass(frozen=True)
class TriangleMeasurements:
    family: LawFamily
    sides: tuple  # (a, b, c) after any relabeling
    angles: tuple  # (alpha, beta, gamma)
    apex: Optional[str] = None  # tempolateral only, always "A" after relabeling
    polar_anchor: Optional[str] = None  # contractible spatiolateral only


@dataclass(frozen=True)
class TrigReport:
    family: LawFamily
    lcs_residuals: tuple
    lca_residuals: tuple
    sines_ratios: tuple
    angle_sum: Optional[float] = None
    side_sum: Optional[float] = None

    def max_residual(self) -> float:
        r = self.sines_ratios
        sines = [abs(r[0] - r[1]), abs(r[1] - r[2]), abs(r[0] - r[2])]
        return max(list(self.lcs_residuals) + list(self.lca_residuals) + sines)


def _law_family(t: Triangle, tol: Tolerances) -> LawFamily:
    cls, _ = classify_triangle(t, tol)
    if cls.degenerate:
        raise DegenerateTriangle("trig laws are stated for non-degenerate triangles")
    if cls.family in (TriangleFamily.HYPERBOLIC, TriangleFamily.ANTIPODAL_HYPERBOLIC):
        return LawFamily.HYP
    if cls.proper_kind is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE:
        return LawFamily.SPATIO_NC
    if cls.proper_kind is ProperKind.SPATIOLATERAL_CONTRACTIBLE:
        return LawFamily.SPATIO_C
    if cls.proper_kind is ProperKind.TEMPOLATERAL:
        return LawFamily.TEMPO
    raise UnsupportedFamily(f"no trig laws for {cls.family}/{cls.proper_kind}")


def _tempo_apex_index(t: Triangle, tol: Tolerances) -> int:
    """Index of the unique vertex whose tangent vectors toward the other two
    have first components of opposite sign."""
    verts = t.vertices()
    apexes = []
    for i, v in enumerate(verts):
        others = [verts[j] for j in range(3) if j != i]
        signs = []
        for o in others:
            x1 = tangent_vector(v, o, tol).x1
            if abs(x1) <= tol.eps_light:
                raise DegenerateTriangle("apex detection ambiguous: tangent time "
                                         "component within tolerance of zero")
            signs.append(x1 > 0.0)
        if signs[0] != signs[1]:
            apexes.append(i)
    if len(apexes) != 1:
        raise DegenerateTriangle(f"expected one apex vertex, found {len(apexes)}")
    return apexes[0]


def _spatio_c_anchor_index(t: Triangle, tol: Tolerances) -> int:
    """Index of the vertex whose polar vertex sits alone on its hyperboloid sheet.

    With that vertex labeled A the polar side a' joins two points of one sheet
    and is therefore not strange.
    """
    result = polar_triangle(t, tol)
    comps = [surface_point(v, tol).component for v in result.vertices]
    for i in range(3):
        others = [comps[j] for j in range(3) if j != i]
        if comps[i] is not others[0] and others[0] is others[1]:
            return i
    raise DegenerateTriangle("polar vertices do not split 1 + 2 across the sheets")


def _relabeled(t: Triangle, first: int) -> Triangle:
    verts = t.vertices()
    rest = [verts[j] for j in range(3) if j != first]
    return Triangle(verts[first], rest[0], rest[1])


def measure(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> TriangleMeasurements:
    """Side lengths and angles, with the family's canonical vertex labeling.

    For tempolateral triangles the apex is moved to A; for contractible
    spatiolateral triangles A is chosen so the polar side a' is not strange.
    """
    family = _law_family(t, tol)
    apex = None
    anchor = None
    if family is LawFamily.TEMPO:
        t = _relabeled(t, _tempo_apex_index(t, tol))
        apex = "A"
    elif family is LawFamily.SPATIO_C:
        t = _relabeled(t, _spatio_c_anchor_index(t, tol))
        anchor = "a"

    A, B, C = t.vertices()
    sides = (distance(B, C, tol), distance(A, C, tol), distance(A, B, tol))
    angles = (angle(B, A, C, tol), angle(A, B, C, tol), angle(A, C, B, tol))
    return TriangleMeasurements(
        family=family, sides=sides, angles=angles, apex=apex, polar_anchor=anchor
    )


class _Laws(NamedTuple):
    """One family's laws of cosines and sines, as functions and signs.

    With (i; j, k) running over (a; b, c), (b; a, c), (c; a, b), and with
    sc, ss, ac, as the side and angle cos/sin pairs of the row, the laws read

        sc(i) = sc(j) sc(k) + lcs[i] ac(i) ss(j) ss(k)
        ac(i) = lca_product ac(j) ac(k) + lca[i] sc(i) as(j) as(k)
        as(i) / ss(i) is the same for i = a, b, c.
    """

    side_cos: Callable[[float], float]
    side_sin: Callable[[float], float]
    angle_cos: Callable[[float], float]
    angle_sin: Callable[[float], float]
    lcs: tuple
    lca_product: float
    lca: tuple


# Sign triples are in side order a, b, c.  measure() puts the contractible
# spatiolateral anchor and the tempolateral apex at A, so side a is where those
# two rows break their pattern.
_LAWS = {
    LawFamily.HYP: _Laws(math.cosh, math.sinh, math.cos, math.sin,
                         (-1.0, -1.0, -1.0), -1.0, (1.0, 1.0, 1.0)),
    LawFamily.SPATIO_NC: _Laws(math.cos, math.sin, math.cosh, math.sinh,
                               (-1.0, -1.0, -1.0), 1.0, (1.0, 1.0, 1.0)),
    LawFamily.SPATIO_C: _Laws(math.cos, math.sin, math.cosh, math.sinh,
                              (-1.0, 1.0, 1.0), 1.0, (1.0, -1.0, -1.0)),
    LawFamily.TEMPO: _Laws(math.cosh, math.sinh, math.cosh, math.sinh,
                           (1.0, -1.0, -1.0), 1.0, (1.0, -1.0, -1.0)),
}

# each index with the other two in increasing order
_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def lcs_residuals(m: TriangleMeasurements) -> tuple:
    """Residuals of the three law-of-cosines-for-sides equations."""
    law = _LAWS[m.family]
    cs = [law.side_cos(x) for x in m.sides]
    ss = [law.side_sin(x) for x in m.sides]
    return tuple(
        abs(cs[i] - (cs[j] * cs[k]
                     + law.lcs[i] * law.angle_cos(m.angles[i]) * ss[j] * ss[k]))
        for i, j, k in _ORDERS
    )


def lca_residuals(m: TriangleMeasurements) -> tuple:
    """Residuals of the three law-of-cosines-for-angles equations."""
    law = _LAWS[m.family]
    ca = [law.angle_cos(x) for x in m.angles]
    sa = [law.angle_sin(x) for x in m.angles]
    return tuple(
        abs(ca[i] - (law.lca_product * ca[j] * ca[k]
                     + law.lca[i] * law.side_cos(m.sides[i]) * sa[j] * sa[k]))
        for i, j, k in _ORDERS
    )


def sines_ratios(m: TriangleMeasurements) -> tuple:
    """The three law-of-sines ratios; their pairwise differences are the residuals.

    Angles here are unsigned, so the ratios are the common positive value
    |det(A,B,C)| / (|||AxB||| |||BxC||| |||CxA|||) in every family.  In a
    signed-angle formalism the anchored/apex ratio of the contractible
    spatiolateral and tempolateral families carries a minus sign; that sign
    cancels against the signed angle and is not observable in magnitudes.
    """
    law = _LAWS[m.family]
    dens = [law.side_sin(x) for x in m.sides]
    if any(abs(d) < 1e-300 for d in dens):
        raise DegenerateTriangle("law of sines has a vanishing denominator")
    return tuple(law.angle_sin(x) / d for x, d in zip(m.angles, dens))


def angle_sum_check(m: TriangleMeasurements) -> float:
    """Angle sum; the hyperbolic theorem asserts it is strictly below pi."""
    if m.family is not LawFamily.HYP:
        raise UnsupportedFamily("angle sum theorem applies to hyperbolic triangles")
    return sum(m.angles)


def side_sum_check(m: TriangleMeasurements) -> float:
    """Side sum; above 2*pi exactly for the non-contractible spatiolateral case."""
    if m.family not in (LawFamily.SPATIO_NC, LawFamily.SPATIO_C):
        raise UnsupportedFamily("side sum theorem applies to spatiolateral triangles")
    return sum(m.sides)


def trig_report(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> TrigReport:
    m = measure(t, tol)
    return TrigReport(
        family=m.family,
        lcs_residuals=lcs_residuals(m),
        lca_residuals=lca_residuals(m),
        sines_ratios=sines_ratios(m),
        angle_sum=angle_sum_check(m) if m.family is LawFamily.HYP else None,
        side_sum=(
            side_sum_check(m)
            if m.family in (LawFamily.SPATIO_NC, LawFamily.SPATIO_C)
            else None
        ),
    )
