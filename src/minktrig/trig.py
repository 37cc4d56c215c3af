"""Laws of cosines, laws of sines, and sum theorems for the four triangle families.

Supported families: hyperbolic (and antipodal hyperbolic), spatiolateral
non-contractible, spatiolateral contractible, and tempolateral.  Their laws
differ only in which of cos/cosh and sin/sinh apply to sides and to angles and
in their sign patterns, so they are stated once, as rows of the ``_LAWS`` table.
Side lengths are the ones the classification read off each side's product;
angles are measured from the tangent vectors built at each vertex.  The laws
are then evaluated as residuals, never solved.  The tempolateral apex and the
contractible spatiolateral anchor are sign tests on the vertex products
g_ij = <<Vi, Vj>>.  For de Sitter vertices r_i = g_jk - g_ij g_ik is, up to
positive factors, the product of the tangents at Vi toward Vj and Vk, and also
the (j, k) entry of the polar triangle's Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .constants import DEFAULT_TOL, Tolerances
from .errors import DegenerateTriangle, UnsupportedFamily
from .surfaces import _angle
from .triangles import (
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    _classify,
)

# each index with the other two in increasing order
_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


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


def _law_family(cls: TriangleClass) -> LawFamily:
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


def _unique(hits: list, what: str) -> int:
    found = [i for i, hit in enumerate(hits) if hit]
    if len(found) != 1:
        raise DegenerateTriangle(f"expected one {what}, found {len(found)}")
    return found[0]


def measure(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> TriangleMeasurements:
    """Side lengths and angles, with the family's canonical vertex labeling.

    For tempolateral triangles the apex, the one vertex that sees the other two
    in opposite time directions (r_i > 0), is moved to A.  For contractible
    spatiolateral triangles A is the vertex whose polar vertex sits alone on
    its hyperboloid sheet (r_j, r_k > 0), so the polar side a' is not strange.
    """
    cls, _, g = _classify(t, tol)
    family = _law_family(cls)
    p = [s.p for s in g.sides]  # p[i] = <<Vj, Vk>>, across side i
    r = [p[i] - p[j] * p[k] for i, j, k in _ORDERS]
    first, apex, anchor = 0, None, None
    if family is LawFamily.TEMPO:
        first, apex = _unique([x > 0.0 for x in r], "apex vertex"), "A"
    elif family is LawFamily.SPATIO_C:
        first = _unique([r[j] > 0.0 and r[k] > 0.0 for _, j, k in _ORDERS],
                        "polar anchor vertex")
        anchor = "a"

    # the side joining Vi and Vj is the side across Vk
    verts = t.vertices()
    angles = [_angle(verts[i], verts[j], verts[k], g.sides[k], g.sides[j], tol)
              for i, j, k in _ORDERS]
    order = _ORDERS[first]
    return TriangleMeasurements(
        family=family,
        sides=tuple(g.sides[i].length for i in order),
        angles=tuple(angles[i] for i in order),
        apex=apex,
        polar_anchor=anchor,
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
