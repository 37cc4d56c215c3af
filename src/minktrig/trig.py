"""Laws of cosines, laws of sines, and sum theorems for the four triangle families.

Supported families: hyperbolic (and antipodal hyperbolic), spatiolateral
non-contractible, spatiolateral contractible, and tempolateral.  Their laws
differ only in which of cos/cosh and sin/sinh apply to sides and to angles and
in their sign patterns, so they are stated once, as rows of the ``_LAWS`` sign
table, and evaluated as residuals, never solved.

All of it runs as one array kernel, ``law_batch``, over vertex rows of shape
(N, 3, 3) and each row's law family; ``measure``, ``trig_report``,
``lcs_residuals``, ``lca_residuals`` and ``sines_ratios`` are its N = 1 views.
The family is established before the kernel runs: the block samplers accept
rows of one family, and ``law_batch_of`` reads it off the classifier.  Each
row's side lengths are read off the products p = <<V, W>> by the rule of
``surfaces._side``, and its angles are measured as Minkowski products of the
unit tangents built at each vertex, normalised by sqrt|n2| with
n2 = <<V x W, V x W>>.  The tempolateral apex and the contractible
spatiolateral anchor are sign tests on the vertex products g_ij = <<Vi, Vj>>.
For de Sitter vertices r_i = g_jk - g_ij g_ik is, up to positive factors, the
product of the tangents at Vi toward Vj and Vk, and also the (j, k) entry of
the polar triangle's Gram matrix.

A row that cannot be measured gets a status code in place of an exception;
``LawBatch.raise_first`` raises the error its scalar call raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .constants import DEFAULT_TOL, Tolerances
from .errors import ClampError, DegenerateTriangle, MinkTrigError, UnsupportedFamily
from .triangles import (
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    classify_triangle,
)


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


# A row's law family is its index in _FAMILIES.
_FAMILIES = tuple(LawFamily)
_HYP, _SPATIO_NC, _SPATIO_C, _TEMPO = range(4)

# Row statuses.  A row that fails gets the first failure in the order the
# scalar calls met them: no unique apex or anchor, then an angle beyond its
# clamp band, then a vanishing law-of-sines denominator.
OK, NOT_UNIQUE, CLAMP, SINE = range(4)

_JSIGN = np.array([-1.0, 1.0, 1.0])
# Side i joins vertices _J[i] and _K[i] (a = BC, b = AC, c = AB); the same
# index pairs give, for each i, the other two indices j < k.
_J = np.array([1, 0, 0])
_K = np.array([2, 2, 1])
# Each index's successor and the one after, mod 3: cross product components
# are (x x y)_m = x_{m+1} y_{m+2} - x_{m+2} y_{m+1}.
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])
# The tangents at vertex _TV toward _TW run along side _TS; tangents 2i and
# 2i + 1 are the legs of the angle at vertex i.
_TV = np.array([0, 0, 1, 1, 2, 2])
_TW = np.array([1, 2, 0, 2, 0, 1])
_TS = np.array([2, 1, 2, 0, 1, 0])
# Relabelings that move vertex i to A, the others keeping their order.
_ORDERS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])

# One row per law family.  With (i; j, k) running over (a; b, c), (b; a, c),
# (c; a, b), and with sc, ss, ac, as the side and angle cos/sin pairs (cosh
# and sinh where the first two columns say so), the laws read
#
#     sc(i) = sc(j) sc(k) + lcs[i] ac(i) ss(j) ss(k)
#     ac(i) = lca_product ac(j) ac(k) + lca[i] sc(i) as(j) as(k)
#     as(i) / ss(i) is the same for i = a, b, c.
#
# Sign triples are in side order a, b, c.  The kernel puts the contractible
# spatiolateral anchor and the tempolateral apex at A, so side a is where those
# two rows break their pattern.
#   columns: hyperbolic sides, hyperbolic angles, lcs product (always 1),
#            lca_product, lcs a, b, c, lca a, b, c
_LAWS = np.array([
    [1.0, 0.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0],  # HYP
    [0.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0],  # SPATIO_NC
    [0.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0],  # SPATIO_C
    [1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0],  # TEMPO
])
# The six equations, lcs a, b, c then lca a, b, c, over the six values sides
# a, b, c then angles alpha, beta, gamma: equation e reads value e, its two
# partners _EJ[e] and _EK[e], and the other group's value _SWAP[e].
_EJ = np.array([1, 0, 0, 4, 3, 3])
_EK = np.array([2, 2, 1, 5, 5, 4])
_SWAP = np.array([3, 4, 5, 0, 1, 2])
_GROUP = np.array([0, 0, 0, 1, 1, 1])  # the hyperbolic column of each value
_PRODUCT = _GROUP + 2  # the product sign column of each equation


def _mink(x, y):
    """<<x, y>> over the last axis, summed in the order of mink.minkowski_product."""
    return (x * y * _JSIGN).sum(axis=-1)


def _products(V):
    """p = <<Vj, Vk>>, the cross product n = Vj x Vk and n2 = <<n, n>> across
    each side of each row of V, shape (N, 3, 3)."""
    P, Q = V.take(_J, axis=1), V.take(_K, axis=1)
    n = (P.take(_NEXT, axis=-1) * Q.take(_AFTER, axis=-1)
         - P.take(_AFTER, axis=-1) * Q.take(_NEXT, axis=-1))
    return _mink(P, Q), n, _mink(n, n)


def _lengths(p, family):
    """Side lengths by the rule of surfaces._side, for sides of the kind the
    law family has: arcosh(-p) on a sheet, arccos p spacelike, arcosh p
    timelike."""
    family = family[:, None]
    x = np.where(family == _HYP, -p, p)
    return np.where((family == _SPATIO_NC) | (family == _SPATIO_C),
                    np.arccos(np.minimum(np.maximum(x, -1.0), 1.0)),
                    np.arccosh(np.maximum(x, 1.0)))


def _vertex_hits(family, p):
    """Per vertex, whether it is the tempolateral apex (r_i > 0) or the
    contractible anchor (r_j > 0 and r_k > 0); False in other families."""
    positive = (p - p.take(_J, axis=1) * p.take(_K, axis=1)) > 0.0
    family = family[:, None]
    return np.where(family == _TEMPO, positive,
                    positive.take(_J, axis=1) & positive.take(_K, axis=1)
                    & (family == _SPATIO_C))


def _angles(V, family, p, n2, tol: Tolerances):
    """Angles at A, B, C, each read off the Minkowski product of the unit
    tangents toward the other two vertices, and each row's clamp verdict.
    The sides of a law family are never lightlike, so every tangent is
    normalised by sqrt|n2|."""
    sheet = (family == _HYP)[:, None]
    At, ps = V.take(_TV, axis=1), p.take(_TS, axis=1)
    coef = np.where(sheet, -ps, ps)  # on a sheet B + pA, else B - pA
    norm = np.sqrt(np.abs(n2.take(_TS, axis=1)))
    T = (V.take(_TW, axis=1) - coef[..., None] * At) / norm[..., None]
    prod = _mink(T[:, 0::2], T[:, 1::2])
    size = np.abs(prod)
    angles = np.where(sheet, np.arccos(np.minimum(np.maximum(prod, -1.0), 1.0)),
                      np.arccosh(np.maximum(size, 1.0)))
    beyond = np.where(sheet, size - 1.0, 1.0 - size) > tol.eps_clamp
    return angles, beyond.any(axis=1)


def _laws(family, sides, angles):
    """Residuals of the six law-of-cosines equations (sides a, b, c, then
    angles), the law-of-sines ratios, and where a ratio's denominator vanishes."""
    law = _LAWS.take(family, axis=0)
    values = np.concatenate((sides, angles), axis=1)
    hyperbolic = law.take(_GROUP, axis=1) > 0.0
    c = np.where(hyperbolic, np.cosh(values), np.cos(values))
    s = np.where(hyperbolic, np.sinh(values), np.sin(values))
    cj, ck = c.take(_EJ, axis=1), c.take(_EK, axis=1)
    sj, sk = s.take(_EJ, axis=1), s.take(_EK, axis=1)
    residuals = np.abs(c - (law.take(_PRODUCT, axis=1) * cj * ck
                            + law[:, 4:] * c.take(_SWAP, axis=1) * sj * sk))
    vanishing = np.abs(s[:, :3]) < 1e-300
    ratios = s[:, 3:] / np.where(vanishing, 1.0, s[:, :3])
    return residuals, ratios, vanishing.any(axis=1)


class LawBatch(NamedTuple):
    """Measurements and law residuals of N triangles, one row each.

    Rows whose status is not OK hold no meaningful values.  Sides and angles
    are in the family's canonical labeling (see ``measure``).
    """

    status: np.ndarray  # (N,) status codes
    family: np.ndarray  # (N,) law family codes, indices into LawFamily
    sides: np.ndarray  # (N, 3)
    angles: np.ndarray  # (N, 3)
    lcs: np.ndarray  # (N, 3) law-of-cosines-for-sides residuals
    lca: np.ndarray  # (N, 3) law-of-cosines-for-angles residuals
    ratios: np.ndarray  # (N, 3) law-of-sines ratios
    max_residual: np.ndarray  # (N,) as TrigReport.max_residual
    hits: np.ndarray  # (N,) apex or anchor candidates found

    def families(self) -> list:
        return [_FAMILIES[f] for f in self.family.tolist()]

    def angle_sums(self) -> list:
        """Angle sum of each hyperbolic row, None elsewhere."""
        sums = (self.angles[:, 0] + self.angles[:, 1] + self.angles[:, 2]).tolist()
        return [s if f == _HYP else None for s, f in zip(sums, self.family.tolist())]

    def side_sums(self) -> list:
        """Side sum of each spatiolateral row, None elsewhere."""
        sums = (self.sides[:, 0] + self.sides[:, 1] + self.sides[:, 2]).tolist()
        return [s if f in (_SPATIO_NC, _SPATIO_C) else None
                for s, f in zip(sums, self.family.tolist())]

    def raise_first(self) -> None:
        """Raise the error the scalar call raised on the first row that is
        not OK, if any."""
        bad = np.flatnonzero(self.status != OK)
        if not bad.size:
            return
        i = int(bad[0])
        status = self.status[i]
        if status == NOT_UNIQUE:
            what = "apex" if self.family[i] == _TEMPO else "polar anchor"
            raise DegenerateTriangle(
                f"expected one {what} vertex, found {int(self.hits[i])}")
        if status == CLAMP:
            raise ClampError("an angle's arccos/arcosh argument is beyond the clamp band")
        raise DegenerateTriangle("law of sines has a vanishing denominator")


def law_batch(vertices, family, tol: Tolerances = DEFAULT_TOL) -> LawBatch:
    """Measure N triangles and evaluate their laws.

    ``vertices`` has shape (N, 3, 3): row n holds the coordinates of A, B and
    C of a non-degenerate triangle whose law family is ``family[n]``, an index
    into LawFamily.  The family is the caller's to establish: the samplers
    accept rows by it, and ``law_batch_of`` reads it off the classifier.
    """
    V = np.asarray(vertices, dtype=float).reshape(-1, 3, 3)
    family = np.asarray(family, dtype=int)
    p, _, n2 = _products(V)
    hits = _vertex_hits(family, p)
    count = hits.sum(axis=1)
    angles, angle_clamp = _angles(V, family, p, n2, tol)

    rows = np.arange(len(V))[:, None]
    order = _ORDERS[np.argmax(hits, axis=1)]  # the identity where no hits
    sides, angles = _lengths(p, family)[rows, order], angles[rows, order]
    residuals, ratios, vanishing = _laws(family, sides, angles)
    max_residual = np.maximum(residuals.max(axis=1),
                              np.abs(ratios - ratios.take(_NEXT, axis=1)).max(axis=1))

    choose = (family == _TEMPO) | (family == _SPATIO_C)
    status = np.where(vanishing, SINE, OK)
    status = np.where(angle_clamp, CLAMP, status)
    status = np.where(choose & (count != 1), NOT_UNIQUE, status)
    return LawBatch(status, family, sides, angles, residuals[:, :3],
                    residuals[:, 3:], ratios, max_residual, count)


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


def law_batch_of(triangles, tol: Tolerances = DEFAULT_TOL) -> LawBatch:
    """law_batch of triangles whose family the classifier reads off first.

    The first triangle that has no laws or is degenerate raises its error,
    after any earlier row's: the order a loop of scalar calls would meet them.
    """
    rows, families = [], []
    for t in triangles:
        try:
            families.append(_FAMILIES.index(_law_family(classify_triangle(t, tol)[0])))
        except MinkTrigError:
            law_batch(rows, families, tol).raise_first()
            raise
        rows.append([v.coords.as_tuple() for v in t.vertices()])
    return law_batch(rows, families, tol)


def measure(t: Triangle, tol: Tolerances = DEFAULT_TOL) -> TriangleMeasurements:
    """Side lengths and angles, with the family's canonical vertex labeling.

    For tempolateral triangles the apex, the one vertex that sees the other two
    in opposite time directions (r_i > 0), is moved to A.  For contractible
    spatiolateral triangles A is the vertex whose polar vertex sits alone on
    its hyperboloid sheet (r_j, r_k > 0), so the polar side a' is not strange.
    """
    b = law_batch_of([t], tol)
    b.raise_first()
    family = _FAMILIES[int(b.family[0])]
    return TriangleMeasurements(
        family=family,
        sides=tuple(b.sides[0].tolist()),
        angles=tuple(b.angles[0].tolist()),
        apex="A" if family is LawFamily.TEMPO else None,
        polar_anchor="a" if family is LawFamily.SPATIO_C else None,
    )


def _laws_of(m: TriangleMeasurements):
    return _laws(np.array([_FAMILIES.index(m.family)]),
                 np.array([m.sides], dtype=float), np.array([m.angles], dtype=float))


def lcs_residuals(m: TriangleMeasurements) -> tuple:
    """Residuals of the three law-of-cosines-for-sides equations."""
    return tuple(_laws_of(m)[0][0, :3].tolist())


def lca_residuals(m: TriangleMeasurements) -> tuple:
    """Residuals of the three law-of-cosines-for-angles equations."""
    return tuple(_laws_of(m)[0][0, 3:].tolist())


def sines_ratios(m: TriangleMeasurements) -> tuple:
    """The three law-of-sines ratios; their pairwise differences are the residuals.

    Angles here are unsigned, so the ratios are the common positive value
    |det(A,B,C)| / (|||AxB||| |||BxC||| |||CxA|||) in every family.  In a
    signed-angle formalism the anchored/apex ratio of the contractible
    spatiolateral and tempolateral families carries a minus sign; that sign
    cancels against the signed angle and is not observable in magnitudes.
    """
    _, ratios, vanishing = _laws_of(m)
    if vanishing[0]:
        raise DegenerateTriangle("law of sines has a vanishing denominator")
    return tuple(ratios[0].tolist())


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
    b = law_batch_of([t], tol)
    b.raise_first()
    return TrigReport(
        family=_FAMILIES[int(b.family[0])],
        lcs_residuals=tuple(b.lcs[0].tolist()),
        lca_residuals=tuple(b.lca[0].tolist()),
        sines_ratios=tuple(b.ratios[0].tolist()),
        angle_sum=b.angle_sums()[0],
        side_sum=b.side_sums()[0],
    )
