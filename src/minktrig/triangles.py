"""Triangle taxonomy, degeneracy, contractibility, and triangle-inequality reports.

A triangle is any three pairwise-distinct points of the unit quadric.  Side
``a`` joins B and C, side ``b`` joins A and C, side ``c`` joins A and B.

Each public call builds the triangle's geometry once: the three sides, each
read off its product p = <<V, W>> and n2 = <<V x W, V x W>> by the one rule
of ``surfaces``, and det(A, B, C).  Side kinds, lengths, the lightlike-plane and
opposite-vertex flags, degeneracy and contractibility are all read off it.

``_classify_rows`` is the same classification over vertex rows of shape
(N, 3, 3), as arrays of codes, one row per triangle.  It also reads off each
row's law family, the trigonometry the row obeys (``LawFamily``), which
``trig.law_batch`` measures it in, and the samplers accept candidate rows by
it.  Rows need not be triangles: a vertex off the quadric is flagged, and
equal vertices make a degenerate row.  The scalar ``_classify`` stays for
single triangles, where it is the faster of the two, and is the array
rule's reference in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .constants import DEFAULT_TOL, Tolerances
from .errors import DegenerateTriangle, DuplicateVertices, NotSpatiolateral
from .mink import MVec3, euclid_dot
from .surfaces import (
    _POINT_EQ_TOL,
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


class LawFamily(Enum):
    """The four families whose laws of cosines and sines ``trig`` evaluates."""

    HYP = "hyperbolic"
    SPATIO_NC = "spatiolateral_noncontractible"
    SPATIO_C = "spatiolateral_contractible"
    TEMPO = "tempolateral"


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


# -- the array classifier ------------------------------------------------------

# Side i joins vertices _J[i] and _K[i] (a = BC, b = AC, c = AB); the same
# index pairs give, for each i, the other two indices j < k.
_J = np.array([1, 0, 0])
_K = np.array([2, 2, 1])
# Each index's successor and the one after, mod 3: cross product components
# are (x x y)_m = x_{m+1} y_{m+2} - x_{m+2} y_{m+1}.
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])

# Arrays code each verdict as its index in its enum, -1 for none: a vertex or
# row off the quadric, no proper kind, no laws.  The two sheets have the same
# index as a component, as a side kind and as a triangle family.
_KINDS = tuple(SegmentKind)
_SPACELIKE, _TIMELIKE, _LIGHTLIKE, _POINT, _EMPTY = (_KINDS.index(k) for k in (
    SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE,
    SegmentKind.DE_SITTER_LIGHTLIKE, SegmentKind.POINT, SegmentKind.EMPTY))
_DE_SITTER, _PROPER, _STRANGE = 2, 2, 3  # Component and TriangleFamily codes
_PROPER_KINDS = tuple(ProperKind)
_SPATIO_C, _SPATIO_NC = 0, 1  # the spatiolateral ProperKind codes
# The triangle family of three component codes (-1 reads an axis's last entry).
_FAMILY_CODES = np.full((4, 4, 4), _STRANGE)
_FAMILY_CODES[-1, :, :] = _FAMILY_CODES[:, -1, :] = _FAMILY_CODES[:, :, -1] = -1
_FAMILY_CODES[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = [0, 1, 2]
# _KIND_TABLE on the kinds of sides a, b, c, -1 unless all three are de Sitter
# kinds (consecutive in SegmentKind); spatiolateral rows read non-contractible
# until their winding number is known.
_KIND_CODES = np.full((len(_KINDS),) * 3, -1)
for _sides in np.ndindex(3, 3, 3):
    _kind = _KIND_TABLE[tuple(_sides.count(i) for i in range(3))]
    _KIND_CODES[tuple(_SPACELIKE + i for i in _sides)] = _PROPER_KINDS.index(
        _kind or ProperKind.SPATIOLATERAL_NONCONTRACTIBLE)
# The law family of each proper kind (the one of the same name), -1 for none,
# also at index -1.  Rows of the hyperbolic families are HYP, code 0.
_LAW_NAMES = [f.value for f in LawFamily]
_LAW_CODES = np.array([_LAW_NAMES.index(k.value) if k.value in _LAW_NAMES else -1
                       for k in ProperKind] + [-1])


# The array rules hold coordinates on the first axis, so that x[0], x[1] and
# x[2] are the x1, x2 and x3 arrays of a stack of vectors x.

def _mink(x, y):
    """<<x, y>>, in the order of mink.minkowski_product."""
    return x[1] * y[1] - x[0] * y[0] + x[2] * y[2]


def _dot(x, y):
    """x . y, in the order of mink.euclid_dot."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


class _Rows(NamedTuple):
    """_classify of N triangles as code arrays, one row each.  The codes of a
    row off the quadric mean nothing beyond its family code, -1."""

    components: np.ndarray  # (N, 3) Component codes of A, B, C
    kinds: np.ndarray  # (N, 3) SegmentKind codes of sides a, b, c
    lengths: np.ndarray  # (N, 3)
    lightlike: np.ndarray  # (N, 3) the side's plane is lightlike
    opposite: np.ndarray  # (N, 3) the side's endpoints are opposite
    p: np.ndarray  # (N, 3) <<V, W>> across each side
    n2: np.ndarray  # (N, 3) <<V x W, V x W>> across each side
    det: np.ndarray  # (N,) det(A, B, C)
    scale: np.ndarray  # (N,) |A| |B| |C|, the scale of the det band
    degenerate: np.ndarray  # (N,)
    contractible: np.ndarray  # (N,) 1 or 0 on spatiolateral rows, else -1
    family: np.ndarray  # (N,) TriangleFamily codes, -1 off the quadric
    proper_kind: np.ndarray  # (N,) ProperKind codes
    law: np.ndarray  # (N,) LawFamily codes


def _classify_rows(V, tol: Tolerances) -> _Rows:
    """_classify of each row of V, shape (N, 3, 3), by the same rules: the
    component bands of surfaces.classify_point (for q < 0, ||q| - 1| is
    |q + 1| exactly), the side rule of surfaces._side, the det band of
    _geometry, _KIND_TABLE, and contractibility by _winding_number, or by the
    side sum on degenerate rows."""
    X = V.transpose(2, 0, 1)  # coordinate, row, vertex
    q = _mink(X, X)
    comp = np.where(np.abs(np.abs(q) - 1.0) <= tol.eps_surf,
                    np.where(q > 0.0, _DE_SITTER, X[0] <= 0.0), -1)
    P, Q = X.take(_J, axis=2), X.take(_K, axis=2)  # the ends of sides a, b, c
    n = (P.take(_NEXT, axis=0) * Q.take(_AFTER, axis=0)
         - P.take(_AFTER, axis=0) * Q.take(_NEXT, axis=0))  # P x Q
    p, n2 = _mink(P, Q), _mink(n, n)
    # |P - Q|^2, |P + Q|^2, |n|^2 and |V|^2 in one pass
    E = np.concatenate((P - Q, P + Q, n, X), axis=1)
    e2 = _dot(E, E).reshape(4, -1, 3)
    equal, opposite, _, norms = np.sqrt(e2)
    equal, opposite = equal <= _POINT_EQ_TOL, opposite <= _POINT_EQ_TOL
    lightlike = ((np.abs(n2) <= tol.eps_light * np.maximum(1.0, e2[2]))
                 & ~(equal | opposite))
    cp, cq = comp.take(_J, axis=1), comp.take(_K, axis=1)
    kinds = np.where(
        equal, _POINT, np.where(
            opposite | (cp != cq) | (cp < 0), _EMPTY, np.where(
                cp < _DE_SITTER, cp, np.where(
                    p <= -1.0, _EMPTY, np.where(
                        lightlike, _LIGHTLIKE,
                        np.where(p > 1.0, _TIMELIKE, _SPACELIKE))))))
    # arcosh(-p) on a sheet, where p <= -1, and arcosh p on a timelike side
    lengths = np.where(
        kinds == _SPACELIKE, np.arccos(np.minimum(np.maximum(p, -1.0), 1.0)),
        np.where(kinds == _EMPTY, math.inf, np.where(
            kinds >= _LIGHTLIKE, 0.0,  # lightlike and point sides
            np.arccosh(np.maximum(np.abs(p), 1.0)))))

    det = _dot(n[:, :, 2], X[:, :, 2])  # (A x B) . C
    scale = norms[:, 0] * norms[:, 1] * norms[:, 2]
    degenerate = np.abs(det) <= tol.eps_degen * scale

    family = _FAMILY_CODES[comp[:, 0], comp[:, 1], comp[:, 2]]
    proper = _KIND_CODES[kinds[:, 0], kinds[:, 1], kinds[:, 2]]
    spatiolateral = proper == _SPATIO_NC
    contractible = np.full(len(V), -1)
    if spatiolateral.any():  # the winding number, only where it is read
        u = X[1:]  # the x2-x3 projection of A -> B -> C -> A
        w = u.take(_NEXT, axis=2)
        sweep = np.arctan2(u[0] * w[1] - u[1] * w[0],
                           u[0] * w[0] + u[1] * w[1]).sum(axis=1)
        # |turns| <= 0.5 is round(turns) == 0, as halves round to even
        zero = np.where(degenerate, lengths.sum(axis=1) < 2.0 * math.pi,
                        np.abs(sweep / (2.0 * math.pi)) <= 0.5)
        contractible = np.where(spatiolateral, zero, -1)
        proper = np.where(spatiolateral & zero, _SPATIO_C, proper)
    law = np.where((family >= 0) & (family < _PROPER), 0, _LAW_CODES[proper])
    return _Rows(comp, kinds, lengths, lightlike, opposite, p, n2, det, scale,
                 degenerate, contractible, family, proper, law)


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
    return _inequality_report(*classify_triangle(t, tol))


def _inequality_report(cls: TriangleClass, sides) -> InequalityReport:
    """The triangle inequality report of a classification already made."""
    la, lb, lc = (s.length for s in sides)
    holds = (lb + lc >= la) and (la + lc >= lb) and (la + lb >= lc)
    return InequalityReport(
        holds=holds,
        lengths=(la, lb, lc),
        predicted=_predicted_inequality(cls, sides),
    )
