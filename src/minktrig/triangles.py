"""Triangle taxonomy, degeneracy, contractibility, and triangle-inequality reports.

A triangle is any three pairwise-distinct points of the unit quadric.  Side
``a`` joins B and C, side ``b`` joins A and C, side ``c`` joins A and B.

Each public call builds the triangle's geometry once: the three sides, each
read off its product p = <<V, W>> and n2 = <<V x W, V x W>> by the one rule
of ``surfaces``, and det(A, B, C).  Side kinds, lengths, the lightlike-plane and
opposite-vertex flags, degeneracy and contractibility are all read off it.
A spatiolateral triangle is contractible exactly when it has a polar anchor,
a sign test on the three products p (``_anchors``), which ``trig`` also
relabels contractible triangles by.

``_classify_rows`` is the same classification over vertex rows of shape
(N, 3, 3), as arrays of codes, one row per triangle.  It also reads off each
row's law family, the trigonometry the row obeys (``LawFamily``), which
``trig.law_batch`` measures it in, and the samplers accept candidate rows by
it.  Rows need not be triangles: a vertex off the quadric is flagged, and
equal vertices make a degenerate row.  The scalar ``_classify`` stays for
single triangles, where it is the faster of the two, and is the array
rule's reference in the tests.

The array rules lay a batch out rows last.  The rows are copied once into X,
of shape (coordinate, vertex, row), so that X[0], X[1] and X[2] are the x1,
x2 and x3 arrays of a stack of vectors, and each value per side or per vertex
is a (side or vertex, row) array: its rows are contiguous, and a reduction
over its three sides is elementwise.  The classification's (N, 3) and (N,)
fields are transposed views of these arrays.

The scalar rules run without numpy.  The array rules' index and code tables
are built on the first array call (``_tables``), and numpy is loaded then
(``_numpy``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from ._numpy import np
from .constants import _POINT_EQ_TOL, EPS_DEGEN, EPS_LIGHT, EPS_SURF
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


@dataclass(frozen=True, slots=True)
class Triangle:
    A: SurfacePoint
    B: SurfacePoint
    C: SurfacePoint

    def __post_init__(self):
        pairs = ((self.A, self.B), (self.A, self.C), (self.B, self.C))
        if any(points_equal(p, q) for p, q in pairs):
            raise DuplicateVertices("triangle vertices must be pairwise distinct")

    @classmethod
    def from_vectors(cls, a: MVec3, b: MVec3, c: MVec3) -> "Triangle":
        return cls(surface_point(a), surface_point(b), surface_point(c))

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


def _geometry(t: Triangle) -> _Geometry:
    sides = tuple(_side(p, q) for p, q in t.side_endpoints())
    A, B, C = (v.coords for v in t.vertices())
    det = euclid_dot(sides[2].cross, C)  # det(A, B, C) = (A x B) . C
    scale = A.euclid_norm() * B.euclid_norm() * C.euclid_norm()
    return _Geometry(sides, det, abs(det) <= EPS_DEGEN * scale)


def _positive_r(p):
    """Whether r_i = g_jk - g_ij g_ik > 0 at vertices A, B, C, for the
    products p = (g_BC, g_AC, g_AB) of sides a, b, c: floats for one triangle
    or (N,) arrays for N.  On the de Sitter surface r_i is, up to positive
    factors, the product of the tangents at Vi toward Vj and Vk, and also the
    (j, k) entry of the polar triangle's Gram matrix.  The tempolateral apex
    is the one vertex with r_i > 0."""
    a, b, c = p
    return a - b * c > 0.0, b - a * c > 0.0, c - a * b > 0.0


def _anchors(p):
    """Whether A, B, C are polar anchors, r_j > 0 and r_k > 0: the polar
    vertex of an anchor lies alone on its hyperboloid sheet.  Every polar
    vertex of a spatiolateral triangle lies on a sheet, and an even number of
    polar sides joins the two sheets, so 0 or 2 of the r_i are positive and a
    triangle has no anchor or one.  It has one exactly when its polar is
    strange on sheets, that is when it is contractible."""
    ra, rb, rc = _positive_r(p)
    return rb & rc, ra & rc, ra & rb


def is_contractible(t: Triangle) -> bool:
    """True when the triangle has a polar anchor (_anchors)."""
    cls, _, _ = _classify(t)
    if cls.contractible is None:
        raise NotSpatiolateral("contractibility is defined for spatiolateral triangles")
    if cls.degenerate:
        raise DegenerateTriangle("contractibility is undefined for degenerate triangles")
    return cls.contractible


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


# The labels of a triangle's empty sides, by whether sides a, b and c are
# empty.
_IMPOSSIBLE = {
    (False, False, False): (), (True, False, False): ("a",),
    (False, True, False): ("b",), (False, False, True): ("c",),
    (True, True, False): ("a", "b"), (True, False, True): ("a", "c"),
    (False, True, True): ("b", "c"), (True, True, True): ("a", "b", "c"),
}


def classify_triangle(t: Triangle):
    """Classify a triangle; returns (TriangleClass, [SideReport])."""
    cls, sides, _ = _classify(t)
    return cls, sides


def _classify(t: Triangle):
    """classify_triangle, plus the geometry it was read off.  The three
    sides are read once into locals, and each verdict over them is written
    out side by side."""
    comps = ca, cb, cc = t.A.component, t.B.component, t.C.component
    if ca is not cb or cb is not cc:
        family = TriangleFamily.STRANGE
    elif ca is Component.H2:
        family = TriangleFamily.HYPERBOLIC
    elif ca is Component.NEG_H2:
        family = TriangleFamily.ANTIPODAL_HYPERBOLIC
    else:
        family = TriangleFamily.PROPER

    g = _geometry(t)
    sa, sb, sc = g.sides
    ka, kb, kc = sa.kind, sb.kind, sc.kind
    sides = [SideReport("a", ka, sa.length), SideReport("b", kb, sb.length),
             SideReport("c", kc, sc.length)]
    empty = SegmentKind.EMPTY
    impossible = _IMPOSSIBLE[ka is empty, kb is empty, kc is empty]

    proper_kind = None
    contractible = None
    if family is TriangleFamily.PROPER and not impossible:
        spacelike = SegmentKind.DE_SITTER_SPACELIKE
        timelike = SegmentKind.DE_SITTER_TIMELIKE
        lightlike = SegmentKind.DE_SITTER_LIGHTLIKE
        counts = (
            (ka is spacelike) + (kb is spacelike) + (kc is spacelike),
            (ka is timelike) + (kb is timelike) + (kc is timelike),
            (ka is lightlike) + (kb is lightlike) + (kc is lightlike),
        )
        proper_kind = _KIND_TABLE[counts]
        if counts == (3, 0, 0):
            anchor_a, anchor_b, anchor_c = _anchors((sa.p, sb.p, sc.p))
            contractible = anchor_a or anchor_b or anchor_c
            proper_kind = (
                ProperKind.SPATIOLATERAL_CONTRACTIBLE
                if contractible
                else ProperKind.SPATIOLATERAL_NONCONTRACTIBLE
            )

    cls = TriangleClass(
        family=family,
        proper_kind=proper_kind,
        side_kinds=(ka, kb, kc),
        impossible_sides=impossible,
        degenerate=g.degenerate,
        contractible=contractible,
        vertex_components=comps,
        has_opposite_vertices=sa.opposite or sb.opposite or sc.opposite,
        has_lightlike_side_plane=sa.lightlike or sb.lightlike or sc.lightlike,
    )
    return cls, sides, g


# -- the array classifier ------------------------------------------------------

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
_LAW_NAMES = [f.value for f in LawFamily]

# The index and code arrays of _classify_rows, which _tables builds on the
# first array call; __getattr__ serves them by name before that.
_TABLES = ("_J", "_K", "_NEXT", "_AFTER", "_FAMILY_CODES", "_KIND_CODES", "_LAW_CODES")


@functools.cache
def _tables() -> None:
    """Build the arrays named in _TABLES as module globals, once."""
    global _J, _K, _NEXT, _AFTER, _FAMILY_CODES, _KIND_CODES, _LAW_CODES
    # Side i joins vertices _J[i] and _K[i] (a = BC, b = AC, c = AB); the same
    # index pairs give, for each i, the other two indices j < k.
    _J = np.array([1, 0, 0])
    _K = np.array([2, 2, 1])
    # Each index's successor and the one after, mod 3: cross product
    # components are (x x y)_m = x_{m+1} y_{m+2} - x_{m+2} y_{m+1}.
    _NEXT = np.array([1, 2, 0])
    _AFTER = np.array([2, 0, 1])
    # The triangle family of three component codes (-1 reads an axis's last
    # entry).
    _FAMILY_CODES = np.full((4, 4, 4), _STRANGE)
    _FAMILY_CODES[-1, :, :] = _FAMILY_CODES[:, -1, :] = _FAMILY_CODES[:, :, -1] = -1
    _FAMILY_CODES[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = [0, 1, 2]
    # _KIND_TABLE on the kinds of sides a, b, c, -1 unless all three are de
    # Sitter kinds (consecutive in SegmentKind); spatiolateral rows read
    # non-contractible until their anchors are read.
    _KIND_CODES = np.full((len(_KINDS),) * 3, -1)
    for sides in np.ndindex(3, 3, 3):
        kind = _KIND_TABLE[tuple(sides.count(i) for i in range(3))]
        _KIND_CODES[tuple(_SPACELIKE + i for i in sides)] = _PROPER_KINDS.index(
            kind or ProperKind.SPATIOLATERAL_NONCONTRACTIBLE)
    # The law family of each proper kind (the one of the same name), -1 for
    # none, also at index -1.  Rows of the hyperbolic families are HYP, code 0.
    _LAW_CODES = np.array([_LAW_NAMES.index(k.value) if k.value in _LAW_NAMES else -1
                           for k in ProperKind] + [-1])


def __getattr__(name):
    """The arrays of _TABLES by name (PEP 562), built on first use."""
    if name not in _TABLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _tables()
    return globals()[name]


def _mink(x, y):
    """<<x, y>>, in the order of mink.minkowski_product."""
    return x[1] * y[1] - x[0] * y[0] + x[2] * y[2]


def _dot(x, y):
    """x . y, in the order of mink.euclid_dot, summed in place to hold one
    temporary fewer."""
    d = x[0] * y[0]
    d += x[1] * y[1]
    d += x[2] * y[2]
    return d


class _Rows(NamedTuple):
    """_classify of N triangles as code arrays, one row each.  The codes of a
    row off the quadric mean nothing beyond its family code, -1.  Each field
    is the transposed view of a C-contiguous array with rows on its last
    axis, such as the (3, N) array of a per-side value."""

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
    family: np.ndarray  # (N,) TriangleFamily codes, -1 off the quadric
    proper_kind: np.ndarray  # (N,) ProperKind codes
    law: np.ndarray  # (N,) LawFamily codes
    vertices: np.ndarray  # (N, 3, 3) the rows themselves, a view of X


def _classify_rows(V) -> _Rows:
    """_classify of each row of V, shape (N, 3, 3), by the same rules: the
    component bands of surfaces.classify_point (for q < 0, ||q| - 1| is
    |q + 1| exactly), the side rule of surfaces._side, the det band of
    _geometry, _KIND_TABLE, and contractibility by _anchors."""
    _tables()
    X = np.ascontiguousarray(V.T)  # coordinate, vertex, row
    q = _mink(X, X)
    comp = np.where(np.abs(np.abs(q) - 1.0) <= EPS_SURF,
                    np.where(q > 0.0, _DE_SITTER, X[0] <= 0.0), -1)
    P, Q = X.take(_J, axis=1), X.take(_K, axis=1)  # the ends of sides a, b, c
    n = (P.take(_NEXT, axis=0) * Q.take(_AFTER, axis=0)
         - P.take(_AFTER, axis=0) * Q.take(_NEXT, axis=0))  # P x Q
    p, n2 = _mink(P, Q), _mink(n, n)
    # |P - Q|^2, |P + Q|^2, |n|^2 and |V|^2 in one pass
    E = np.concatenate((P - Q, P + Q, n, X), axis=1)
    e2 = _dot(E, E).reshape(4, 3, -1)
    equal, opposite, _, norms = np.sqrt(e2)
    equal, opposite = equal <= _POINT_EQ_TOL, opposite <= _POINT_EQ_TOL
    lightlike = (np.abs(n2) <= EPS_LIGHT * e2[2]) & ~(equal | opposite)
    cp, cq = comp.take(_J, axis=0), comp.take(_K, axis=0)
    kinds = np.where(
        equal, _POINT, np.where(
            opposite | (cp != cq) | (cp < 0), _EMPTY, np.where(
                cp < _DE_SITTER, cp, np.where(
                    p <= -1.0, _EMPTY, np.where(
                        lightlike, _LIGHTLIKE,
                        np.where(n2 > 0.0, _TIMELIKE, _SPACELIKE))))))
    # arcosh(-p) on a sheet, where p <= -1, and arcosh p on a timelike side
    lengths = np.where(
        kinds == _SPACELIKE, np.arccos(np.minimum(np.maximum(p, -1.0), 1.0)),
        np.where(kinds == _EMPTY, math.inf, np.where(
            kinds >= _LIGHTLIKE, 0.0,  # lightlike and point sides
            np.arccosh(np.maximum(np.abs(p), 1.0)))))

    det = _dot(n[:, 2], X[:, 2])  # (A x B) . C
    scale = norms[0] * norms[1] * norms[2]
    degenerate = np.abs(det) <= EPS_DEGEN * scale

    family = _FAMILY_CODES[comp[0], comp[1], comp[2]]
    proper = _KIND_CODES[kinds[0], kinds[1], kinds[2]]
    spatiolateral = proper == _SPATIO_NC
    if spatiolateral.any():  # the anchors, only where they are read
        a, b, c = _anchors(p)
        proper = np.where(spatiolateral & (a | b | c), _SPATIO_C, proper)
    law = np.where((family >= 0) & (family < _PROPER), 0, _LAW_CODES[proper])
    return _Rows(comp.T, kinds.T, lengths.T, lightlike.T, opposite.T, p.T, n2.T, det,
                 scale, degenerate, family, proper, law, X.T)


@dataclass(frozen=True)
class InequalityReport:
    holds: bool
    lengths: tuple  # lengths in side order a, b, c
    predicted: Optional[bool]


_ISOSCELES_TOL = 1e-9


def _predicted_inequality(cls: TriangleClass, la: float, lb: float,
                          lc: float) -> Optional[bool]:
    """Whether the triangle inequality is predicted to hold for a class with
    side lengths la, lb and lc, or None where it holds only case by case."""
    if cls.degenerate:
        return True
    # hyperbolic triangles obey it; a strange triangle's vertices lie on two or
    # more components, so two or more of its sides are infinite
    if cls.family is not TriangleFamily.PROPER:
        return True
    if cls.impossible_sides:
        return math.isinf(la) + math.isinf(lb) + math.isinf(lc) >= 2
    pk = cls.proper_kind
    if pk is ProperKind.TEMPOLATERAL:
        return False
    if pk is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE:
        return True
    if pk is ProperKind.SPATIOLATERAL_CONTRACTIBLE:
        return False
    if pk is ProperKind.LUCILATERAL:
        return True
    if (pk is ProperKind.PHOTOSCELES_SPACELIKE_BASE
            or pk is ProperKind.PHOTOSCELES_TIMELIKE_BASE):
        return False
    if (pk is ProperKind.BIMETRICAL_CHOROSCELES
            or pk is ProperKind.BIMETRICAL_CHRONOSCELES):
        # the two sides of positive length, if two there are, are equal
        measurable = [x for x in (la, lb, lc) if x > 0.0]
        if len(measurable) != 2:
            return None
        return abs(measurable[0] - measurable[1]) <= _ISOSCELES_TOL
    # chorosceles, chronosceles, multiple: the inequality holds only case by case
    return None


def triangle_inequality_report(t: Triangle) -> InequalityReport:
    return _inequality_report(*classify_triangle(t))


def _inequality_report(cls: TriangleClass, sides) -> InequalityReport:
    """The triangle inequality report of a classification already made."""
    a, b, c = sides
    la, lb, lc = a.length, b.length, c.length
    holds = (lb + lc >= la) and (la + lc >= lb) and (la + lb >= lc)
    return InequalityReport(
        holds=holds,
        lengths=(la, lb, lc),
        predicted=_predicted_inequality(cls, la, lb, lc),
    )
