"""Laws of cosines, laws of sines, and sum theorems for the four triangle families.

Supported families: hyperbolic (and antipodal hyperbolic), spatiolateral
non-contractible, spatiolateral contractible, and tempolateral.  Their laws
differ only in which of cos/cosh and sin/sinh apply to sides and to angles and
in their sign patterns, so they are stated once, as rows of the ``_LAWS`` sign
table, and evaluated as residuals, never solved.

All of it runs as one array kernel, ``law_batch``, over vertex rows of shape
(N, 3, 3); ``trig_report`` is its N = 1 view.  The kernel reads each row's
law family, side lengths and products p = <<V, W>> and n2 = <<V x W, V x W>>
off the classification ``triangles._classify_rows`` makes of its rows, and
the rows themselves off the classification's copy of them.
``law_batch`` classifies the rows itself; ``verify --sample`` hands
``_law_rows`` the classification the sampler already made to accept the
rows, so each sampled row is classified once.

The kernel keeps the classifier's layout, rows last: the vertices are a
(coordinate, vertex, row) array, and each side, angle, residual and ratio is
a (side, vertex or equation, row) array, reduced over its rows elementwise.
``LawBatch`` holds their transposed views, of shape (N, 3) and (N,).

Each law family present is evaluated on its own rows with its ``_LAWS`` row
as constants: one cos/sin or cosh/sinh pair for the sides and one for the
angles, arccos or arcosh for the angles, and the apex or anchor search and
relabelling only for tempolateral and contractible spatiolateral rows.  A
batch of one law family, which every sampled batch of a law family and every
batch of one row is, is evaluated as it is, with no grouping.

The angles are measured as Minkowski products of the unit tangents built at
each vertex, normalised by sqrt|n2|.  The tempolateral apex and the
contractible spatiolateral anchor are the sign tests of
``triangles._positive_r`` and ``triangles._anchors`` on the vertex products
g_ij = <<Vi, Vj>>, the tests the classifier reads contractibility off.

A row that cannot be measured gets a status code in place of an exception;
``LawBatch.raise_first`` raises the error of the first such row.

The kernel's index and sign tables, ``_LAWS`` among them, are tuples, which
numpy reads as arrays where the kernel uses them, so importing the module
does not execute numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import triangles
from ._numpy import np
from .constants import EPS_CLAMP
from .errors import ClampError, DegenerateTriangle, OffSurfaceError, UnsupportedFamily
from .triangles import LawFamily, ProperKind, Triangle, TriangleFamily
from .triangles import _anchors, _classify_rows, _mink, _positive_r, _Rows


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


# A row's law family is its index in _FAMILIES, or -1 where it has none.
_FAMILIES = tuple(LawFamily)
_HYP, _SPATIO_NC, _SPATIO_C, _TEMPO = range(4)

# Row statuses.  A row that fails gets its first failure in this order: a
# vertex off the quadric, a degenerate triangle, a class without laws, no
# unique tempolateral apex, an angle beyond its clamp band, a vanishing
# law-of-sines denominator.
OFF_SURFACE, DEGENERATE, NO_LAWS, NOT_UNIQUE, CLAMP, SINE, OK = range(7)

# The tangents at vertex _TV toward _TW run along side _TS; tangents 2i and
# 2i + 1 are the legs of the angle at vertex i.
_TV, _TW, _TS = (0, 0, 1, 1, 2, 2), (1, 2, 0, 2, 0, 1), (2, 1, 2, 0, 1, 0)
# Relabelings that move vertex i to A, the others keeping their order.
_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))

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
_LAWS = (
    (1.0, 0.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0),  # HYP
    (0.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0),  # SPATIO_NC
    (0.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0),  # SPATIO_C
    (1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0),  # TEMPO
)
# The six equations, lcs a, b, c then lca a, b, c, over the six values sides
# a, b, c then angles alpha, beta, gamma: equation e reads value e, its two
# partners _EJ[e] and _EK[e], and the other group's value _SWAP[e].
_EJ, _EK, _SWAP = (1, 0, 0, 4, 3, 3), (2, 2, 1, 5, 5, 4), (3, 4, 5, 0, 1, 2)
_PRODUCT = (2, 2, 2, 3, 3, 3)  # the product sign column of each equation


def _vertex_hits(family: int, p):
    """Per vertex of rows of one law family, whether it is the tempolateral
    apex (r_i > 0) or the contractible anchor (r_j > 0 and r_k > 0)."""
    return np.array(_positive_r(p) if family == _TEMPO else _anchors(p))


def _angles(X, sheet: bool, p, n2):
    """Angles at A, B, C, each read off the Minkowski product of the unit
    tangents toward the other two vertices, and each row's clamp verdict, for
    rows on a hyperboloid sheet or rows on the de Sitter surface.  The sides
    of a law family are never lightlike, so every tangent is normalised by
    sqrt|n2|."""
    At, ps = X.take(_TV, axis=1), p.take(_TS, axis=0)
    coef = -ps if sheet else ps  # on a sheet B + pA, else B - pA
    norm = np.sqrt(np.abs(n2.take(_TS, axis=0)))
    T = X.take(_TW, axis=1)  # (B - coef A) / norm, in place
    T -= coef * At
    T /= norm
    prod = _mink(T[:, 0::2], T[:, 1::2])
    size = np.abs(prod)
    if sheet:
        angles = np.arccos(np.minimum(np.maximum(prod, -1.0), 1.0))
        beyond = size - 1.0 > EPS_CLAMP
    else:
        angles = np.arccosh(np.maximum(size, 1.0))
        beyond = 1.0 - size > EPS_CLAMP
    return angles, beyond[0] | beyond[1] | beyond[2]


def _cos_sin(x, hyperbolic: bool):
    return (np.cosh(x), np.sinh(x)) if hyperbolic else (np.cos(x), np.sin(x))


def _laws(law, sides, angles):
    """Residuals of the six law-of-cosines equations (sides a, b, c, then
    angles), the law-of-sines ratios, and where a ratio's denominator vanishes,
    for rows of the law family whose _LAWS row is law."""
    (sc, ss), (ac, sa) = _cos_sin(sides, law[0] > 0.0), _cos_sin(angles, law[1] > 0.0)
    c, s = np.concatenate((sc, ac)), np.concatenate((ss, sa))
    cj, ck = c.take(_EJ, axis=0), c.take(_EK, axis=0)
    sj, sk = s.take(_EJ, axis=0), s.take(_EK, axis=0)
    residuals = np.abs(c - (law[_PRODUCT, None] * cj * ck
                            + law[4:, None] * c.take(_SWAP, axis=0) * sj * sk))
    vanishing = np.abs(ss) < 1e-300
    return residuals, sa / ss, vanishing[0] | vanishing[1] | vanishing[2]


def _measure(family: int, X, p, n2, lengths):
    """Sides, angles, law residuals, sine ratios, vanishing and clamp verdicts
    and apex or anchor counts of rows of one law family.  Only tempolateral
    and contractible spatiolateral rows are searched for their apex or anchor
    and relabelled."""
    angles, clamp = _angles(X, family == _HYP, p, n2)
    if family in (_TEMPO, _SPATIO_C):
        hits = _vertex_hits(family, p)
        count, n = hits.sum(axis=0), len(hits[0])
        # each row's sides in its new order, the identity where no hits, as
        # indices into the flattened (3, N) arrays
        at = np.take(_ORDERS, np.argmax(hits, axis=0), axis=0).T * n + np.arange(n)
        lengths, angles = lengths.take(at), angles.take(at)
    else:
        count = np.zeros(len(clamp), dtype=np.intp)
    residuals, ratios, vanishing = _laws(np.array(_LAWS[family]), lengths, angles)
    return lengths, angles, residuals, ratios, vanishing, clamp, count


class LawBatch(NamedTuple):
    """Measurements and law residuals of N triangles, one row each.

    Rows whose status is not OK hold no meaningful values.  Sides and angles
    are in the family's canonical labeling: the tempolateral apex, the one
    vertex that sees the other two in opposite time directions (r_i > 0), is
    moved to A, and so is the contractible spatiolateral anchor, the vertex
    whose polar vertex sits alone on its hyperboloid sheet (r_j, r_k > 0),
    so that the polar side a' is not strange.  A spatiolateral row is
    contractible exactly when it has an anchor, and it has at most one, so
    only a tempolateral row can fail for want of a unique apex.
    """

    status: np.ndarray  # (N,) status codes
    family: np.ndarray  # (N,) law family codes, indices into LawFamily or -1
    sides: np.ndarray  # (N, 3)
    angles: np.ndarray  # (N, 3)
    lcs: np.ndarray  # (N, 3) law-of-cosines-for-sides residuals
    lca: np.ndarray  # (N, 3) law-of-cosines-for-angles residuals
    ratios: np.ndarray  # (N, 3) law-of-sines ratios
    max_residual: np.ndarray  # (N,) as TrigReport.max_residual
    hits: np.ndarray  # (N,) apex or anchor candidates found
    classes: _Rows  # the classification the law families were read off

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
        """Raise the error of the first row that is not OK, if any."""
        bad = np.flatnonzero(self.status != OK)
        if not bad.size:
            return
        i = int(bad[0])
        status = self.status[i]
        c = self.classes
        if status == OFF_SURFACE:
            vertex = "ABC"[int(np.argmax(c.components[i] < 0))]
            raise OffSurfaceError(f"vertex {vertex} of row {i} is off the unit quadric")
        if status == DEGENERATE:
            raise DegenerateTriangle("trig laws are stated for non-degenerate triangles")
        if status == NO_LAWS:
            kind = int(c.proper_kind[i])
            names = [tuple(TriangleFamily)[c.family[i]].value]
            if kind >= 0:
                names.append(tuple(ProperKind)[kind].value)
            raise UnsupportedFamily(f"no trig laws for {'/'.join(names)} triangles")
        if status == NOT_UNIQUE:
            raise DegenerateTriangle(
                f"expected one apex vertex, found {int(self.hits[i])}")
        if status == CLAMP:
            raise ClampError("an angle's arccos/arcosh argument is beyond the clamp band")
        raise DegenerateTriangle("law of sines has a vanishing denominator")


def law_batch(vertices) -> LawBatch:
    """Classify and measure N triangles and evaluate their laws.

    ``vertices`` has shape (N, 3, 3): row n holds the coordinates of A, B and
    C.  Each row is measured in the law family its classification reads off;
    a row with a vertex off the quadric (NaN and infinite coordinates
    included), a degenerate row and a row of a class without laws get their
    own status, and no values.
    """
    V = np.asarray(vertices, dtype=float).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):
        c = _classify_rows(V)
    return _law_rows(c)


def _law_rows(c: _Rows) -> LawBatch:
    """law_batch of the rows c.vertices, whose classification c is already
    made.  A batch of one law family, which every batch of one row and every
    sampled batch of a law family is, is measured as it is; other batches are
    measured one law family at a time, and their rows without laws are left
    NaN."""
    family, n = c.law, len(c.law)
    X, p, n2, lengths = c.vertices.T, c.p.T, c.n2.T, c.lengths.T
    with np.errstate(all="ignore"):  # rows that are not OK may compute anything
        if n and family.min() == family.max() >= 0:
            parts = _measure(int(family[0]), X, p, n2, lengths)
        else:
            parts = (np.full((3, n), math.nan), np.full((3, n), math.nan),
                     np.full((6, n), math.nan), np.full((3, n), math.nan),
                     np.zeros(n, dtype=bool), np.zeros(n, dtype=bool),
                     np.zeros(n, dtype=np.intp))
            for f in range(len(_FAMILIES)):
                rows = np.flatnonzero(family == f)
                if rows.size:
                    own = (x.take(rows, axis=-1) for x in (X, p, n2, lengths))
                    for whole, values in zip(parts, _measure(f, *own)):
                        whole[..., rows] = values
        sides, angles, residuals, ratios, vanishing, angle_clamp, count = parts
        spread = np.abs(ratios - ratios.take(triangles._NEXT, axis=0))
        max_residual = np.maximum(residuals.max(axis=0), spread.max(axis=0))

    failures = np.array([c.family < 0, c.degenerate, family < 0,
                         (family == _TEMPO) & (count != 1),
                         angle_clamp, vanishing, np.ones(n, dtype=bool)])
    status = np.argmax(failures, axis=0)  # the first that holds, in status order
    return LawBatch(status, family, sides.T, angles.T, residuals[:3].T,
                    residuals[3:].T, ratios.T, max_residual, count, c)


def trig_report(t: Triangle) -> TrigReport:
    """The laws of one triangle: law_batch on its one row."""
    b = law_batch([[v.coords.as_tuple() for v in t.vertices()]])
    b.raise_first()
    return TrigReport(
        family=_FAMILIES[int(b.family[0])],
        lcs_residuals=tuple(b.lcs[0].tolist()),
        lca_residuals=tuple(b.lca[0].tolist()),
        sines_ratios=tuple(b.ratios[0].tolist()),
        angle_sum=b.angle_sums()[0],
        side_sum=b.side_sums()[0],
    )
