"""Seeded random generation of points, segments, and triangles by family.

Families with measure-zero lightlike structure (lucilateral, photosceles,
bimetrical, multiple) are built constructively from lightlike rays at e2 and
then moved by a random Lorentz map; rejection sampling alone cannot reach
them.  Every emitted triangle is validated against the classifier before it
is returned.

The five families that have trig laws (hyperbolic, antipodal hyperbolic, both
spatiolateral kinds, tempolateral) are drawn in blocks of candidate rows and
accepted with array versions of the classifier's checks, sized from the rows
still needed; ``_sample_rows`` returns their vertex arrays and
``sample_triangle`` wraps them into triangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .constants import DEFAULT_TOL, Tolerances
from .errors import (
    EmptySegment,
    LightlikeSegment,
    MinkTrigError,
    ParamOutOfRange,
    RejectionBudgetExhausted,
    UnsupportedFamily,
)
from .mink import E2, MVec3, apply_matrix, random_lorentz
from .surfaces import (
    _POINT_EQ_TOL,
    Component,
    SegmentKind,
    SurfacePoint,
    distance,
    segment_kind,
    surface_point,
    tangent_vector,
)
from .triangles import ProperKind, Triangle, TriangleFamily, _classify, _Geometry
from .trig import _FAMILIES, _J, _K, _NEXT, LawFamily, _lengths, _mink, _products

# sampleable family names, used by SampleSpec and the CLI
FAMILIES = (
    "hyperbolic",
    "antipodal_hyperbolic",
    "spatiolateral_contractible",
    "spatiolateral_noncontractible",
    "tempolateral",
    "chorosceles",
    "chronosceles",
    "lucilateral",
    "bimetrical_chorosceles",
    "bimetrical_chronosceles",
    "photosceles_spacelike_base",
    "photosceles_timelike_base",
    "multiple",
    "strange",
    "impossible",
    "mixed",
)


@dataclass(frozen=True)
class SampleSpec:
    family: str
    count: int
    seed: int
    max_rapidity: float = 3.0
    rejection_budget: int = 1_000_000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        if self.count < 1:
            raise ParamOutOfRange(f"count must be at least 1, got {self.count}")


def sample_point(
    component: Component,
    rng: np.random.Generator,
    max_rapidity: float = 3.0,
    tol: Tolerances = DEFAULT_TOL,
) -> SurfacePoint:
    """Point on the requested component, uniform in (rapidity, angle) parameters."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if component is Component.DE_SITTER:
        v = rng.uniform(-max_rapidity, max_rapidity)
        x = MVec3(math.sinh(v), math.cosh(v) * math.cos(theta),
                  math.cosh(v) * math.sin(theta))
    else:
        u = rng.uniform(0.0, max_rapidity)
        x = MVec3(math.cosh(u), math.sinh(u) * math.cos(theta),
                  math.sinh(u) * math.sin(theta))
        if component is Component.NEG_H2:
            x = -x
    return surface_point(x, tol)


def _well_conditioned(t: Triangle, g: _Geometry) -> bool:
    """Reject triangles too close to degeneracy for 1e-9 residual targets."""
    A, B, C = (v.coords for v in t.vertices())
    scale = A.euclid_norm() * B.euclid_norm() * C.euclid_norm()
    if abs(g.det) < 1e-3 * scale:
        return False
    for s in g.sides:
        d = s.length
        if math.isfinite(d) and d < 0.05:
            return False
        if s.kind is SegmentKind.DE_SITTER_SPACELIKE and d > math.pi - 0.05:
            return False
    return True


def _de_sitter_near_throat(rng, theta: float, v_lo: float, v_hi: float,
                           tol: Tolerances) -> SurfacePoint:
    v = rng.uniform(v_lo, v_hi) * (1.0 if rng.random() < 0.5 else -1.0)
    return surface_point(
        MVec3(math.sinh(v), math.cosh(v) * math.cos(theta),
              math.cosh(v) * math.sin(theta)),
        tol,
    )


def _lightlike_ray_point(t: float, plus: bool) -> MVec3:
    """e2 + t(e1 +- e3); stays on the Lorentzian component for every t."""
    return MVec3(t, 1.0, t if plus else -t)


class _Budget:
    def __init__(self, spec: SampleSpec):
        self.spec = spec
        self.attempts = 0
        self.accepted = 0

    def spend(self):
        self.attempts += 1
        if self.attempts > self.spec.rejection_budget:
            raise RejectionBudgetExhausted(
                self.spec.family, self.attempts - 1, self.accepted
            )


def _sceles_candidate(rng, spec, tol):
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=3)
    pts = [_de_sitter_near_throat(rng, float(th), 0.1, 1.2, tol) for th in thetas]
    return Triangle(*pts)


def _photosceles_candidate(rng, spec, tol):
    t1 = rng.uniform(0.3, 1.5)
    if spec.family == "photosceles_timelike_base":
        t2 = -rng.uniform(0.3, 1.5)
    elif spec.family == "photosceles_spacelike_base":
        t2 = rng.uniform(0.1, 0.9) / t1
    elif spec.family == "lucilateral":
        # all three sides lightlike forces collinear points on one ruling
        t2 = -rng.uniform(0.3, 1.5)
    else:
        raise UnsupportedFamily(spec.family)
    a = E2
    b = _lightlike_ray_point(t1, plus=True)
    c = _lightlike_ray_point(t2, plus=(spec.family == "lucilateral"))
    m = random_lorentz(rng, orthochronous=True,
                       max_rapidity=min(spec.max_rapidity, 1.0))
    return Triangle.from_vectors(
        apply_matrix(m, a), apply_matrix(m, b), apply_matrix(m, c), tol
    )


def _one_lightlike_candidate(rng, spec, tol):
    # one lightlike side (A, B); the third vertex decides the remaining kinds
    t1 = rng.uniform(0.3, 1.5) * (1.0 if rng.random() < 0.5 else -1.0)
    a = E2
    b = _lightlike_ray_point(t1, plus=True)
    c = _de_sitter_near_throat(rng, rng.uniform(0.0, 2.0 * math.pi), 0.05, 1.2, tol)
    m = random_lorentz(rng, orthochronous=True,
                       max_rapidity=min(spec.max_rapidity, 1.0))
    return Triangle.from_vectors(
        apply_matrix(m, a), apply_matrix(m, b), apply_matrix(m, c.coords), tol
    )


def _strange_candidate(rng, spec, tol):
    comps = [Component.H2, Component.NEG_H2, Component.DE_SITTER]
    picks = [comps[i] for i in rng.integers(0, 3, size=3)]
    if len(set(picks)) == 1:
        picks[rng.integers(0, 3)] = comps[(comps.index(picks[0]) + 1) % 3]
    cap = min(spec.max_rapidity, 1.5)
    return Triangle(*(sample_point(p, rng, cap, tol) for p in picks))


def _impossible_candidate(rng, spec, tol):
    # widely separated de Sitter points make empty sides likely
    pts = [sample_point(Component.DE_SITTER, rng, min(spec.max_rapidity, 2.0), tol)
           for _ in range(3)]
    return Triangle(*pts)


def _accepts(spec: SampleSpec, t: Triangle, tol: Tolerances) -> bool:
    cls, _, g = _classify(t, tol)
    fam = spec.family
    if fam == "strange":
        return cls.family is TriangleFamily.STRANGE
    if fam == "impossible":
        return bool(cls.impossible_sides)
    if fam == "hyperbolic":
        ok = cls.family is TriangleFamily.HYPERBOLIC
    elif fam == "antipodal_hyperbolic":
        ok = cls.family is TriangleFamily.ANTIPODAL_HYPERBOLIC
    elif fam == "lucilateral":
        # lucilateral triangles are degenerate by construction; keep them
        return cls.proper_kind is ProperKind.LUCILATERAL
    else:
        ok = cls.proper_kind is ProperKind(fam)
    if not ok:
        return False
    if cls.degenerate:
        return False
    if fam in ("photosceles_spacelike_base", "photosceles_timelike_base",
               "bimetrical_chorosceles", "bimetrical_chronosceles", "multiple"):
        return True  # lightlike sides defeat the generic conditioning guard
    return _well_conditioned(t, g)


_CANDIDATES: dict = {
    "chorosceles": _sceles_candidate,
    "chronosceles": _sceles_candidate,
    "lucilateral": _photosceles_candidate,
    "photosceles_spacelike_base": _photosceles_candidate,
    "photosceles_timelike_base": _photosceles_candidate,
    "bimetrical_chorosceles": _one_lightlike_candidate,
    "bimetrical_chronosceles": _one_lightlike_candidate,
    "multiple": _one_lightlike_candidate,
    "strange": _strange_candidate,
    "impossible": _impossible_candidate,
}


def sample_triangle(spec: SampleSpec, tol: Tolerances = DEFAULT_TOL) -> List[Triangle]:
    """Batch of triangles whose classification matches spec.family."""
    if spec.family in _BLOCK_KINDS:
        return [Triangle.from_vectors(*(MVec3(*v) for v in row), tol)
                for row in _sample_rows(spec, tol)[0].tolist()]
    rng = np.random.default_rng(spec.seed)
    if spec.family == "mixed":
        return _sample_mixed(spec, rng, tol)
    maker = _CANDIDATES[spec.family]
    budget = _Budget(spec)
    out: List[Triangle] = []
    while len(out) < spec.count:
        budget.spend()
        try:
            t = maker(rng, spec, tol)
        except MinkTrigError:
            continue
        if _accepts(spec, t, tol):
            out.append(t)
            budget.accepted += 1
    return out


def _sample_mixed(spec: SampleSpec, rng, tol) -> List[Triangle]:
    """Row i is of family pool[i % len(pool)] and draws the i-th seed.  A row
    of the other families is one triangle sampled from its seed; the rows of
    each block-sampled family are one block, from the seed of its first row,
    so the other families' rows do not depend on how the blocks are drawn."""
    pool = [f for f in FAMILIES if f not in ("mixed",)]
    rows = [(pool[i % len(pool)], int(rng.integers(0, 2**32)))
            for i in range(spec.count)]

    def sub(family, count, seed):
        return sample_triangle(SampleSpec(
            family=family, count=count, seed=seed,
            max_rapidity=spec.max_rapidity, rejection_budget=spec.rejection_budget,
        ), tol)

    blocks = {}
    for family in _BLOCK_KINDS:
        seeds = [seed for f, seed in rows if f == family]
        if seeds:
            blocks[family] = iter(sub(family, len(seeds), seeds[0]))
    return [next(blocks[f]) if f in blocks else sub(f, 1, seed)[0]
            for f, seed in rows]


# -- block sampling of the law families --------------------------------------

# The side kind all three sides of each block-sampled family have, and the law
# family its triangles are measured in.
_BLOCK_KINDS = {
    "hyperbolic": (SegmentKind.HYPERBOLIC, LawFamily.HYP),
    "antipodal_hyperbolic": (SegmentKind.ANTIPODAL_HYPERBOLIC, LawFamily.HYP),
    "spatiolateral_contractible": (SegmentKind.DE_SITTER_SPACELIKE,
                                   LawFamily.SPATIO_C),
    "spatiolateral_noncontractible": (SegmentKind.DE_SITTER_SPACELIKE,
                                      LawFamily.SPATIO_NC),
    "tempolateral": (SegmentKind.DE_SITTER_TIMELIKE, LawFamily.TEMPO),
}
# Arrays code a side kind as its index in SegmentKind, and a vertex component
# as 0 (H2), 1 (NEG_H2), 2 (de Sitter) or -1 (off the quadric): the two sheet
# codes are those of the HYPERBOLIC and ANTIPODAL_HYPERBOLIC kinds.
_KINDS = tuple(SegmentKind)
_SPACELIKE, _TIMELIKE, _LIGHTLIKE, _POINT, _EMPTY = (_KINDS.index(k) for k in (
    SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE,
    SegmentKind.DE_SITTER_LIGHTLIKE, SegmentKind.POINT, SegmentKind.EMPTY))
_DE_SITTER = 2


def _components(V, tol: Tolerances):
    """classify_point of each vertex, as a component code.  For q < 0,
    |(|q|) - 1| is |q + 1| exactly."""
    q = _mink(V, V)
    return np.where(np.abs(np.abs(q) - 1.0) <= tol.eps_surf,
                    np.where(q > 0.0, _DE_SITTER, V[..., 0] <= 0.0), -1)


def _side_kinds(V, comp, p, n, n2, tol: Tolerances):
    """SegmentKind codes (indices into SegmentKind) of each row's sides a, b, c,
    by the rule of surfaces._side."""
    P, Q = V[:, _J], V[:, _K]
    cp, cq = comp[:, _J], comp[:, _K]
    d, s = P - Q, P + Q
    equal = np.sqrt((d * d).sum(axis=-1)) <= _POINT_EQ_TOL
    opposite = np.sqrt((s * s).sum(axis=-1)) <= _POINT_EQ_TOL
    lightlike = np.abs(n2) <= tol.eps_light * np.maximum(1.0, (n * n).sum(axis=-1))
    return np.where(
        equal, _POINT, np.where(
            opposite | (cp != cq) | (cp < 0), _EMPTY, np.where(
                cp < _DE_SITTER, cp, np.where(
                    p <= -1.0, _EMPTY, np.where(
                        lightlike, _LIGHTLIKE,
                        np.where(p > 1.0, _TIMELIKE, _SPACELIKE))))))


def _winding_number(V):
    """triangles._winding_number of each row: the turns of the x2-x3 projection
    of the loop A -> B -> C -> A about the origin."""
    u = V[..., 1:]
    w = u[:, _NEXT]
    sweep = np.arctan2(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0],
                       (u * w).sum(axis=-1))
    return np.round(sweep.sum(axis=1) / (2.0 * math.pi))


def _accept_rows(spec: SampleSpec, V, tol: Tolerances):
    """Which candidate rows _accepts would take: every vertex on the quadric,
    pairwise distinct, all three sides of the family's kind, the winding
    number of its contractibility, outside the det band and
    _well_conditioned."""
    kind, family = _BLOCK_KINDS[spec.family]
    p, n, n2 = _products(V)
    kinds = _side_kinds(V, _components(V, tol), p, n, n2, tol)
    ok = (kinds == _KINDS.index(kind)).all(axis=1)
    if kind is SegmentKind.DE_SITTER_SPACELIKE:
        ok &= (_winding_number(V) == 0) == (family is LawFamily.SPATIO_C)
    det = np.abs((n[:, 2] * V[:, 2]).sum(axis=-1))  # |det(A, B, C)|
    scale = np.sqrt((V * V).sum(axis=-1)).prod(axis=-1)
    ok &= (det > tol.eps_degen * scale) & (det >= 1e-3 * scale)
    lengths = _lengths(p, np.full(len(V), _FAMILIES.index(family)))
    ok &= (lengths >= 0.05).all(axis=1)
    if kind is SegmentKind.DE_SITTER_SPACELIKE:
        ok &= (lengths <= math.pi - 0.05).all(axis=1)
    return ok


def _rotations(theta):
    """Rotations by theta in the x2-x3 plane, stacked."""
    m = np.zeros(theta.shape + (3, 3))
    c, s = np.cos(theta), np.sin(theta)
    m[:, 0, 0] = 1.0
    m[:, 1, 1], m[:, 1, 2], m[:, 2, 1], m[:, 2, 2] = c, -s, s, c
    return m


def _lorentz_rows(rng, size: int, max_rapidity: float):
    """Stacked rotation-boost-rotation maps, as mink.random_lorentz draws them."""
    r1 = _rotations(rng.uniform(0.0, 2.0 * math.pi, size))
    r2 = _rotations(rng.uniform(0.0, 2.0 * math.pi, size))
    eta = rng.uniform(0.0, max_rapidity, size)
    b = np.zeros((size, 3, 3))
    b[:, 0, 0] = b[:, 1, 1] = np.cosh(eta)
    b[:, 0, 1] = b[:, 1, 0] = np.sinh(eta)
    b[:, 2, 2] = 1.0
    return r1 @ b @ r2


def _hyperbolic_rows(rng, spec: SampleSpec, size: int):
    u = rng.uniform(0.0, min(spec.max_rapidity, 1.5), (size, 3))
    theta = rng.uniform(0.0, 2.0 * math.pi, (size, 3))
    V = np.stack((np.cosh(u), np.sinh(u) * np.cos(theta),
                  np.sinh(u) * np.sin(theta)), axis=-1)
    return -V if spec.family == "antipodal_hyperbolic" else V


def _spatiolateral_rows(rng, spec: SampleSpec, size: int):
    """Three de Sitter points near the throat: spread over about a third of a
    turn for contractible triangles, and about a third of a turn apart for
    non-contractible ones."""
    base = rng.uniform(0.0, 2.0 * math.pi, (size, 1))
    if spec.family == "spatiolateral_contractible":
        theta = base + np.sort(rng.uniform(0.1, 1.0, (size, 3)) * [1.0, 2.0, 3.0],
                               axis=1)
    else:
        theta = (base + np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
                 + rng.uniform(-0.4, 0.4, (size, 3)))
    v = rng.uniform(0.05, 0.35, (size, 3)) * np.where(
        rng.random((size, 3)) < 0.5, 1.0, -1.0)
    return np.stack((np.sinh(v), np.cosh(v) * np.cos(theta),
                     np.cosh(v) * np.sin(theta)), axis=-1)


def _tempolateral_rows(rng, spec: SampleSpec, size: int):
    """e2 and two points on timelike geodesics from it, one in each time
    direction, moved by a random orthochronous Lorentz map."""
    s1, s2 = rng.uniform(0.1, 1.0, (2, size))
    t1, t2 = rng.uniform(0.2, 1.2, (2, size))
    W = np.zeros((size, 3, 3))
    W[:, 0, 1] = 1.0
    # cosh t e2 + sinh t x, with x = (cosh s1, 0, sinh s1) and (-cosh s2, 0, sinh s2)
    W[:, 1] = np.stack((np.sinh(t1) * np.cosh(s1), np.cosh(t1),
                        np.sinh(t1) * np.sinh(s1)), axis=-1)
    W[:, 2] = np.stack((-np.sinh(t2) * np.cosh(s2), np.cosh(t2),
                        np.sinh(t2) * np.sinh(s2)), axis=-1)
    M = _lorentz_rows(rng, size, min(spec.max_rapidity, 1.0))
    return W @ M.transpose(0, 2, 1)


# Rows per candidate block at most, so that memory stays bounded when few
# candidates pass (a block of 2**16 rows holds about 5 MB per array).
_MAX_BLOCK = 1 << 16

_BLOCK_CANDIDATES = {
    "hyperbolic": _hyperbolic_rows,
    "antipodal_hyperbolic": _hyperbolic_rows,
    "spatiolateral_contractible": _spatiolateral_rows,
    "spatiolateral_noncontractible": _spatiolateral_rows,
    "tempolateral": _tempolateral_rows,
}


def _sample_rows(spec: SampleSpec, tol: Tolerances = DEFAULT_TOL):
    """A batch of one of the five law families (the keys of _BLOCK_KINDS):
    its vertex rows, shape (count, 3, 3), and their law family codes, the
    arguments of trig.law_batch.

    Candidates are drawn in blocks, each sized from the rows still needed and
    the share accepted so far, up to _MAX_BLOCK rows.  spec.rejection_budget
    counts candidates.
    """
    rng = np.random.default_rng(spec.seed)
    draw = _BLOCK_CANDIDATES[spec.family]
    blocks, accepted, attempts = [], 0, 0
    while accepted < spec.count:
        need = spec.count - accepted
        rate = max(accepted, 1) / attempts if attempts else 1.0
        size = min(int(1.1 * need / rate) + 1, _MAX_BLOCK,
                   spec.rejection_budget - attempts)
        if size <= 0:
            raise RejectionBudgetExhausted(spec.family, attempts, accepted)
        V = draw(rng, spec, size)
        attempts += size
        V = V[_accept_rows(spec, V, tol)][:need]
        blocks.append(V)
        accepted += len(V)
    family = _FAMILIES.index(_BLOCK_KINDS[spec.family][1])
    return np.concatenate(blocks), np.full(spec.count, family)


def sample_segment(
    kind: SegmentKind, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL
) -> tuple:
    """Endpoint pair whose segment has the requested kind."""
    targets = {
        SegmentKind.HYPERBOLIC: Component.H2,
        SegmentKind.ANTIPODAL_HYPERBOLIC: Component.NEG_H2,
        SegmentKind.DE_SITTER_SPACELIKE: Component.DE_SITTER,
        SegmentKind.DE_SITTER_TIMELIKE: Component.DE_SITTER,
    }
    if kind not in targets:
        raise UnsupportedFamily(f"cannot sample segments of kind {kind}")
    comp = targets[kind]
    cap = 1.5
    for _ in range(100_000):
        a = sample_point(comp, rng, cap, tol)
        b = sample_point(comp, rng, cap, tol)
        try:
            k = segment_kind(a, b, tol)
        except MinkTrigError:
            continue
        if k is kind:
            d = distance(a, b, tol)
            if 0.05 < d < (math.pi - 0.05 if k is SegmentKind.DE_SITTER_SPACELIKE
                           else math.inf):
                return a, b
    raise RejectionBudgetExhausted(kind.value, 100_000, 0)


def arc_length_oracle(
    a: SurfacePoint, b: SurfacePoint, steps: int = 10_000,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Composite-Simpson integral of the segment's speed, via finite differences.

    Independent of the closed-form distance: the curve is evaluated from its
    parametrization, the derivative numerically, and the length by quadrature.
    """
    kind = segment_kind(a, b, tol)
    if kind in (SegmentKind.EMPTY, SegmentKind.POINT):
        raise EmptySegment("oracle needs a non-empty, non-trivial segment")
    if kind is SegmentKind.DE_SITTER_LIGHTLIKE:
        raise LightlikeSegment("lightlike segments have zero length by definition")
    if steps % 2:
        steps += 1

    T = distance(a, b, tol)
    A = a.coords.as_array()
    X = tangent_vector(a, b, tol).as_array()
    spacelike = kind is SegmentKind.DE_SITTER_SPACELIKE

    def gamma(ts: np.ndarray) -> np.ndarray:
        if spacelike:
            return np.outer(np.cos(ts), A) + np.outer(np.sin(ts), X)
        return np.outer(np.cosh(ts), A) + np.outer(np.sinh(ts), X)

    ts = np.linspace(0.0, T, steps + 1)
    h = 1e-6 * max(T, 1.0)
    dg = (gamma(ts + h) - gamma(ts - h)) / (2.0 * h)
    q = -dg[:, 0] ** 2 + dg[:, 1] ** 2 + dg[:, 2] ** 2
    speed = np.sqrt(np.abs(q))
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((T / steps) / 3.0 * np.dot(w, speed))
