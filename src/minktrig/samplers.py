"""Seeded random generation of triangles by family.

Every family is sampled the same way, by ``_blocks``: candidate rows are
drawn in blocks, each sized from the rows still needed, classified once by
the array classifier ``triangles._classify_rows`` and accepted on that
classification (``_accept_rows``).  ``_sample_classified`` keeps the
accepted rows' share of the classification, the input of the law kernel
(``trig._law_rows``), so ``verify --sample`` classifies each row once.
``_sample_rows`` keeps the rows alone, and ``sample_triangle`` wraps them
into triangles.  A ``mixed`` batch interleaves one such batch per family.

A batch of ``count`` rows may draw max(10**6, 25 * count) candidates
(``_REJECTION_BUDGET``, ``_BUDGET_PER_ROW``), so the budget stops no family
whose accepted share is above 1/25; the lowest measured share, that of
chronosceles rows, is about 9%.  A family that accepts fewer candidates
raises ``RejectionBudgetExhausted`` with its attempts and acceptances.

The samplers are numpy code: the first batch loads numpy (``_numpy``).

Candidate points come from two parametrisations, (sinh v, cosh v cos t,
cosh v sin t) on the de Sitter surface and (cosh u, sinh u cos t, sinh u sin t)
on the forward sheet.  Families with measure-zero lightlike structure
(lucilateral, photosceles, bimetrical, multiple) are built constructively
from lightlike rays at e2 and then moved by a random Lorentz map; rejection
sampling alone cannot reach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ._numpy import np
from .errors import ParamOutOfRange, RejectionBudgetExhausted, UnsupportedFamily
from .mink import MVec3
from .triangles import (
    _DE_SITTER,
    _EMPTY,
    _POINT,
    _SPACELIKE,
    _STRANGE,
    ProperKind,
    Triangle,
    TriangleFamily,
    _classify_rows,
    _Rows,
)

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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        if self.count < 1:
            raise ParamOutOfRange(f"count must be at least 1, got {self.count}")
        if self.seed < 0:
            raise ParamOutOfRange(f"seed must be at least 0, got {self.seed}")


def sample_triangle(spec: SampleSpec) -> List[Triangle]:
    """Batch of triangles whose classification matches spec.family: the rows
    of _sample_rows, as triangles."""
    return [Triangle.from_vectors(MVec3(a1, a2, a3), MVec3(b1, b2, b3),
                                  MVec3(c1, c2, c3))
            for a1, a2, a3, b1, b2, b3, c1, c2, c3
            in _sample_rows(spec).reshape(-1, 9).tolist()]


# The sampleable families whose triangles have trig laws.
_LAW_SAMPLES = FAMILIES[:5]
# Families with lightlike sides, which defeat the conditioning bands.
_LIGHTLIKE_SIDED = ("photosceles_spacelike_base", "photosceles_timelike_base",
                    "bimetrical_chorosceles", "bimetrical_chronosceles", "multiple")


def _accept_rows(spec: SampleSpec, c: _Rows):
    """Which candidate rows, classified as c, are of spec.family.  A row off
    the quadric or with coincident vertices never is.  Strange rows need only
    their family and impossible rows an empty side.  Rows of the other
    families need their class (the triangle family of hyperbolic rows, else
    the proper kind) and, but for lucilateral rows, which are degenerate by
    construction, a det outside the degeneracy band.  Rows without lightlike sides must also be
    well conditioned for 1e-9 residual targets: |det| at least 1e-3 of its
    scale, every finite side at least 0.05 long, and every spacelike side at
    least 0.05 short of pi."""
    family = spec.family
    ok = (c.family >= 0) & (c.kinds != _POINT).all(axis=1)
    if family == "strange":
        return ok & (c.family == _STRANGE)
    if family == "impossible":
        return ok & (c.kinds == _EMPTY).any(axis=1)
    if family in ("hyperbolic", "antipodal_hyperbolic"):
        ok &= c.family == list(TriangleFamily).index(TriangleFamily(family))
    else:
        ok &= c.proper_kind == list(ProperKind).index(ProperKind(family))
    if family == "lucilateral":
        return ok
    ok &= ~c.degenerate
    if family in _LIGHTLIKE_SIDED:
        return ok
    ok &= np.abs(c.det) >= 1e-3 * c.scale
    ok &= (c.lengths >= 0.05).all(axis=1)
    return ok & ((c.kinds != _SPACELIKE) | (c.lengths <= math.pi - 0.05)).all(axis=1)


# -- candidate rows ------------------------------------------------------------

def _de_sitter(v, theta):
    """(sinh v, cosh v cos theta, cosh v sin theta), stacked on a last axis."""
    return np.stack((np.sinh(v), np.cosh(v) * np.cos(theta),
                     np.cosh(v) * np.sin(theta)), axis=-1)


def _sheet(u, theta):
    """(cosh u, sinh u cos theta, sinh u sin theta), on the forward sheet."""
    return np.stack((np.cosh(u), np.sinh(u) * np.cos(theta),
                     np.sinh(u) * np.sin(theta)), axis=-1)


def _signed(rng, lo: float, hi: float, shape):
    """Uniform in [lo, hi], each with a random sign."""
    return rng.uniform(lo, hi, shape) * np.where(rng.random(shape) < 0.5, 1.0, -1.0)


def _ray(t, sign: float):
    """e2 + t(e1 + sign e3): on the de Sitter surface, and on a lightlike line
    through e2, for every t."""
    return np.stack((t, np.ones_like(t), sign * t), axis=-1)


def _rotations(theta):
    """Rotations by theta in the x2-x3 plane, stacked."""
    m = np.zeros(theta.shape + (3, 3))
    c, s = np.cos(theta), np.sin(theta)
    m[:, 0, 0] = 1.0
    m[:, 1, 1], m[:, 1, 2], m[:, 2, 1], m[:, 2, 2] = c, -s, s, c
    return m


def _lorentz_rows(rng, size: int):
    """Stacked rotation-boost-rotation maps of rapidity at most 1: rotations
    in the x2-x3 plane around a boost in the e1-e2 plane."""
    r1 = _rotations(rng.uniform(0.0, 2.0 * math.pi, size))
    r2 = _rotations(rng.uniform(0.0, 2.0 * math.pi, size))
    eta = rng.uniform(0.0, 1.0, size)
    b = np.zeros((size, 3, 3))
    b[:, 0, 0] = b[:, 1, 1] = np.cosh(eta)
    b[:, 0, 1] = b[:, 1, 0] = np.sinh(eta)
    b[:, 2, 2] = 1.0
    return r1 @ b @ r2


def _from_e2(rng, B, C):
    """Rows (e2, B, C), each moved by a random orthochronous Lorentz map of
    rapidity at most 1."""
    W = np.zeros((len(B), 3, 3))
    W[:, 0, 1] = 1.0
    W[:, 1], W[:, 2] = B, C
    M = _lorentz_rows(rng, len(W))
    return W @ M.transpose(0, 2, 1)


def _hyperbolic_rows(rng, spec: SampleSpec, size: int):
    u = rng.uniform(0.0, 1.5, (size, 3))
    V = _sheet(u, rng.uniform(0.0, 2.0 * math.pi, (size, 3)))
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
    return _de_sitter(_signed(rng, 0.05, 0.35, (size, 3)), theta)


def _tempolateral_rows(rng, spec: SampleSpec, size: int):
    """e2 and two points on timelike geodesics from it, one in each time
    direction, moved by a random orthochronous Lorentz map."""
    s1, s2 = rng.uniform(0.1, 1.0, (2, size))
    t1, t2 = rng.uniform(0.2, 1.2, (2, size))
    # cosh t e2 + sinh t x, with x = (cosh s1, 0, sinh s1) and (-cosh s2, 0, sinh s2)
    B = np.stack((np.sinh(t1) * np.cosh(s1), np.cosh(t1), np.sinh(t1) * np.sinh(s1)),
                 axis=-1)
    C = np.stack((-np.sinh(t2) * np.cosh(s2), np.cosh(t2), np.sinh(t2) * np.sinh(s2)),
                 axis=-1)
    return _from_e2(rng, B, C)


def _sceles_rows(rng, spec: SampleSpec, size: int):
    """Three de Sitter points near the throat, |v| in [0.1, 1.2]."""
    theta = rng.uniform(0.0, 2.0 * math.pi, (size, 3))
    return _de_sitter(_signed(rng, 0.1, 1.2, (size, 3)), theta)


def _photosceles_rows(rng, spec: SampleSpec, size: int):
    """e2 and two points on lightlike rays from it, moved by a random
    orthochronous Lorentz map.  Lucilateral rows take both on the ray along
    e1 + e3, so that all three sides are lightlike; photosceles rows take one
    on each of the rays along e1 + e3 and e1 - e3, on the same side of e2 for
    a spacelike base."""
    t1 = rng.uniform(0.3, 1.5, size)
    if spec.family == "photosceles_spacelike_base":
        t2 = rng.uniform(0.1, 0.9, size) / t1
    else:
        t2 = -rng.uniform(0.3, 1.5, size)
    return _from_e2(rng, _ray(t1, 1.0),
                    _ray(t2, 1.0 if spec.family == "lucilateral" else -1.0))


def _one_lightlike_rows(rng, spec: SampleSpec, size: int):
    """e2, a point on a lightlike ray from it and a de Sitter point near the
    throat, |v| in [0.05, 1.2], moved by a random orthochronous Lorentz map:
    side c is lightlike, and the third vertex decides the other two kinds."""
    B = _ray(_signed(rng, 0.3, 1.5, size), 1.0)
    C = _de_sitter(_signed(rng, 0.05, 1.2, size), rng.uniform(0.0, 2.0 * math.pi, size))
    return _from_e2(rng, B, C)


def _strange_rows(rng, spec: SampleSpec, size: int):
    """Three points, each on a component picked at random, with |u| and |v|
    up to 1.5; rows on a single component are refused."""
    component = rng.integers(0, 3, (size, 3, 1))
    w = rng.uniform(-1.5, 1.5, (size, 3))
    theta = rng.uniform(0.0, 2.0 * math.pi, (size, 3))
    sheet = _sheet(np.abs(w), theta)
    # Component codes: 0 and 1 for the forward and backward sheets
    return np.where(component == _DE_SITTER, _de_sitter(w, theta),
                    np.where(component == 1, -sheet, sheet))


def _impossible_rows(rng, spec: SampleSpec, size: int):
    """Three de Sitter points with |v| up to 2: widely separated points make
    empty sides likely."""
    theta = rng.uniform(0.0, 2.0 * math.pi, (size, 3))
    return _de_sitter(rng.uniform(-2.0, 2.0, (size, 3)), theta)


# Rows per candidate block at most, so that memory stays bounded when few
# candidates pass (a block of 2**16 rows holds about 5 MB per array).
_MAX_BLOCK = 1 << 16
# Candidates one batch of a single family may draw before it gives up: at
# least _REJECTION_BUDGET, and _BUDGET_PER_ROW per row asked for.
_REJECTION_BUDGET = 1_000_000
_BUDGET_PER_ROW = 25

_MAKERS = {
    "hyperbolic": _hyperbolic_rows,
    "antipodal_hyperbolic": _hyperbolic_rows,
    "spatiolateral_contractible": _spatiolateral_rows,
    "spatiolateral_noncontractible": _spatiolateral_rows,
    "tempolateral": _tempolateral_rows,
    "chorosceles": _sceles_rows,
    "chronosceles": _sceles_rows,
    "lucilateral": _photosceles_rows,
    "bimetrical_chorosceles": _one_lightlike_rows,
    "bimetrical_chronosceles": _one_lightlike_rows,
    "photosceles_spacelike_base": _photosceles_rows,
    "photosceles_timelike_base": _photosceles_rows,
    "multiple": _one_lightlike_rows,
    "strange": _strange_rows,
    "impossible": _impossible_rows,
}


def _sample_rows(spec: SampleSpec):
    """The vertex rows of a batch of spec.family, shape (count, 3, 3).

    Row i of a mixed batch is of family FAMILIES[i % 15]: each family's rows
    are one batch, from a seed of its own drawn from spec.seed.
    """
    if spec.family != "mixed":
        return np.concatenate([V[keep] for V, _, keep in _blocks(spec)])
    pool = FAMILIES[:-1]
    seeds = np.random.default_rng(spec.seed).integers(0, 2**32, len(pool))
    V = np.empty((spec.count, 3, 3))
    for j, family in enumerate(pool):
        count = len(V[j::len(pool)])
        if count:
            V[j::len(pool)] = _sample_rows(SampleSpec(family, count, int(seeds[j])))
    return V


def _sample_classified(spec: SampleSpec):
    """The rows of a batch of spec.family, a single family, and their
    classification, equal to _classify_rows of the rows: each block's
    accepted rows keep their slice of its classification, which is what
    classifying them again would give, since _classify_rows works row by
    row.  The rows are the classification's own vertices."""
    blocks = [[np.take(x.T, keep, axis=-1) for x in c]
              for _, c, keep in _blocks(spec)]
    if len(blocks) > 1:
        blocks = [[np.concatenate(x, axis=-1) for x in zip(*blocks)]]
    c = _Rows(*(x.T for x in blocks[0]))
    return c.vertices, c


def _blocks(spec: SampleSpec):
    """The candidate blocks of a batch of spec.family, a single family: each
    block's rows, their classification and the indices of its accepted rows.

    Candidates are drawn in blocks, each sized from the rows still needed and
    the share accepted so far, up to _MAX_BLOCK rows, and classified once;
    _accept_rows reads the classification.  The budget counts candidates.
    """
    rng = np.random.default_rng(spec.seed)
    draw = _MAKERS[spec.family]
    budget = max(_REJECTION_BUDGET, _BUDGET_PER_ROW * spec.count)
    accepted, attempts = 0, 0
    while accepted < spec.count:
        need = spec.count - accepted
        rate = max(accepted, 1) / attempts if attempts else 1.0
        size = min(int(1.1 * need / rate) + 1, _MAX_BLOCK,
                   budget - attempts)
        if size <= 0:
            raise RejectionBudgetExhausted(spec.family, attempts, accepted)
        V = draw(rng, spec, size)
        attempts += size
        c = _classify_rows(V)
        keep = np.flatnonzero(_accept_rows(spec, c))[:need]
        accepted += len(keep)
        yield V, c, keep
