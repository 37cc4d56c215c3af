"""The array classifier and the array law kernel against the scalar path.

triangles._classify_rows classifies vertex rows; the samplers accept candidate
rows by it, and trig.law_batch reads each row's law family off it and
measures the row.  Here all three are held to the scalar path:

- each family's candidate rows must be accepted exactly when the scalar
  rule ``accepts`` below takes their triangle, rejections included;
- every TriangleClass field of each row, and each side's lightlike and
  opposite flags, must equal the scalar classifier's, on block-sampled
  batches, on mixed batches, on every family without laws, on degenerate
  spatiolateral rows and on rows with opposite vertices;
- law families, the apex and the anchor must be identical;
- lengths and angles must agree within LENGTH_TOL, where numpy's arccos,
  arcosh and friends may round differently from the math module's (the
  largest difference measured on these batches was 4.4e-16);
- residuals and sine ratios must agree within RESIDUAL_TOL: they are
  differences of products of cosh values up to a few hundred, so one
  rounding there moves them by up to some 1e-14 (the largest measured was
  5.7e-14).

The kernel is also held, bit for bit, to the family-coded kernel it
replaced, and the classification the sampler hands to the kernel to what
classifying the sampled rows again gives.
"""

import contextlib
import itertools
import json
import math

import numpy as np
import pytest

from minktrig import cli, samplers, triangles, trig
from minktrig.errors import (
    DegenerateTriangle,
    MinkTrigError,
    OffSurfaceError,
    UnsupportedFamily,
)
from minktrig.mink import MVec3, cross, euclid_dot
from minktrig.polar import (
    _polar_type,
    polar_triangle,
    predict_polar_type,
    prediction_satisfied,
)
from minktrig.samplers import (
    _LAW_SAMPLES,
    _MAKERS,
    FAMILIES,
    SampleSpec,
    _accept_rows,
    _sample_classified,
    _sample_rows,
    sample_triangle,
)
from minktrig.surfaces import Component, SegmentKind, angle
from minktrig.triangles import (
    _J,
    _K,
    _NEXT,
    LawFamily,
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    _anchors,
    _classify,
    _classify_rows,
    _mink,
    _Rows,
    classify_triangle,
)
from minktrig.trig import (
    _EJ,
    _EK,
    _HYP,
    _LAWS,
    _ORDERS,
    _PRODUCT,
    _SPATIO_C,
    _SWAP,
    _TEMPO,
    _TS,
    _TV,
    _TW,
    CLAMP,
    DEGENERATE,
    NO_LAWS,
    NOT_UNIQUE,
    OFF_SURFACE,
    OK,
    SINE,
    law_batch,
    trig_report,
)

from conftest import apply_matrix, law_families, random_lorentz, sample_point

LENGTH_TOL = 2e-15
RESIDUAL_TOL = 2e-13
LAW_SAMPLES = list(_LAW_SAMPLES)
LAWLESS_SAMPLES = [f for f in FAMILIES if f not in _LAW_SAMPLES and f != "mixed"]
LAWS = list(LawFamily)
COMPONENTS = list(Component)
KINDS = list(SegmentKind)
TRIANGLE_FAMILIES = list(TriangleFamily)
PROPER_KINDS = list(ProperKind)
# TriangleClass.contractible of the spatiolateral proper kind codes
CONTRACTIBLE = {PROPER_KINDS.index(ProperKind.SPATIOLATERAL_CONTRACTIBLE): True,
                PROPER_KINDS.index(ProperKind.SPATIOLATERAL_NONCONTRACTIBLE): False}

# (i; j, k) for the three equations of each law
ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))

# The laws written out per family, the reference for the kernel's sign table:
# side cos/sin, angle cos/sin, law-of-cosines-for-sides signs, the angle
# product's sign, law-of-cosines-for-angles signs.
REFERENCE_LAWS = {
    LawFamily.HYP: (math.cosh, math.sinh, math.cos, math.sin,
                    (-1, -1, -1), -1, (1, 1, 1)),
    LawFamily.SPATIO_NC: (math.cos, math.sin, math.cosh, math.sinh,
                          (-1, -1, -1), 1, (1, 1, 1)),
    LawFamily.SPATIO_C: (math.cos, math.sin, math.cosh, math.sinh,
                         (-1, 1, 1), 1, (1, -1, -1)),
    LawFamily.TEMPO: (math.cosh, math.sinh, math.cosh, math.sinh,
                      (1, -1, -1), 1, (1, -1, -1)),
}


def rows_of(triangles):
    return np.array([[v.coords.as_tuple() for v in t.vertices()] for t in triangles])


def triangles_of(V):
    return [Triangle.from_vectors(*(MVec3(*v) for v in row)) for row in V.tolist()]


def scalar_law_family(cls):
    """The law family of a class as the paper states it: both hyperbolic
    families, and the proper kinds of the same name; None for the others."""
    if cls.family in (TriangleFamily.HYPERBOLIC, TriangleFamily.ANTIPODAL_HYPERBOLIC):
        return LawFamily.HYP
    names = {f.value: f for f in LawFamily}
    return names.get(cls.proper_kind.value) if cls.proper_kind else None


def assert_classes_match(V, triangles):
    """Every verdict of the array classifier against the scalar one, row by row."""
    rows = _classify_rows(V)
    for n, t in enumerate(triangles):
        cls, sides, g = _classify(t)
        kinds = [KINDS[k] for k in rows.kinds[n]]
        proper, law = int(rows.proper_kind[n]), int(rows.law[n])
        assert TriangleClass(
            family=TRIANGLE_FAMILIES[rows.family[n]],
            proper_kind=PROPER_KINDS[proper] if proper >= 0 else None,
            side_kinds=tuple(kinds),
            impossible_sides=tuple(label for label, k in zip("abc", kinds)
                                   if k is SegmentKind.EMPTY),
            degenerate=bool(rows.degenerate[n]),
            contractible=CONTRACTIBLE.get(proper),
            vertex_components=tuple(COMPONENTS[c] for c in rows.components[n]),
            has_opposite_vertices=bool(rows.opposite[n].any()),
            has_lightlike_side_plane=bool(rows.lightlike[n].any()),
        ) == cls
        assert rows.lightlike[n].tolist() == [s.lightlike for s in g.sides]
        assert rows.opposite[n].tolist() == [s.opposite for s in g.sides]
        assert rows.det[n] == g.det
        assert rows.lengths[n] == pytest.approx([s.length for s in sides],
                                                rel=0, abs=LENGTH_TOL)
        assert (LAWS[law] if law >= 0 else None) is scalar_law_family(cls)


def reference(t):
    """Family, sides, angles and residuals the scalar way: the classifier's
    sides, the apex or anchor by the sign of r_i = p_i - p_j p_k, each angle
    from surfaces.angle, and the laws as written out above."""
    cls, _, g = _classify(t)
    family = scalar_law_family(cls)
    p = [s.p for s in g.sides]
    r = [p[i] - p[j] * p[k] for i, j, k in ORDERS]
    hits = {LawFamily.TEMPO: [x > 0.0 for x in r],
            LawFamily.SPATIO_C: [r[j] > 0.0 and r[k] > 0.0 for _, j, k in ORDERS]}
    first = hits[family].index(True) if family in hits else 0
    verts = t.vertices()
    angles = [angle(verts[j], verts[i], verts[k]) for i, j, k in ORDERS]
    order = ORDERS[first]
    sides = [g.sides[i].length for i in order]
    angles = [angles[i] for i in order]
    sc, ss, ac, sa, lcs, product, lca = REFERENCE_LAWS[family]
    a, s = angles, sides
    res_lcs = [abs(sc(s[i]) - (sc(s[j]) * sc(s[k])
                               + lcs[i] * ac(a[i]) * ss(s[j]) * ss(s[k])))
               for i, j, k in ORDERS]
    res_lca = [abs(ac(a[i]) - (product * ac(a[j]) * ac(a[k])
                               + lca[i] * sc(s[i]) * sa(a[j]) * sa(a[k])))
               for i, j, k in ORDERS]
    ratios = [sa(a[i]) / ss(s[i]) for i in range(3)]
    return family, sides, angles, res_lcs + res_lca + ratios


def assert_matches_reference(triangles, batch):
    """Each row of the batch is measured as the scalar reference measures
    it, or has the status of its scalar class."""
    measured = 0
    for n, t in enumerate(triangles):
        cls, _, _ = _classify(t)
        if cls.degenerate or scalar_law_family(cls) is None:
            assert batch.status[n] == (DEGENERATE if cls.degenerate else NO_LAWS)
            continue
        family, sides, angles, values = reference(t)
        assert batch.status[n] == OK
        assert LAWS[batch.family[n]] is family
        if family in (LawFamily.TEMPO, LawFamily.SPATIO_C):
            assert batch.hits[n] == 1
        assert batch.sides[n] == pytest.approx(sides, rel=0, abs=LENGTH_TOL)
        assert batch.angles[n] == pytest.approx(angles, rel=0, abs=LENGTH_TOL)
        got = list(batch.lcs[n]) + list(batch.lca[n]) + list(batch.ratios[n])
        assert got == pytest.approx(values, rel=0, abs=RESIDUAL_TOL)
        measured += 1
    return measured


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_block_rows_match_the_scalar_path(family):
    V = _sample_rows(SampleSpec(family=family, count=1000, seed=41))
    triangles = triangles_of(V)
    assert_classes_match(V, triangles)
    batch = law_batch(V)
    law = LawFamily.HYP if family.endswith("hyperbolic") else LawFamily(family)
    assert set(law_families(batch)) == {law}
    assert assert_matches_reference(triangles, batch) == 1000


@pytest.mark.parametrize("seed", [43, 44, 46])
def test_mixed_batch_matches_the_scalar_path(seed):
    triangles = sample_triangle(SampleSpec(family="mixed", count=1500, seed=seed))
    V = rows_of(triangles)
    assert_classes_match(V, triangles)
    assert assert_matches_reference(triangles, law_batch(V)) > 400


@pytest.mark.parametrize("family", LAWLESS_SAMPLES)
def test_lawless_families_match_the_scalar_classifier(family):
    triangles = sample_triangle(SampleSpec(family=family, count=300, seed=49))
    V = rows_of(triangles)
    assert_classes_match(V, triangles)
    assert assert_matches_reference(triangles, law_batch(V)) == 0


def test_degenerate_spatiolateral_rows_are_contractible_unless_they_go_around():
    # three points anywhere on one waist circle, under maps up to rapidity 6:
    # all sides spacelike and det 0.  A row goes around the circle, and is
    # non-contractible, exactly when every gap between neighbouring points is
    # below pi; its side sum is then exactly 2 pi, which may round below it
    rng = np.random.default_rng(50)
    rows, kinds = [], []
    while len(rows) < 300:
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3))
        gaps = np.diff(theta, append=theta[0] + 2.0 * math.pi)
        if gaps.min() < 0.01 or np.abs(gaps - math.pi).min() < 0.01:
            continue  # nearly equal or opposite points
        m = random_lorentz(rng, max_rapidity=6.0)
        rows.append([apply_matrix(m, MVec3(0.0, math.cos(x), math.sin(x))).as_tuple()
                     for x in theta])
        kinds.append(ProperKind.SPATIOLATERAL_NONCONTRACTIBLE if gaps.max() < math.pi
                     else ProperKind.SPATIOLATERAL_CONTRACTIBLE)
    V = np.array(rows)
    triangles = triangles_of(V)
    assert_classes_match(V, triangles)
    classes = _classify_rows(V)
    assert classes.degenerate.all()
    assert [PROPER_KINDS[k] for k in classes.proper_kind] == kinds
    assert [classify_triangle(t)[0].proper_kind for t in triangles] == kinds
    assert (law_batch(V).status == DEGENERATE).all()


def test_contractible_rows_are_those_whose_polar_is_strange_on_sheets():
    # polarity as an oracle independent of the anchor test: the polar of a
    # spatiolateral triangle is strange on sheets when it is contractible and
    # hyperbolic when it is not (polar._POLAR_PAIRS).  The rows are sampled
    # spatiolateral rows and random de Sitter triples, under maps up to
    # rapidity 6.
    rng = np.random.default_rng(52)
    sampled = [_sample_rows(SampleSpec(family=f, count=500, seed=52))
               for f in ("spatiolateral_contractible", "spatiolateral_noncontractible")]
    drawn = [[sample_point(Component.DE_SITTER, rng, 0.5).coords.as_tuple()
              for _ in range(3)] for _ in range(1000)]
    maps = [random_lorentz(rng, max_rapidity=6.0) for _ in range(2000)]
    V = np.concatenate(sampled + [np.array(drawn)])
    V = np.einsum("nij,nvj->nvi", np.array(maps), V)
    classes = _classify_rows(V)
    keep = np.isin(classes.proper_kind, list(CONTRACTIBLE)) & ~classes.degenerate
    anchors = np.array(_anchors(classes.p.T)).sum(axis=0)
    assert set(anchors[keep].tolist()) == {0, 1}
    V = V[keep]
    triangles = triangles_of(V)
    assert_classes_match(V, triangles)
    off_surface = 0
    for t in triangles:
        contractible = classify_triangle(t)[0].contractible
        try:
            polar = Triangle.from_vectors(*polar_triangle(t).vertices)
        except OffSurfaceError:
            # far from the origin a polar vertex's <<V, V>> can leave the
            # absolute EPS_SURF band: the band does not scale with |V|^2
            off_surface += 1
            continue
        assert _polar_type(classify_triangle(polar)[0]) == (
            "strange_on_sheets" if contractible else "hyperbolic")
    assert len(triangles) > 1000
    assert off_surface <= 0.01 * len(triangles)


def test_constructed_rows_match_the_scalar_classifier():
    # the measure-zero cases samples do not reach: opposite vertices on the
    # sheets and on the de Sitter surface and the worked examples, each under
    # a few Lorentz maps, and a point far out near the light cone
    fixtures = [
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
        [(0, 1, 0), (0, -1, 0), (0, 0, 1)],
        HYP, DEGENERATE_ROW, CHRONO, CHORO,
    ]
    rng = np.random.default_rng(51)
    maps = [np.eye(3)] + [random_lorentz(rng, max_rapidity=1.0) for _ in range(3)]
    V = np.array([[m @ np.array(v, dtype=float) for v in row]
                  for row in fixtures for m in maps]
                 + [[(0, 1, 0), (0, 0, 1), (1e10, 1e10, 1)]])
    classes = _classify_rows(V)
    assert classes.opposite.any() and classes.lightlike.any()
    assert_classes_match(V, triangles_of(V))


def component_point(code, i):
    """Point i of three distinct ones with component code code: the forward
    and backward sheets, the de Sitter surface, and off the quadric for -1."""
    c, s = math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3)
    ch, sh = math.cosh(1.0), math.sinh(1.0)
    return {0: (ch, sh * c, sh * s), 1: (-ch, sh * c, sh * s), 2: (0.0, c, s),
            -1: (0.0, 2.0 * c, 2.0 * s)}[code]


def test_family_code_of_every_component_triple():
    # -1 when any vertex is off the quadric, else the scalar family
    triples = list(itertools.product((-1, 0, 1, 2), repeat=3))
    V = np.array([[component_point(code, i) for i, code in enumerate(codes)]
                  for codes in triples])
    classes = _classify_rows(V)
    assert classes.components.tolist() == [list(codes) for codes in triples]
    for codes, row, family in zip(triples, V.tolist(), classes.family.tolist()):
        if -1 in codes:
            assert family == -1
        else:
            t = Triangle.from_vectors(*(MVec3(*v) for v in row))
            assert TRIANGLE_FAMILIES[family] is _classify(t)[0].family


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_single_triangle_views_equal_their_batch_row(family):
    triangles = sample_triangle(SampleSpec(family=family, count=40, seed=45))
    batch = law_batch(rows_of(triangles))
    families = law_families(batch)
    for n, t in enumerate(triangles):
        r = trig_report(t)
        assert r.family is families[n]
        assert list(r.lcs_residuals) == batch.lcs[n].tolist()
        assert list(r.lca_residuals) == batch.lca[n].tolist()
        assert list(r.sines_ratios) == batch.ratios[n].tolist()
        assert r.max_residual() == batch.max_residual[n]
        assert r.angle_sum == batch.angle_sums()[n]
        assert r.side_sum == batch.side_sums()[n]


LIGHTLIKE_SIDED = ("photosceles_spacelike_base", "photosceles_timelike_base",
                   "bimetrical_chorosceles", "bimetrical_chronosceles", "multiple")


def accepts(family, t):
    """Whether the sampler may emit t as a triangle of the family, read off
    the scalar classifier: the reference for samplers._accept_rows."""
    cls, sides = classify_triangle(t)
    if family == "strange":
        return cls.family is TriangleFamily.STRANGE
    if family == "impossible":
        return bool(cls.impossible_sides)
    if family in ("hyperbolic", "antipodal_hyperbolic"):
        ok = cls.family is TriangleFamily(family)
    else:
        ok = cls.proper_kind is ProperKind(family)
    if family == "lucilateral":
        return ok  # lucilateral triangles are degenerate by construction
    if not ok or cls.degenerate:
        return False
    if family in LIGHTLIKE_SIDED:
        return True  # lightlike sides defeat the conditioning guard
    # well conditioned for 1e-9 residual targets
    A, B, C = (v.coords for v in t.vertices())
    scale = A.euclid_norm() * B.euclid_norm() * C.euclid_norm()
    if abs(euclid_dot(cross(A, B), C)) < 1e-3 * scale:
        return False
    for s in sides:
        if math.isfinite(s.length) and s.length < 0.05:
            return False
        if s.kind is SegmentKind.DE_SITTER_SPACELIKE and s.length > math.pi - 0.05:
            return False
    return True


@pytest.mark.parametrize("family", LAW_SAMPLES + LAWLESS_SAMPLES)
def test_block_acceptance_matches_scalar_accepts(family):
    spec = SampleSpec(family=family, count=1000, seed=47)
    for t in sample_triangle(spec):
        assert accepts(family, t)
    # and candidate by candidate, rejections included
    V = _MAKERS[family](np.random.default_rng(48), spec, 2000)
    mask = _accept_rows(spec, _classify_rows(V))
    for row, accepted in zip(V.tolist(), mask.tolist()):
        try:
            t = Triangle.from_vectors(*(MVec3(*v) for v in row))
        except MinkTrigError:
            assert not accepted
            continue
        assert accepts(family, t) == accepted
    # both verdicts occur
    if family == "spatiolateral_contractible":
        assert 0.3 < mask.mean() < 0.8
    if family in ("chorosceles", "multiple", "strange", "impossible"):
        assert 0.1 < mask.mean() < 0.95


SQ2 = math.sqrt(2.0)
HYP = [(SQ2, 1, 0), (SQ2, 0, 1), (SQ2, -1, 0)]
DEGENERATE_ROW = [(0, 1, 0), (0, 0, 1), (0, math.sqrt(0.5), math.sqrt(0.5))]
CHRONO = [(0, 1, 0), (0, 0, 1), (30 * SQ2 / 41, 59 * SQ2 / 82, 59 * SQ2 / 82)]
CHORO = [(1, 0, SQ2), (-1, 0, SQ2), (0, math.sqrt(3) / 2, 0.5)]
NAN_ROW = [(math.nan, 1, 0), (0, 0, 1), (0, 1, 0)]
INF_ROW = [(0, 1, 0), (0, 0, 1), (math.inf, math.inf, 0)]
SCALED = [tuple(1.5 * x for x in HYP[0])] + HYP[1:]


@pytest.mark.parametrize("row, error", [
    (NAN_ROW, OffSurfaceError),
    (INF_ROW, OffSurfaceError),
    (SCALED, OffSurfaceError),
    (DEGENERATE_ROW, DegenerateTriangle),
    (CHRONO, UnsupportedFamily),
    (CHORO, UnsupportedFamily),
])
def test_hostile_rows_get_their_typed_errors(row, error):
    batch = law_batch([HYP, row, HYP])
    assert batch.status.tolist()[::2] == [OK, OK]
    with pytest.raises(error):
        batch.raise_first()


def test_hyperbolic_rows_are_read_as_hyperbolic():
    # the kernel no longer takes the family from its caller: a hyperbolic
    # row is measured as one, on either sheet
    antipodal = [tuple(-x for x in v) for v in HYP]
    batch = law_batch([HYP, antipodal])
    assert law_families(batch) == [LawFamily.HYP, LawFamily.HYP]
    assert batch.status.tolist() == [OK, OK]
    assert batch.max_residual.max() < 1e-12


def test_first_failing_row_raises_its_scalar_error():
    with pytest.raises(DegenerateTriangle):
        law_batch([HYP, DEGENERATE_ROW, CHRONO]).raise_first()
    with pytest.raises(UnsupportedFamily):
        law_batch([HYP, CHRONO, DEGENERATE_ROW]).raise_first()
    with pytest.raises(OffSurfaceError, match="vertex A of row 1"):
        law_batch([HYP, NAN_ROW, DEGENERATE_ROW]).raise_first()
    with pytest.raises(DegenerateTriangle):
        trig_report(Triangle.from_vectors(*(MVec3(*v) for v in DEGENERATE_ROW)))
    assert law_batch([]).status.shape == (0,)


# The light band is relative to |V x W|^2: a short side is timelike or
# spacelike, never lightlike for being short.  Side c of this row is
# timelike, of length 1e-6.
SHORT_TIMELIKE = [(0, 1, 0), (math.sinh(1e-6), math.cosh(1e-6), 0), (0, 0, 1)]
# Impossible rows whose polars have a timelike side of length 5.6e-7 and
# 6.2e-6, which the band used to call lightlike, so that the polar missed its
# predicted type: row 1274 of the mixed batch of seed 14 at count 2000, as
# sampled one candidate at a time, and row 1034 of that of seed 903.
SHORT_POLAR_SIDES = [
    [(2.123633573692897, 2.1110444037010923, -1.026309446959329),
     (-1.3585528494473254, -1.515912317921352, 0.7400511395273712),
     (3.2837795629498996, -3.039776100842552, 1.5946690800269145)],
    [(-0.8340895114046922, 0.3252970887833227, -1.2609072595018291),
     (3.0544517075488415, -1.956997671164299, 2.5494774658359987),
     (0.07147992100152165, -0.4071360116543554, -0.9161602737079185)],
]


def test_a_short_timelike_side_is_timelike():
    V = np.array([SHORT_TIMELIKE])
    (t,) = triangles_of(V)
    cls, sides = classify_triangle(t)
    assert cls.proper_kind is ProperKind.CHOROSCELES
    assert not cls.has_lightlike_side_plane
    assert sides[2].kind is SegmentKind.DE_SITTER_TIMELIKE
    # arcosh near 1 keeps about half the digits
    assert sides[2].length == pytest.approx(1e-6, rel=1e-3)
    assert_classes_match(V, [t])


@pytest.mark.parametrize("row", SHORT_POLAR_SIDES)
def test_short_polar_sides_keep_the_type_mapping(row):
    # the survey flow: classify, polar, classify the polar, check the
    # prediction; the array classifier reads both rows as the scalar one does
    V = np.array([row])
    (t,) = triangles_of(V)
    cls, _ = classify_triangle(t)
    assert cls.impossible_sides
    polar = Triangle.from_vectors(*polar_triangle(t).vertices)
    polar_cls, sides = classify_triangle(polar)
    assert prediction_satisfied(predict_polar_type(cls), polar_cls)
    short = min(sides, key=lambda s: s.length)
    assert short.kind is SegmentKind.DE_SITTER_TIMELIKE and 0 < short.length < 1e-5
    assert_classes_match(V, [t])
    assert_classes_match(rows_of([polar]), [polar])


# -- the family-coded kernel, the reference for the per-family one ------------
#
# law_batch evaluates each law family with its _LAWS row as constants.  The
# kernel it replaced ran every row through cos and cosh, sin and sinh, arccos
# and arcosh, and the apex and anchor search, and kept each row's own with
# np.where on its family code.  It is kept here as written: the two do the
# same operations in the same order on every row they measure, so their
# columns must agree bit for bit.

def coded_vertex_hits(family, p):
    positive = (p - p.take(_J, axis=1) * p.take(_K, axis=1)) > 0.0
    family = family[:, None]
    return np.where(family == _TEMPO, positive,
                    positive.take(_J, axis=1) & positive.take(_K, axis=1)
                    & (family == _SPATIO_C))


def coded_angles(V, family, p, n2):
    sheet = (family == _HYP)[:, None]
    X = V.transpose(2, 0, 1)
    At, ps = X.take(_TV, axis=2), p.take(_TS, axis=1)
    coef = np.where(sheet, -ps, ps)
    norm = np.sqrt(np.abs(n2.take(_TS, axis=1)))
    T = (X.take(_TW, axis=2) - coef * At) / norm
    prod = _mink(T[:, :, 0::2], T[:, :, 1::2])
    size = np.abs(prod)
    angles = np.where(sheet, np.arccos(np.minimum(np.maximum(prod, -1.0), 1.0)),
                      np.arccosh(np.maximum(size, 1.0)))
    beyond = np.where(sheet, size - 1.0, 1.0 - size) > trig.EPS_CLAMP
    return angles, beyond.any(axis=1)


GROUP = np.array([0, 0, 0, 1, 1, 1])  # the hyperbolic column of each value


def coded_laws(family, sides, angles):
    law = np.take(_LAWS, family, axis=0)
    values = np.concatenate((sides, angles), axis=1)
    hyperbolic = law.take(GROUP, axis=1) > 0.0
    c = np.where(hyperbolic, np.cosh(values), np.cos(values))
    s = np.where(hyperbolic, np.sinh(values), np.sin(values))
    cj, ck = c.take(_EJ, axis=1), c.take(_EK, axis=1)
    sj, sk = s.take(_EJ, axis=1), s.take(_EK, axis=1)
    residuals = np.abs(c - (law.take(_PRODUCT, axis=1) * cj * ck
                            + law[:, 4:] * c.take(_SWAP, axis=1) * sj * sk))
    vanishing = (np.abs(s[:, :3]) < 1e-300).any(axis=1)
    return residuals, s[:, 3:] / s[:, :3], vanishing


def coded_law_batch(vertices):
    """The columns of law_batch, by the family-coded kernel."""
    V = np.asarray(vertices, dtype=float).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):
        c = _classify_rows(V)
        family = c.law
        hits = coded_vertex_hits(family, c.p)
        count = hits.sum(axis=1)
        angles, angle_clamp = coded_angles(V, family, c.p, c.n2)
        rows = np.arange(len(V))[:, None]
        order = np.take(_ORDERS, np.argmax(hits, axis=1), axis=0)
        sides, angles = c.lengths[rows, order], angles[rows, order]
        residuals, ratios, vanishing = coded_laws(family, sides, angles)
        max_residual = np.maximum(residuals.max(axis=1),
                                  np.abs(ratios - ratios.take(_NEXT, axis=1)).max(axis=1))
    choose = (family == _TEMPO) | (family == _SPATIO_C)
    failures = np.array([c.family < 0, c.degenerate, family < 0, choose & (count != 1),
                         angle_clamp, vanishing, np.ones(len(V), dtype=bool)])
    return dict(status=np.argmax(failures, axis=0), family=family, sides=sides,
                angles=angles, lcs=residuals[:, :3], lca=residuals[:, 3:],
                ratios=ratios, max_residual=max_residual, hits=count)


def assert_kernel_matches_coded(V):
    """law_batch's statuses, families and hit counts on every row, and its
    float columns bit for bit on the OK rows, against the coded kernel."""
    batch, coded = law_batch(V), coded_law_batch(V)
    for name in ("status", "family", "hits"):
        assert getattr(batch, name).tolist() == coded[name].tolist(), name
    ok = coded["status"] == OK
    for name in ("sides", "angles", "lcs", "lca", "ratios", "max_residual"):
        got, want = getattr(batch, name)[ok], coded[name][ok]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    return batch.status


def _tempolateral_row(t1, t2):
    """e2 and points at t1 and t2 on timelike geodesics from it, one in each
    time direction."""
    sh1, sh2 = math.sinh(t1), math.sinh(t2)
    return [(0.0, 1.0, 0.0),
            (sh1 * math.cosh(0.3), math.cosh(t1), sh1 * math.sinh(0.3)),
            (-sh2 * math.cosh(0.5), math.cosh(t2), sh2 * math.sinh(0.5))]


@contextlib.contextmanager
def no_bands():
    """No degeneracy band and no clamp band: near-degenerate rows are
    measured and reach the statuses sampled rows never do.  Under the bands,
    the CLAMP, NOT_UNIQUE and SINE rows read DEGENERATE."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangles, "EPS_DEGEN", 0.0)
        mp.setattr(trig, "EPS_CLAMP", 0.0)
        yield
STATUS_ROWS = {
    OFF_SURFACE: [NAN_ROW, INF_ROW, SCALED],
    DEGENERATE: [DEGENERATE_ROW],
    NO_LAWS: [CHRONO, CHORO],
    # a tempolateral triangle with sides of 1e-9, where every r_i rounds to 0
    NOT_UNIQUE: [_tempolateral_row(1e-9, 2e-9)],
    # a third vertex moved to within 1e-8 of the plane of the other two
    CLAMP: [
        [(0.5364299499421133, 0.9803773932196014, -0.571504381486999),
         (3.974176091300326, 4.090255874454859, 0.2527498489626751),
         (-0.530851921498563, 0.2157374936474617, -1.1114230051575447)],
        [(-0.2525797475384865, -0.5830998573693781, 0.850759122902844),
         (0.19433823269410178, -0.906138796841387, -0.46548880711088064),
         (0.2662963216470821, -0.7571091180083228, -0.7054782167802388)],
        [(1.3094692835509465, 0.687692690580275, -0.49172000964562246),
         (2.2005460304408304, -1.443676915346868, -1.325971265217858),
         (1.166821288688919, -0.14423779605166548, -0.5836671807869861)],
        [(0.15654938269302648, 0.7938489355449433, -0.6279423355338675),
         (-0.30800569511004644, 0.05239089656612586, 1.0450467464076525),
         (0.10796746510374865, -0.9732924920044062, -0.2536901624596077)],
    ],
    # a hyperbolic side of 1e-9, whose length rounds to 0
    SINE: [[(1.0, 0.0, 0.0), (math.cosh(1e-9), math.sinh(1e-9), 0.0),
            (math.cosh(1.0), 0.0, math.sinh(1.0))]],
    OK: [HYP, _tempolateral_row(0.5, 0.7)],
}


def status_batch(count, seed):
    """A mixed batch of count rows holding every status under no_bands."""
    special = [row for rows in STATUS_ROWS.values() for row in rows]
    sampled = _sample_rows(SampleSpec(family="mixed", count=count - len(special),
                                      seed=seed))
    V = np.concatenate((np.array(special, dtype=float), sampled))
    return V[np.random.default_rng(seed).permutation(count)]


@pytest.mark.parametrize("seed", [52, 53])
def test_mixed_batches_match_the_coded_kernel(seed):
    V = status_batch(1000, seed)
    with no_bands():
        assert set(assert_kernel_matches_coded(V).tolist()) == set(range(OK + 1))
        for i in range(0, 40, 2):
            assert_kernel_matches_coded(V[i:i + 2])
        assert assert_kernel_matches_coded(V[:0]).shape == (0,)
    assert_kernel_matches_coded(V)
    assert law_batch([]).status.shape == (0,)


@pytest.mark.parametrize("status", sorted(STATUS_ROWS))
def test_single_rows_match_the_coded_kernel(status):
    for row in STATUS_ROWS[status]:
        with no_bands():
            assert assert_kernel_matches_coded(np.array([row])).tolist() == [status]
        assert_kernel_matches_coded(np.array([row]))


@pytest.mark.parametrize("family", LAW_SAMPLES)
@pytest.mark.parametrize("count", [1, 2, 1000])
def test_sampled_batches_match_the_coded_kernel(family, count):
    V = _sample_rows(SampleSpec(family=family, count=count, seed=54))
    assert (assert_kernel_matches_coded(V) == OK).all()


# -- the classification handed from the sampler to the kernel -----------------

@pytest.mark.parametrize("family", LAW_SAMPLES)
@pytest.mark.parametrize("count, seed", [(1, 0), (1, 5), (7, 1), (7, 3), (1000, 0),
                                         (1000, 8)])
def test_handed_classification_equals_classifying_the_rows(family, count, seed):
    # spatiolateral_contractible takes two blocks at (1, 5), (7, 1) and
    # (1000, 0), and three at (7, 3) and (1000, 8)
    spec = SampleSpec(family=family, count=count, seed=seed)
    V, classes = _sample_classified(spec)
    assert np.array_equal(V, _sample_rows(spec))
    again = _classify_rows(V)
    for name, got, want in zip(_Rows._fields, classes, again):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("family", LAW_SAMPLES)
@pytest.mark.parametrize("count, seed", [(7, 1), (1000, 0), (1000, 8)])
def test_verify_sample_classifies_each_block_once(monkeypatch, capsys, family,
                                                   count, seed):
    blocks, classified = [], []
    draw, classify = samplers._MAKERS[family], samplers._classify_rows

    def drawn(rng, spec, size):
        blocks.append(size)
        return draw(rng, spec, size)

    def counted(V):
        classified.append(len(V))
        return classify(V)

    monkeypatch.setitem(samplers._MAKERS, family, drawn)
    for module in (samplers, trig):
        monkeypatch.setattr(module, "_classify_rows", counted)
    argv = ["verify", "--sample", family, "--count", str(count), "--seed", str(seed)]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == count
    assert classified == blocks
    if family == "spatiolateral_contractible" and count == 1000:
        assert len(blocks) == 2 + (seed == 8)


# -- the rows-last layout ------------------------------------------------------
#
# The array rules copy the vertex rows once into a (coordinate, vertex, row)
# array.  Strided rows, Fortran-ordered rows and rows that are already laid
# out that way, which are not copied, must give the same bytes in every field.

def assert_same_fields(got, want):
    for name, g, w in zip(want._fields, got, want):
        if name == "classes":
            assert_same_fields(g, w)
            continue
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("family", ["mixed", *LAW_SAMPLES])
def test_every_row_layout_gives_the_same_fields(family):
    if family == "mixed":
        V, bands = status_batch(400, 57), no_bands()
    else:
        V = _sample_rows(SampleSpec(family=family, count=300, seed=57))
        bands = contextlib.nullcontext()
    assert V.flags.c_contiguous
    layouts = {
        "every other row": np.repeat(V, 2, axis=0)[::2],
        "Fortran order": np.asfortranarray(V),
        "rows last": np.ascontiguousarray(V.transpose(2, 1, 0)).transpose(2, 1, 0),
    }
    with bands:
        with np.errstate(all="ignore"):  # the rows off the quadric
            want = _classify_rows(V)
            for name, W in layouts.items():
                assert np.array_equal(W, V, equal_nan=True), name
                assert not W.flags.c_contiguous, name
                assert_same_fields(_classify_rows(W), want)
        want = law_batch(V)
        for W in layouts.values():
            assert_same_fields(law_batch(W), want)
