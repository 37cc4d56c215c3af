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
"""

import math

import numpy as np
import pytest

from minktrig.constants import DEFAULT_TOL
from minktrig.errors import (
    DegenerateTriangle,
    MinkTrigError,
    OffSurfaceError,
    UnsupportedFamily,
)
from minktrig.mink import MVec3, apply_matrix, cross, euclid_dot, random_lorentz
from minktrig.polar import polar_triangle, predict_polar_type, prediction_satisfied
from minktrig.samplers import (
    _LAW_SAMPLES,
    _MAKERS,
    FAMILIES,
    SampleSpec,
    _accept_rows,
    _sample_rows,
    sample_triangle,
)
from minktrig.surfaces import Component, SegmentKind, angle
from minktrig.triangles import (
    LawFamily,
    ProperKind,
    Triangle,
    TriangleClass,
    TriangleFamily,
    _classify,
    _classify_rows,
    classify_triangle,
)
from minktrig.trig import DEGENERATE, NO_LAWS, OK, law_batch, trig_report

LENGTH_TOL = 2e-15
RESIDUAL_TOL = 2e-13
LAW_SAMPLES = list(_LAW_SAMPLES)
LAWLESS_SAMPLES = [f for f in FAMILIES if f not in _LAW_SAMPLES and f != "mixed"]
LAWS = list(LawFamily)
COMPONENTS = list(Component)
KINDS = list(SegmentKind)
TRIANGLE_FAMILIES = list(TriangleFamily)
PROPER_KINDS = list(ProperKind)

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
    rows = _classify_rows(V, DEFAULT_TOL)
    for n, t in enumerate(triangles):
        cls, sides, g = _classify(t, DEFAULT_TOL)
        kinds = [KINDS[k] for k in rows.kinds[n]]
        proper, contractible, law = (int(rows.proper_kind[n]), int(rows.contractible[n]),
                                     int(rows.law[n]))
        assert TriangleClass(
            family=TRIANGLE_FAMILIES[rows.family[n]],
            proper_kind=PROPER_KINDS[proper] if proper >= 0 else None,
            side_kinds=tuple(kinds),
            impossible_sides=tuple(label for label, k in zip("abc", kinds)
                                   if k is SegmentKind.EMPTY),
            degenerate=bool(rows.degenerate[n]),
            contractible=bool(contractible) if contractible >= 0 else None,
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
    cls, _, g = _classify(t, DEFAULT_TOL)
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
        cls, _, _ = _classify(t, DEFAULT_TOL)
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
    assert set(batch.families()) == {law}
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


def test_degenerate_spatiolateral_rows_fall_back_to_the_side_sum():
    # three points of one throat circle within half a turn, boosted: all
    # sides spacelike, det 0, and contractible by the side sum (twice the
    # widest arc, below 2 pi)
    rng = np.random.default_rng(50)
    rows = []
    for _ in range(300):
        theta = rng.uniform(0.0, 2.0 * math.pi) + np.sort(rng.uniform(0.0, 2.8, 3))
        m = random_lorentz(rng, max_rapidity=1.0)
        rows.append([apply_matrix(m, MVec3(0.0, math.cos(x), math.sin(x))).as_tuple()
                     for x in theta])
    V = np.array(rows)
    triangles = triangles_of(V)
    assert_classes_match(V, triangles)
    classes = _classify_rows(V, DEFAULT_TOL)
    assert classes.degenerate.all()
    assert (classes.proper_kind == PROPER_KINDS.index(
        ProperKind.SPATIOLATERAL_CONTRACTIBLE)).all()
    assert (law_batch(V).status == DEGENERATE).all()


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
    classes = _classify_rows(V, DEFAULT_TOL)
    assert classes.opposite.any() and classes.lightlike.any()
    assert_classes_match(V, triangles_of(V))


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_single_triangle_views_equal_their_batch_row(family):
    triangles = sample_triangle(SampleSpec(family=family, count=40, seed=45))
    batch = law_batch(rows_of(triangles))
    for n, t in enumerate(triangles):
        r = trig_report(t)
        assert r.family is batch.families()[n]
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
    mask = _accept_rows(spec, V, DEFAULT_TOL)
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
    assert batch.families() == [LawFamily.HYP, LawFamily.HYP]
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
