"""The array law path against the scalar classifier and a written-out reference.

The samplers draw the five law families in blocks and accept them with array
versions of the classifier's checks; trig.law_batch measures the accepted rows
and evaluates their laws.  Here both are held to the scalar path:

- side kinds, vertex components, winding numbers, law families, the apex and
  the anchor must be identical;
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
from minktrig.errors import DegenerateTriangle, MinkTrigError, UnsupportedFamily
from minktrig.mink import MVec3
from minktrig.samplers import (
    _BLOCK_CANDIDATES,
    _BLOCK_KINDS,
    SampleSpec,
    _accept_rows,
    _accepts,
    _components,
    _sample_rows,
    _side_kinds,
    _winding_number,
    sample_triangle,
)
from minktrig.surfaces import Component, SegmentKind, angle
from minktrig.triangles import Triangle, _classify
from minktrig.triangles import _winding_number as scalar_winding_number
from minktrig.trig import (
    LawFamily,
    _law_family,
    _products,
    law_batch,
    law_batch_of,
    measure,
    trig_report,
)

LENGTH_TOL = 2e-15
RESIDUAL_TOL = 2e-13
LAW_SAMPLES = list(_BLOCK_KINDS)
FAMILIES = list(LawFamily)
COMPONENTS = (Component.H2, Component.NEG_H2, Component.DE_SITTER)
KINDS = list(SegmentKind)

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


def reference(t):
    """Family, sides, angles and residuals the scalar way: the classifier's
    sides, the apex or anchor by the sign of r_i = p_i - p_j p_k, each angle
    from surfaces.angle, and the laws as written out above."""
    cls, _, g = _classify(t, DEFAULT_TOL)
    family = _law_family(cls)
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
    return family, first, sides, angles, res_lcs + res_lca + ratios


def assert_matches_reference(triangles, batch):
    assert (batch.status == 0).all()
    for n, t in enumerate(triangles):
        family, first, sides, angles, values = reference(t)
        assert FAMILIES[batch.family[n]] is family
        if family in (LawFamily.TEMPO, LawFamily.SPATIO_C):
            assert batch.hits[n] == 1
        assert batch.sides[n] == pytest.approx(sides, rel=0, abs=LENGTH_TOL)
        assert batch.angles[n] == pytest.approx(angles, rel=0, abs=LENGTH_TOL)
        got = list(batch.lcs[n]) + list(batch.lca[n]) + list(batch.ratios[n])
        assert got == pytest.approx(values, rel=0, abs=RESIDUAL_TOL)


def assert_geometry_matches_classifier(V, triangles):
    """Components, side kinds and winding numbers of the array rule against
    the scalar classifier, row by row."""
    comp = _components(V, DEFAULT_TOL)
    p, n, n2 = _products(V)
    kinds = _side_kinds(V, comp, p, n, n2, DEFAULT_TOL)
    winding = _winding_number(V)
    for row, t in enumerate(triangles):
        cls, sides, g = _classify(t, DEFAULT_TOL)
        assert [COMPONENTS[c] for c in comp[row]] == list(cls.vertex_components)
        assert [KINDS[k] for k in kinds[row]] == [s.kind for s in sides]
        if cls.contractible is not None and not cls.degenerate:
            assert winding[row] == scalar_winding_number(t)


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_block_rows_match_the_scalar_path(family):
    V, codes = _sample_rows(SampleSpec(family=family, count=1000, seed=41))
    triangles = triangles_of(V)
    assert_geometry_matches_classifier(V, triangles)
    assert all(FAMILIES[f] is _BLOCK_KINDS[family][1] for f in codes)
    assert_matches_reference(triangles, law_batch(V, codes))


@pytest.mark.parametrize("seed", [43, 44])
def test_mixed_batch_matches_the_scalar_path(seed):
    triangles = sample_triangle(SampleSpec(family="mixed", count=1500, seed=seed))
    assert_geometry_matches_classifier(rows_of(triangles), triangles)
    law_rows = []
    for t in triangles:
        try:
            _law_family(_classify(t, DEFAULT_TOL)[0])
        except MinkTrigError:
            continue
        law_rows.append(t)
    assert len(law_rows) > 400
    assert_matches_reference(law_rows, law_batch_of(law_rows))


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_single_triangle_views_equal_their_batch_row(family):
    triangles = sample_triangle(SampleSpec(family=family, count=40, seed=45))
    batch = law_batch_of(triangles)
    for n, t in enumerate(triangles):
        r = trig_report(t)
        m = measure(t)
        assert r.family is m.family is FAMILIES[batch.family[n]]
        assert list(m.sides) == batch.sides[n].tolist()
        assert list(m.angles) == batch.angles[n].tolist()
        assert list(r.lcs_residuals) == batch.lcs[n].tolist()
        assert list(r.lca_residuals) == batch.lca[n].tolist()
        assert list(r.sines_ratios) == batch.ratios[n].tolist()
        assert r.max_residual() == batch.max_residual[n]
        assert r.angle_sum == batch.angle_sums()[n]
        assert r.side_sum == batch.side_sums()[n]


@pytest.mark.parametrize("family", LAW_SAMPLES)
def test_block_acceptance_matches_scalar_accepts(family):
    spec = SampleSpec(family=family, count=1000, seed=47)
    for t in sample_triangle(spec):
        assert _accepts(spec, t, DEFAULT_TOL)
    # and candidate by candidate, rejections included
    V = _BLOCK_CANDIDATES[family](np.random.default_rng(48), spec, 2000)
    mask = _accept_rows(spec, V, DEFAULT_TOL)
    for row, accepted in zip(V.tolist(), mask.tolist()):
        try:
            t = Triangle.from_vectors(*(MVec3(*v) for v in row))
        except MinkTrigError:
            assert not accepted
            continue
        assert _accepts(spec, t, DEFAULT_TOL) == accepted
    if family == "spatiolateral_contractible":
        assert 0.3 < mask.mean() < 0.8  # both verdicts occur


def test_first_failing_row_raises_its_scalar_error():
    hyp = Triangle.from_vectors(MVec3(math.sqrt(2), 1, 0), MVec3(math.sqrt(2), 0, 1),
                                MVec3(math.sqrt(2), -1, 0))
    degenerate = Triangle.from_vectors(MVec3(0, 1, 0), MVec3(0, 0, 1),
                                       MVec3(0, math.sqrt(0.5), math.sqrt(0.5)))
    chrono = Triangle.from_vectors(
        MVec3(0, 1, 0), MVec3(0, 0, 1),
        MVec3(30 * math.sqrt(2) / 41, 59 * math.sqrt(2) / 82, 59 * math.sqrt(2) / 82))
    with pytest.raises(DegenerateTriangle):
        law_batch_of([hyp, degenerate, chrono])
    with pytest.raises(UnsupportedFamily):
        law_batch_of([hyp, chrono, degenerate])
    assert law_batch_of([]).status.shape == (0,)
