"""Laws of cosines and sines, sum theorems, and the duality transport.

Sides and angles are read off law_batch rows, in each family's canonical
labeling; single-triangle checks go through trig_report.
"""

import math

import pytest

from minktrig.errors import DegenerateTriangle, UnsupportedFamily
from minktrig.mink import MVec3, cross, euclid_dot, minkowski_norm
from minktrig.polar import polar_triangle
from minktrig.samplers import SampleSpec, sample_triangle
from minktrig.surfaces import Component, distance, tangent_vector
from minktrig.triangles import Triangle
from minktrig.trig import _FAMILIES, _LAWS, SINE, LawFamily, law_batch, trig_report

from conftest import SQRT2, law_families, vec


def tri(*vecs):
    return Triangle.from_vectors(*(vec(*v) for v in vecs))


def measured(*triangles):
    """law_batch of the triangles, every row of which must be OK."""
    batch = law_batch([[v.coords.as_tuple() for v in t.vertices()] for t in triangles])
    batch.raise_first()
    return batch


def det3(a: MVec3, b: MVec3, c: MVec3) -> float:
    """det of the matrix with columns a, b, c, as (a x b) . c."""
    return euclid_dot(cross(a, b), c)


HYP_FIXTURE = tri((SQRT2, 1, 0), (SQRT2, 0, 1), (SQRT2, -1, 0))
SPATIO_C_FIXTURE = tri((0, 1, 0), (0, 0, 1), (1 / 7, 5 / 7, 5 / 7))
SPATIO_NC_FIXTURE = tri((0, 1, 0), (0, 0, 1), (-1 / 7, -5 / 7, -5 / 7))


class TestMeasure:
    def test_hyperbolic_fixture_sides(self):
        b = measured(HYP_FIXTURE)
        assert law_families(b) == [LawFamily.HYP]
        assert sorted(b.sides[0]) == pytest.approx(
            sorted([math.acosh(2), math.acosh(3), math.acosh(2)]), abs=1e-12
        )

    def test_contractible_fixture_sides(self):
        b = measured(SPATIO_C_FIXTURE)
        assert law_families(b) == [LawFamily.SPATIO_C]
        assert sorted(b.sides[0]) == pytest.approx(
            sorted([math.acos(5 / 7), math.acos(5 / 7), math.pi / 2]), abs=1e-12
        )

    def test_noncontractible_fixture_sides(self):
        b = measured(SPATIO_NC_FIXTURE)
        assert law_families(b) == [LawFamily.SPATIO_NC]
        assert sorted(b.sides[0]) == pytest.approx(
            sorted([math.acos(-5 / 7), math.acos(-5 / 7), math.pi / 2]), abs=1e-12
        )
        assert sum(b.sides[0]) == pytest.approx(6.303, abs=1e-3)

    def test_tempolateral_apex_relabeled_to_a(self):
        # the apex sees the other two vertices in opposite time directions;
        # side a, opposite it after relabeling, dominates the other two
        triangles = sample_triangle(SampleSpec(family="tempolateral", count=20, seed=1))
        b = measured(*triangles)
        for t, sides in zip(triangles, b.sides.tolist()):
            verts = t.vertices()
            apex = [i for i in range(3)
                    if len({tangent_vector(verts[i], verts[j]).x1 > 0
                            for j in range(3) if j != i}) == 2]
            assert len(apex) == 1
            others = [verts[j] for j in range(3) if j != apex[0]]
            assert sides[0] == pytest.approx(distance(*others), rel=0, abs=1e-12)
            assert sides[0] > sides[1] + sides[2]

    def test_contractible_anchor_recorded(self):
        # the anchor is the vertex whose polar vertex sits alone on its
        # hyperboloid sheet; its opposite side becomes side a
        b = measured(SPATIO_C_FIXTURE)
        assert b.hits[0] == 1
        sheets = [v.component for v in
                  tri(*(v.as_tuple() for v in polar_triangle(SPATIO_C_FIXTURE).vertices))
                  .vertices()]
        anchor = [i for i in range(3) if sheets.count(sheets[i]) == 1]
        assert len(anchor) == 1 and sheets[anchor[0]] is not Component.DE_SITTER
        verts = SPATIO_C_FIXTURE.vertices()
        others = [verts[j] for j in range(3) if j != anchor[0]]
        assert b.sides[0, 0] == pytest.approx(distance(*others), rel=0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            trig_report(tri((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2)))

    def test_unsupported_family_rejected(self):
        chrono = tri((0, 1, 0), (0, 0, 1),
                     (30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82))
        with pytest.raises(UnsupportedFamily):
            trig_report(chrono)


class TestLawResiduals:
    def test_fixture_residuals(self):
        b = measured(HYP_FIXTURE, SPATIO_C_FIXTURE, SPATIO_NC_FIXTURE)
        assert b.lcs.max() < 1e-10
        assert b.lca.max() < 1e-10

    @pytest.mark.parametrize("family", [
        "hyperbolic", "antipodal_hyperbolic", "spatiolateral_contractible",
        "spatiolateral_noncontractible", "tempolateral",
    ])
    def test_sampled_residuals(self, family):
        for t in sample_triangle(SampleSpec(family=family, count=50, seed=17)):
            r = trig_report(t)
            assert r.max_residual() < 1e-9

    def test_suspect_third_angle_equation_variant_fails(self):
        # the non-contractible law-of-cosines-for-angles system closes with
        # cos(c) in its third equation; the cos(b) variant does not
        found_asymmetric = False
        spec = SampleSpec(family="spatiolateral_noncontractible", count=20, seed=19)
        b = measured(*sample_triangle(spec))
        for (a, b_, c), (al, be, ga) in zip(b.sides.tolist(), b.angles.tolist()):
            if abs(b_ - c) < 0.05:
                continue
            found_asymmetric = True
            good = abs(math.cosh(ga) - (math.cosh(al) * math.cosh(be)
                                        + math.cos(c) * math.sinh(al) * math.sinh(be)))
            bad = abs(math.cosh(ga) - (math.cosh(al) * math.cosh(be)
                                       + math.cos(b_) * math.sinh(al) * math.sinh(be)))
            assert good < 1e-9
            assert bad > 1e-6
        assert found_asymmetric


class TestSines:
    def test_hyperbolic_fixture_value(self):
        ratios = trig_report(HYP_FIXTURE).sines_ratios
        expected = 2 * SQRT2 / (math.sqrt(3) * math.sqrt(8) * math.sqrt(3))
        for r in ratios:
            assert r == pytest.approx(expected, abs=1e-12)

    def test_ratios_equal_det_expression(self):
        for fam in ("hyperbolic", "spatiolateral_contractible", "tempolateral"):
            for t in sample_triangle(SampleSpec(family=fam, count=20, seed=21)):
                ratios = trig_report(t).sines_ratios
                A, B, C = (v.coords for v in t.vertices())
                expected = abs(det3(A, B, C)) / (
                    minkowski_norm(cross(A, B)) * minkowski_norm(cross(B, C))
                    * minkowski_norm(cross(C, A))
                )
                for r in ratios:
                    assert r == pytest.approx(expected, abs=1e-9)

    def test_vanishing_denominator_refused(self):
        # B is 1e-8 from A, so <<A, B>> rounds to -1 and side c measures 0;
        # det(A, B, C) is still well outside the degeneracy band
        d = 1e-8
        t = tri((1, 0, 0), (math.cosh(d), math.sinh(d), 0),
                (math.cosh(1), 0, math.sinh(1)))
        b = law_batch([[v.coords.as_tuple() for v in t.vertices()]])
        assert b.status.tolist() == [SINE]
        with pytest.raises(DegenerateTriangle, match="vanishing denominator"):
            trig_report(t)


class TestSumTheorems:
    def test_hyperbolic_angle_sum_below_pi(self):
        for t in sample_triangle(SampleSpec(family="hyperbolic", count=50, seed=23)):
            assert trig_report(t).angle_sum < math.pi

    def test_thin_triangle_sum_approaches_pi(self):
        eps = 1e-3
        t = tri((1, 0, 0), (math.cosh(eps), math.sinh(eps), 0),
                (math.cosh(eps), math.sinh(eps) * math.cos(1e-2),
                 math.sinh(eps) * math.sin(1e-2)))
        assert trig_report(t).angle_sum > math.pi - 1e-2

    def test_boosted_apart_sum_near_zero(self):
        r = 5.0
        t = tri((math.cosh(r), math.sinh(r), 0),
                (math.cosh(r), -math.sinh(r), 0),
                (math.cosh(r), 0, math.sinh(r)))
        assert trig_report(t).angle_sum < 0.1

    def test_side_sum_dichotomy(self):
        assert trig_report(SPATIO_C_FIXTURE).side_sum < 2 * math.pi
        assert trig_report(SPATIO_NC_FIXTURE).side_sum > 2 * math.pi

    def test_every_spacelike_side_below_pi(self):
        assert (measured(SPATIO_C_FIXTURE, SPATIO_NC_FIXTURE).sides < math.pi).all()

    def test_sums_reported_only_for_their_family(self):
        assert trig_report(HYP_FIXTURE).side_sum is None
        assert trig_report(SPATIO_C_FIXTURE).angle_sum is None


class TestDualityTransport:
    def test_hyperbolic_laws_transport_to_polar(self):
        # substituting alpha = pi - a' and a = alpha' turns the hyperbolic
        # law of cosines into the spatiolateral one for the polar triangle:
        # cos a' = cos b' cos c' - cosh alpha' sin b' sin c'
        triangles = sample_triangle(SampleSpec(family="hyperbolic", count=20, seed=25))
        polars = [Triangle.from_vectors(*polar_triangle(t).vertices) for t in triangles]
        assert set(law_families(measured(*polars))) == {LawFamily.SPATIO_NC}
        b = measured(*triangles)
        for sides, angles in zip(b.sides.tolist(), b.angles.tolist()):
            ps = [math.pi - x for x in angles]
            for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                residual = abs(math.cos(ps[i]) - (
                    math.cos(ps[j]) * math.cos(ps[k])
                    - math.cosh(sides[i]) * math.sin(ps[j]) * math.sin(ps[k])))
                assert residual < 1e-9

    # A hyperbolic triangle's polar is spatiolateral non-contractible, whose
    # polar is hyperbolic again (criterion 4).  For each family: its polar's
    # family, whether the polar sides are pi minus the angles (a' = pi -
    # alpha, else a' = alpha), and whether the polar angles are pi minus the
    # sides (alpha' = pi - a, else alpha' = a).
    POLAR_SUBSTITUTIONS = {
        LawFamily.HYP: (LawFamily.SPATIO_NC, True, False),
        LawFamily.SPATIO_NC: (LawFamily.HYP, False, True),
    }

    @pytest.mark.parametrize("family", list(POLAR_SUBSTITUTIONS))
    def test_angle_laws_follow_from_the_polar_side_laws(self, family):
        # The polar's law of cosines for sides,
        #     sc'(a') = p' sc'(b') sc'(c') + lcs'[a] ac'(alpha') ss'(b') ss'(c'),
        # after the substitution, with cos(pi - x) = -cos x and
        # sin(pi - x) = sin x, is the family's law of cosines for angles,
        #     ac(alpha) = s1 p' ac(beta) ac(gamma)
        #                 + s1 s2 lcs'[a] sc(a) as(beta) as(gamma),
        # where s1 = -1 if the sides flip and s2 = -1 if the angles do.
        polar, sides_flip, angles_flip = self.POLAR_SUBSTITUTIONS[family]
        theirs = list(_LAWS[_FAMILIES.index(polar)])
        # pi - x appears only in cos and sin, never in cosh and sinh
        assert not (sides_flip and theirs[0]) and not (angles_flip and theirs[1])
        s1, s2 = (-1.0 if flip else 1.0 for flip in (sides_flip, angles_flip))
        derived = [theirs[0], s1 * theirs[2], *(s1 * s2 * x for x in theirs[4:7])]
        own = list(_LAWS[_FAMILIES.index(family)])
        # the angle function, lca_product and lca a, b, c columns
        assert [own[1], own[3], *own[7:]] == derived


class TestDegenerateLimits:
    def test_degenerate_hyperbolic_collapses_to_additive_rule(self):
        # three aligned points on one geodesic: the law reduces to
        # cosh(a) = cosh(b + c)
        a = (1, 0, 0)
        b = (math.cosh(0.8), math.sinh(0.8), 0)
        c = (math.cosh(2.0), math.sinh(2.0), 0)
        from minktrig.surfaces import distance, surface_point

        pa, pb, pc = (surface_point(vec(*v)) for v in (a, b, c))
        assert distance(pa, pc) == pytest.approx(
            distance(pa, pb) + distance(pb, pc), abs=1e-12
        )
