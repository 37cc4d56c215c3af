"""Polar triangle construction, involution, duality, and type prediction."""

import math

import pytest

from minktrig.errors import PolarNonExistent
from minktrig.mink import minkowski_product
from minktrig.polar import (
    REASON_LIGHTLIKE,
    REASON_OPPOSITE,
    _POLAR_PAIRS,
    _polar_type,
    polar_triangle,
    predict_polar_type,
    prediction_satisfied,
)
from minktrig.samplers import SampleSpec, sample_triangle
from minktrig.surfaces import angle, distance, surface_point
from minktrig.triangles import Triangle, classify_triangle

from conftest import SQRT2, SQRT3, j_transform, vec


def tri(*vecs):
    return Triangle.from_vectors(*(vec(*v) for v in vecs))


HYP_FIXTURE = tri((SQRT2, 1, 0), (SQRT2, 0, 1), (SQRT2, -1, 0))


class TestExistence:
    def test_opposite_vertices(self):
        with pytest.raises(PolarNonExistent) as exc:
            polar_triangle(tri((0, 1, 0), (0, -1, 0), (0, 0, 1)))
        assert exc.value.reason == REASON_OPPOSITE

    def test_photosceles_lightlike_side_plane(self):
        t = sample_triangle(
            SampleSpec(family="photosceles_spacelike_base", count=1, seed=1)
        )[0]
        with pytest.raises(PolarNonExistent) as exc:
            polar_triangle(t)
        assert exc.value.reason == REASON_LIGHTLIKE

    def test_hyperbolic_triangle_has_polar(self):
        assert polar_triangle(HYP_FIXTURE).vertices is not None

    def test_nonexistent_exactly_when_classification_flags_it(self):
        for t in sample_triangle(SampleSpec(family="mixed", count=300, seed=17)):
            cls, _ = classify_triangle(t)
            if cls.has_opposite_vertices or cls.has_lightlike_side_plane:
                with pytest.raises(PolarNonExistent):
                    polar_triangle(t)
            else:
                polar_triangle(t)


class TestConstruction:
    def test_hyperbolic_fixture(self):
        res = polar_triangle(HYP_FIXTURE)
        assert res.epsilon == 1
        expected = (1 / SQRT3, -SQRT2 / SQRT3, -SQRT2 / SQRT3)
        assert res.vertices[2].as_tuple() == pytest.approx(expected, abs=1e-12)
        for v in res.vertices:
            assert abs(minkowski_product(v, v)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_gives_zero_triangle(self):
        res = polar_triangle(tri((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2)))
        assert res.zero_triangle and res.epsilon == 0 and res.vertices is None

    def test_nonexistent_raises(self):
        with pytest.raises(PolarNonExistent):
            polar_triangle(tri((0, 1, 0), (0, -1, 0), (0, 0, 1)))

    def test_vertex_order_independence(self):
        r1 = polar_triangle(HYP_FIXTURE)
        a, b, c = HYP_FIXTURE.vertices()
        r2 = polar_triangle(Triangle(b, c, a))
        assert r2.epsilon == r1.epsilon
        # cyclic shift of vertices yields the same cyclic shift of the polar
        for got, want in zip(r2.vertices, (r1.vertices[1], r1.vertices[2],
                                           r1.vertices[0])):
            assert got.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-12)

    def test_involution_on_fixture(self):
        res = polar_triangle(HYP_FIXTURE)
        back = polar_triangle(Triangle.from_vectors(*res.vertices))
        for got, want in zip(back.vertices,
                             (v.coords for v in HYP_FIXTURE.vertices())):
            assert got.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-9)
        assert back.epsilon == res.epsilon

    def test_involution_and_epsilon_on_samples(self):
        count = 0
        for t in sample_triangle(SampleSpec(family="mixed", count=60, seed=3)):
            try:
                res = polar_triangle(t)
            except PolarNonExistent:
                continue
            if res.zero_triangle:
                continue
            back = polar_triangle(Triangle.from_vectors(*res.vertices))
            assert back.epsilon == res.epsilon
            for got, want in zip(back.vertices,
                                 (v.coords for v in t.vertices())):
                assert (got - want).euclid_norm() < 1e-9
            count += 1
        assert count > 10


class TestMinkowskiDiagnostic:
    def test_preserves_lengths_and_type(self):
        # J moves the polar vertices to the alternative Minkowski position
        res = polar_triangle(HYP_FIXTURE)
        alt = tuple(j_transform(v) for v in res.vertices)
        pts = [surface_point(v) for v in res.vertices]
        alt_pts = [surface_point(v) for v in alt]
        for (i, j) in ((0, 1), (1, 2), (0, 2)):
            assert distance(alt_pts[i], alt_pts[j]) == pytest.approx(
                distance(pts[i], pts[j]), abs=1e-12
            )
        c1, _ = classify_triangle(Triangle.from_vectors(*res.vertices))
        c2, _ = classify_triangle(Triangle.from_vectors(*alt))
        assert (c1.family, c1.proper_kind) == (c2.family, c2.proper_kind)


class TestDualityLemma:
    def test_angle_is_pi_minus_polar_side(self):
        for t in sample_triangle(SampleSpec(family="hyperbolic", count=30, seed=5)):
            a, b, c = t.vertices()
            res = polar_triangle(t)
            pv = [surface_point(v) for v in res.vertices]
            pairs = [
                (angle(b, a, c), distance(pv[1], pv[2])),
                (angle(a, b, c), distance(pv[0], pv[2])),
                (angle(a, c, b), distance(pv[0], pv[1])),
            ]
            for alpha, a_prime in pairs:
                assert alpha == pytest.approx(math.pi - a_prime, abs=1e-9)

    def test_side_is_polar_angle(self):
        for t in sample_triangle(SampleSpec(family="hyperbolic", count=30, seed=7)):
            a, b, c = t.vertices()
            pv = [surface_point(v) for v in polar_triangle(t).vertices]
            pairs = [
                (distance(b, c), angle(pv[1], pv[0], pv[2])),
                (distance(a, c), angle(pv[0], pv[1], pv[2])),
                (distance(a, b), angle(pv[0], pv[2], pv[1])),
            ]
            for side, alpha_prime in pairs:
                assert side == pytest.approx(alpha_prime, abs=1e-9)


class TestTypePrediction:
    def test_hyperbolic_maps_to_noncontractible_spatiolateral(self):
        cls, _ = classify_triangle(HYP_FIXTURE)
        pred = predict_polar_type(cls)
        pcls, _ = classify_triangle(
            Triangle.from_vectors(*polar_triangle(HYP_FIXTURE).vertices)
        )
        assert prediction_satisfied(pred, pcls)

    def test_photosceles_predicted_nonexistent(self):
        t = sample_triangle(
            SampleSpec(family="photosceles_timelike_base", count=1, seed=9)
        )[0]
        cls, _ = classify_triangle(t)
        assert predict_polar_type(cls).nonexistent

    def test_lightlike_families_all_nonexistent(self):
        for fam in ("lucilateral", "bimetrical_chorosceles",
                    "bimetrical_chronosceles", "multiple"):
            for t in sample_triangle(SampleSpec(family=fam, count=10, seed=11)):
                cls, _ = classify_triangle(t)
                assert predict_polar_type(cls).nonexistent
                with pytest.raises(PolarNonExistent):
                    polar_triangle(t)

    def test_prediction_holds_on_mixed_samples(self):
        for t in sample_triangle(SampleSpec(family="mixed", count=120, seed=13)):
            cls, _ = classify_triangle(t)
            pred = predict_polar_type(cls)
            if pred.nonexistent:
                with pytest.raises(PolarNonExistent):
                    polar_triangle(t)
                continue
            res = polar_triangle(t)
            if pred.zero_triangle:
                assert res.zero_triangle
                continue
            assert not res.zero_triangle
            pcls, _ = classify_triangle(Triangle.from_vectors(*res.vertices))
            assert prediction_satisfied(pred, pcls), (cls, pcls)

    def test_pairs_on_mixed_samples_are_the_table(self):
        # the classes of actual polar triangles are the oracle: every pair of
        # the table, read both ways, occurs, and no other pair does
        seen = set()
        for t in sample_triangle(SampleSpec(family="mixed", count=3000, seed=13)):
            try:
                res = polar_triangle(t)
            except PolarNonExistent:
                continue
            if res.zero_triangle:
                continue
            cls, _ = classify_triangle(t)
            pcls, _ = classify_triangle(Triangle.from_vectors(*res.vertices))
            seen.add((_polar_type(cls), _polar_type(pcls)))
        table = set(_POLAR_PAIRS) | {(b, a) for a, b in _POLAR_PAIRS}
        assert len(table) == 20
        assert seen == table
