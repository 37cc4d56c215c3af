"""Taxonomy, degeneracy, contractibility, and the triangle inequality."""

import copy
import dataclasses
import math

import pytest

from minktrig.errors import (
    DegenerateTriangle,
    DuplicateVertices,
    NotSpatiolateral,
    OffSurfaceError,
)
from minktrig.samplers import SampleSpec, sample_triangle
from minktrig.surfaces import (
    SegmentKind,
    distance,
    segment_kind,
    tangent_vector,
)
from minktrig.triangles import (
    ProperKind,
    Triangle,
    TriangleFamily,
    classify_triangle,
    is_contractible,
    triangle_inequality_report,
)

from conftest import SQRT2, SQRT3, apply_matrix, random_lorentz, vec


def tri(*vecs):
    return Triangle.from_vectors(*(vec(*v) for v in vecs))


W_PLUS = (1 / 7, 5 / 7, 5 / 7)
W_MINUS = (-1 / 7, -5 / 7, -5 / 7)
CHRONO_W = (30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82)


class TestConstruction:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(DuplicateVertices):
            tri((0, 1, 0), (0, 1, 0), (0, 0, 1))

    def test_slotted_values_keep_value_semantics(self):
        t = tri((0, 1, 0), (0, 0, 1), W_PLUS)
        twin = tri((0, 1, 0), (0, 0, 1), W_PLUS)
        A = t.A
        for value, same, field in ((A.coords, twin.A.coords, "x1"),
                                   (A, twin.A, "coords"), (t, twin, "A")):
            assert not hasattr(value, "__dict__")
            assert value == same and value is not same
            assert hash(value) == hash(same)
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            fields = ", ".join(f"{f.name}={getattr(value, f.name)!r}"
                               for f in dataclasses.fields(value))
            assert repr(value) == f"{type(value).__name__}({fields})"
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, None)
        assert t != tri((0, 1, 0), (0, 0, 1), W_MINUS)
        assert repr(A) == ("SurfacePoint(coords=MVec3(x1=0.0, x2=1.0, x3=0.0), "
                           "component=<Component.DE_SITTER: 'de_sitter'>)")
        assert len({t, twin}) == 1
        with pytest.raises(DuplicateVertices):
            Triangle(A, twin.B, A)


class TestClassify:
    def test_contractible_spatiolateral_fixture(self):
        cls, _ = classify_triangle(tri((0, 1, 0), (0, 0, 1), W_PLUS))
        assert cls.proper_kind is ProperKind.SPATIOLATERAL_CONTRACTIBLE

    def test_noncontractible_spatiolateral_fixture(self):
        cls, _ = classify_triangle(tri((0, 1, 0), (0, 0, 1), W_MINUS))
        assert cls.proper_kind is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE

    def test_chronosceles_fixture(self):
        cls, sides = classify_triangle(tri((0, 1, 0), (0, 0, 1), CHRONO_W))
        assert cls.proper_kind is ProperKind.CHRONOSCELES
        assert [s.label for s in sides] == ["a", "b", "c"]

    def test_strange_triangle(self):
        cls, _ = classify_triangle(tri((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert cls.family is TriangleFamily.STRANGE

    def test_light_cone_point_keeps_timelike_length(self):
        # <<A, C>> = 1e10: the side is timelike and its length is arcosh of
        # that same product, even though A - C is nearly lightlike
        cls, sides = classify_triangle(tri((0, 1, 0), (0, 0, 1), (1e10, 1e10, 1)))
        assert cls.proper_kind is ProperKind.MULTIPLE
        assert sides[1].kind is SegmentKind.DE_SITTER_TIMELIKE
        assert sides[1].length == math.acosh(1e10)

    def test_side_reports_are_segment_views(self):
        for t in sample_triangle(SampleSpec(family="mixed", count=300, seed=17)):
            _, sides = classify_triangle(t)
            for s, (p, q) in zip(sides, t.side_endpoints()):
                assert (s.kind, s.length) == (segment_kind(p, q), distance(p, q))

    def test_vertex_permutation_invariance(self):
        t1 = tri((0, 1, 0), (0, 0, 1), CHRONO_W)
        t2 = tri(CHRONO_W, (0, 1, 0), (0, 0, 1))
        c1, _ = classify_triangle(t1)
        c2, _ = classify_triangle(t2)
        assert c1.family == c2.family
        assert c1.proper_kind == c2.proper_kind

    def test_lorentz_invariance(self, rng):
        t = tri((0, 1, 0), (0, 0, 1), W_PLUS)
        c1, _ = classify_triangle(t)
        m = random_lorentz(rng)
        t2 = Triangle.from_vectors(*(apply_matrix(m, v.coords) for v in t.vertices()))
        c2, _ = classify_triangle(t2)
        assert (c1.family, c1.proper_kind) == (c2.family, c2.proper_kind)


class TestDegenerate:
    def test_coplanar_with_origin(self):
        t = tri((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2))
        assert classify_triangle(t)[0].degenerate

    def test_contractible_fixture_not_degenerate(self):
        assert not classify_triangle(tri((0, 1, 0), (0, 0, 1), W_PLUS))[0].degenerate

    def test_lucilateral_always_degenerate(self):
        for t in sample_triangle(SampleSpec(family="lucilateral", count=30, seed=3)):
            assert classify_triangle(t)[0].degenerate


class TestContractibility:
    def test_fixtures(self):
        assert is_contractible(tri((0, 1, 0), (0, 0, 1), W_PLUS))
        assert not is_contractible(tri((0, 1, 0), (0, 0, 1), W_MINUS))

    def test_throat_equilateral_is_noncontractible(self):
        # vertices at thirds of the throat circle, pushed slightly off the
        # degenerate plane; and on it, boosted in x1-x2 to rapidity 3, where
        # the side sum, exactly 2 pi, rounds to 2 pi - 8.9e-15
        for eps, rapidity in ((0.05, 0.0), (0.0, 3.0)):
            ch, sh = math.cosh(rapidity), math.sinh(rapidity)
            pts = []
            for k, s in zip(range(3), (eps, -eps, eps)):
                th = 2 * math.pi * k / 3
                x1, x2 = math.sinh(s), math.cosh(s) * math.cos(th)
                pts.append((ch * x1 + sh * x2, sh * x1 + ch * x2,
                            math.cosh(s) * math.sin(th)))
            t = tri(*pts)
            cls, _ = classify_triangle(t)
            assert cls.proper_kind is ProperKind.SPATIOLATERAL_NONCONTRACTIBLE
            assert cls.degenerate is (eps == 0.0)
            if eps:
                assert not is_contractible(t)

    def test_reversed_orientation_keeps_verdict(self):
        # reversing the loop permutes the vertices, and the anchor with them
        for fam in ("spatiolateral_contractible", "spatiolateral_noncontractible"):
            for t in sample_triangle(SampleSpec(family=fam, count=20, seed=9)):
                reverse = Triangle(t.C, t.B, t.A)
                assert is_contractible(reverse) == is_contractible(t)

    def test_infinite_vertex_is_off_surface(self):
        with pytest.raises(OffSurfaceError):
            tri((0, 1, 0), (0, 0, 1), (math.inf, 1, 0))

    def test_requires_spatiolateral(self):
        with pytest.raises(NotSpatiolateral):
            is_contractible(tri((0, 1, 0), (0, 0, 1), CHRONO_W))

    def test_requires_non_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            is_contractible(tri((0, 1, 0), (0, 0, 1), (0, SQRT2 / 2, SQRT2 / 2)))

    def test_agrees_with_side_sum_criterion(self):
        for fam in ("spatiolateral_contractible", "spatiolateral_noncontractible"):
            for t in sample_triangle(SampleSpec(family=fam, count=50, seed=5)):
                _, sides = classify_triangle(t)
                total = sum(s.length for s in sides)
                assert is_contractible(t) == (total < 2 * math.pi)


class TestTempolateralStructure:
    def test_apex_unique(self):
        # exactly one vertex sees the other two in opposite time directions
        for t in sample_triangle(SampleSpec(family="tempolateral", count=50, seed=7)):
            apexes = 0
            verts = t.vertices()
            for i in range(3):
                others = [verts[j] for j in range(3) if j != i]
                s = [tangent_vector(verts[i], o).x1 > 0 for o in others]
                apexes += s[0] != s[1]
            assert apexes == 1

    def test_apex_side_dominates(self):
        from minktrig.trig import law_batch

        triangles = sample_triangle(SampleSpec(family="tempolateral", count=50, seed=9))
        batch = law_batch([[v.coords.as_tuple() for v in t.vertices()]
                           for t in triangles])
        for a, b, c in batch.sides.tolist():
            assert a > b + c


class TestInequality:
    def test_worked_examples(self):
        sixth = 6 * math.pi / 25
        cases = [
            (tri((0, 1, 0), (0, 0, 1), CHRONO_W), False),
            (tri((0, 1, 0), (0, SQRT3 / 2, -0.5), (41, 29, 29)), False),
            (tri((0, 1, 0), (0, SQRT2 / 2, SQRT2 / 2), (41, 29, 29)), True),
            (tri((1, 0, SQRT2), (-1, 0, SQRT2), (0, SQRT3 / 2, 0.5)), False),
            (tri((0, 1, 0), (20 / 21, 0, 29 / 21),
                 (0, math.cos(sixth), math.sin(sixth))), False),
            (tri((1, 0, SQRT2), (0, 0, 1), (0, SQRT3 / 2, 0.5)), True),
        ]
        for t, expected in cases:
            assert triangle_inequality_report(t).holds is expected

    def test_chronosceles_fixture_lengths(self):
        rep = triangle_inequality_report(tri((0, 1, 0), (0, 0, 1), CHRONO_W))
        assert rep.lengths[0] + rep.lengths[1] < rep.lengths[2]

    def test_prediction_matches_outcome_per_family(self):
        families = (
            "hyperbolic", "antipodal_hyperbolic", "tempolateral",
            "spatiolateral_contractible", "spatiolateral_noncontractible",
            "lucilateral", "photosceles_spacelike_base",
            "photosceles_timelike_base", "strange", "impossible",
        )
        for fam in families:
            for t in sample_triangle(SampleSpec(family=fam, count=20, seed=11)):
                rep = triangle_inequality_report(t)
                if fam in ("strange", "impossible"):
                    assert rep.predicted is not None, fam
                if rep.predicted is not None:
                    assert rep.predicted == rep.holds, fam

    def test_contractible_has_one_dominant_side(self):
        spec = SampleSpec(family="spatiolateral_contractible", count=50, seed=13)
        for t in sample_triangle(spec):
            a, b, c = triangle_inequality_report(t).lengths
            dominant = sum([a > b + c, b > a + c, c > a + b])
            assert dominant == 1

    def test_bimetrical_prediction_is_isosceles_criterion(self):
        for fam in ("bimetrical_chorosceles", "bimetrical_chronosceles"):
            for t in sample_triangle(SampleSpec(family=fam, count=20, seed=15)):
                rep = triangle_inequality_report(t)
                finite = sorted(x for x in rep.lengths if x > 0.0)
                isosceles = abs(finite[0] - finite[1]) <= 1e-9
                assert rep.predicted == isosceles
                assert rep.holds == rep.predicted
