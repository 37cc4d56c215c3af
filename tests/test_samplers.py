"""Sampler round trips, determinism, and the arc-length oracle."""

import math

import numpy as np
import pytest

from minktrig.errors import (
    EmptySegment,
    LightlikeSegment,
    ParamOutOfRange,
    RejectionBudgetExhausted,
    UnsupportedFamily,
)
from minktrig import samplers
from minktrig.samplers import (
    _BLOCK_KINDS,
    FAMILIES,
    SampleSpec,
    _sample_rows,
    arc_length_oracle,
    sample_point,
    sample_segment,
    sample_triangle,
)
from minktrig.surfaces import Component, SegmentKind, distance, surface_point
from minktrig.triangles import ProperKind, TriangleFamily, classify_triangle

from conftest import vec


class TestSamplePoint:
    def test_on_surface(self, rng):
        from minktrig.mink import minkowski_product

        for comp, target in ((Component.H2, -1.0), (Component.NEG_H2, -1.0),
                             (Component.DE_SITTER, 1.0)):
            for _ in range(50):
                p = sample_point(comp, rng)
                assert p.component is comp
                q = minkowski_product(p.coords, p.coords)
                assert q == pytest.approx(target, abs=1e-12)


class TestSampleTriangle:
    def test_spec_validation(self):
        with pytest.raises(UnsupportedFamily):
            SampleSpec(family="euclidean", count=1, seed=0)
        with pytest.raises(ParamOutOfRange):
            SampleSpec(family="hyperbolic", count=0, seed=0)

    def test_deterministic_under_seed(self):
        spec = SampleSpec(family="tempolateral", count=5, seed=99)
        b1 = sample_triangle(spec)
        b2 = sample_triangle(spec)
        for t1, t2 in zip(b1, b2):
            for v1, v2 in zip(t1.vertices(), t2.vertices()):
                assert v1.coords == v2.coords

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "mixed"])
    def test_round_trip_through_classifier(self, family):
        for t in sample_triangle(SampleSpec(family=family, count=10, seed=31)):
            cls, _ = classify_triangle(t)
            if family == "strange":
                assert cls.family is TriangleFamily.STRANGE
            elif family == "impossible":
                assert cls.impossible_sides
            elif family == "hyperbolic":
                assert cls.family is TriangleFamily.HYPERBOLIC
            elif family == "antipodal_hyperbolic":
                assert cls.family is TriangleFamily.ANTIPODAL_HYPERBOLIC
            else:
                assert cls.proper_kind is ProperKind(family)

    def test_noncontractible_side_sums_exceed_two_pi(self):
        spec = SampleSpec(family="spatiolateral_noncontractible", count=20, seed=33)
        for t in sample_triangle(spec):
            _, sides = classify_triangle(t)
            assert sum(s.length for s in sides) > 2 * math.pi

    def test_budget_exhaustion_reports_rate(self):
        spec = SampleSpec(family="multiple", count=5, seed=35, rejection_budget=2)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_triangle(spec)
        assert exc.value.attempts == 2


class TestBlockSampling:
    """The five law families, drawn in blocks of candidate rows."""

    @pytest.mark.parametrize("family", list(_BLOCK_KINDS))
    def test_deterministic_under_seed(self, family):
        spec = SampleSpec(family=family, count=300, seed=51)
        rows = _sample_rows(spec)[0]
        assert rows.shape == (300, 3, 3)
        assert np.array_equal(rows, _sample_rows(spec)[0])
        again = [[v.coords.as_tuple() for v in t.vertices()]
                 for t in sample_triangle(spec)]
        assert np.array_equal(rows, np.array(again))
        other = _sample_rows(SampleSpec(family=family, count=300, seed=52))[0]
        assert not np.array_equal(rows, other)

    @pytest.mark.parametrize("family", list(_BLOCK_KINDS))
    def test_count_one(self, family):
        for seed in range(5):
            (t,) = sample_triangle(SampleSpec(family=family, count=1, seed=seed))
            cls, _ = classify_triangle(t)
            if family == "hyperbolic":
                assert cls.family is TriangleFamily.HYPERBOLIC
            elif family == "antipodal_hyperbolic":
                assert cls.family is TriangleFamily.ANTIPODAL_HYPERBOLIC
            else:
                assert cls.proper_kind is ProperKind(family)

    @pytest.mark.parametrize("family, count, budget", [
        ("hyperbolic", 5, 2),
        ("spatiolateral_contractible", 400, 500),
    ])
    def test_budget_counts_candidates(self, family, count, budget):
        # about half the contractible candidates are accepted, so 500 cannot
        # give 400
        spec = SampleSpec(family=family, count=count, seed=53,
                          rejection_budget=budget)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert exc.value.attempts == budget
        assert exc.value.accepted < count

    def test_blocks_stay_bounded_when_nothing_is_accepted(self, monkeypatch):
        # points this close to e1 make every side shorter than the 0.05 floor
        sizes = []
        draw = samplers._BLOCK_CANDIDATES["hyperbolic"]

        def recording(rng, spec, size):
            sizes.append(size)
            return draw(rng, spec, size)

        monkeypatch.setitem(samplers._BLOCK_CANDIDATES, "hyperbolic", recording)
        spec = SampleSpec(family="hyperbolic", count=5, seed=56, max_rapidity=1e-4,
                          rejection_budget=300_000)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert (exc.value.attempts, exc.value.accepted) == (300_000, 0)
        assert sum(sizes) == 300_000
        assert max(sizes) == samplers._MAX_BLOCK

    def test_mixed_batches_take_single_block_rows(self):
        triangles = sample_triangle(SampleSpec(family="mixed", count=30, seed=54))
        assert len(triangles) == 30


class TestArcLengthOracle:
    def test_unit_speed_hyperbolic_geodesic(self):
        a = surface_point(vec(1, 0, 0))
        b = surface_point(vec(math.cosh(1), math.sinh(1), 0))
        assert arc_length_oracle(a, b, 10_000) == pytest.approx(1.0, abs=1e-8)

    def test_quarter_circle(self):
        a = surface_point(vec(0, 1, 0))
        b = surface_point(vec(0, 0, 1))
        assert arc_length_oracle(a, b, 10_000) == pytest.approx(
            math.pi / 2, abs=1e-8
        )

    def test_timelike_fixture(self):
        sqrt2 = math.sqrt(2)
        a = surface_point(vec(1, 0, sqrt2))
        b = surface_point(vec(-1, 0, sqrt2))
        assert arc_length_oracle(a, b, 10_000) == pytest.approx(
            math.acosh(3), abs=1e-6
        )

    def test_rejects_lightlike_and_empty(self):
        a = surface_point(vec(0, 1, 0))
        with pytest.raises(EmptySegment):
            arc_length_oracle(a, surface_point(vec(0, -1, 0)))
        b = surface_point(vec(0.5, 1, 0.5))
        with pytest.raises(LightlikeSegment):
            arc_length_oracle(a, b)

    def test_matches_distance_on_random_segments(self, rng):
        kinds = (SegmentKind.HYPERBOLIC, SegmentKind.DE_SITTER_SPACELIKE,
                 SegmentKind.DE_SITTER_TIMELIKE)
        for kind in kinds:
            for _ in range(10):
                a, b = sample_segment(kind, rng)
                got = arc_length_oracle(a, b, 10_000)
                assert got == pytest.approx(distance(a, b), abs=1e-6)

    def test_error_shrinks_with_step_count(self):
        a = surface_point(vec(0, 1, 0))
        b = surface_point(vec(0, 0, 1))
        exact = math.pi / 2
        coarse = abs(arc_length_oracle(a, b, 10) - exact)
        fine = abs(arc_length_oracle(a, b, 1000) - exact)
        assert fine <= coarse + 1e-12
