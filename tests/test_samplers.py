"""Sampler round trips, determinism, and the arc-length oracle."""

import math

import numpy as np
import pytest

from minktrig.errors import (
    EmptySegment,
    ParamOutOfRange,
    RejectionBudgetExhausted,
    UnsupportedFamily,
)
from minktrig import samplers
from minktrig.samplers import (
    FAMILIES,
    SampleSpec,
    _sample_rows,
    sample_triangle,
)
from minktrig.surfaces import Component, SegmentKind, distance, surface_point
from minktrig.triangles import ProperKind, TriangleFamily, classify_triangle

from conftest import arc_length_oracle, sample_point, sample_segment, vec

SAMPLED = FAMILIES[:-1]  # every family but mixed


def of_family(t, family):
    """Whether the classifier puts t in the sampled family."""
    cls, _ = classify_triangle(t)
    if family == "strange":
        return cls.family is TriangleFamily.STRANGE
    if family == "impossible":
        return bool(cls.impossible_sides)
    if family in ("hyperbolic", "antipodal_hyperbolic"):
        return cls.family is TriangleFamily(family)
    return cls.proper_kind is ProperKind(family)


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
        with pytest.raises(ParamOutOfRange, match="seed must be at least 0"):
            SampleSpec(family="hyperbolic", count=1, seed=-1)

    def test_deterministic_under_seed(self):
        spec = SampleSpec(family="tempolateral", count=5, seed=99)
        b1 = sample_triangle(spec)
        b2 = sample_triangle(spec)
        for t1, t2 in zip(b1, b2):
            for v1, v2 in zip(t1.vertices(), t2.vertices()):
                assert v1.coords == v2.coords

    @pytest.mark.parametrize("family", SAMPLED)
    def test_round_trip_through_classifier(self, family):
        for t in sample_triangle(SampleSpec(family=family, count=10, seed=31)):
            assert of_family(t, family)

    def test_noncontractible_side_sums_exceed_two_pi(self):
        spec = SampleSpec(family="spatiolateral_noncontractible", count=20, seed=33)
        for t in sample_triangle(spec):
            _, sides = classify_triangle(t)
            assert sum(s.length for s in sides) > 2 * math.pi

    def test_budget_exhaustion_reports_rate(self, monkeypatch):
        monkeypatch.setattr(samplers, "_REJECTION_BUDGET", 2)
        monkeypatch.setattr(samplers, "_BUDGET_PER_ROW", 0)
        spec = SampleSpec(family="multiple", count=5, seed=35)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_triangle(spec)
        assert exc.value.attempts == 2


class TestBlockSampling:
    """Every family, drawn in blocks of candidate rows."""

    @pytest.mark.parametrize("family", SAMPLED)
    def test_deterministic_under_seed(self, family):
        spec = SampleSpec(family=family, count=300, seed=51)
        rows = _sample_rows(spec)
        assert rows.shape == (300, 3, 3)
        assert np.array_equal(rows, _sample_rows(spec))
        again = [[v.coords.as_tuple() for v in t.vertices()]
                 for t in sample_triangle(spec)]
        assert np.array_equal(rows, np.array(again))
        other = _sample_rows(SampleSpec(family=family, count=300, seed=52))
        assert not np.array_equal(rows, other)

    @pytest.mark.parametrize("family", SAMPLED)
    def test_count_one(self, family):
        for seed in range(5):
            (t,) = sample_triangle(SampleSpec(family=family, count=1, seed=seed))
            assert of_family(t, family)

    @pytest.mark.parametrize("family, count, budget", [
        ("hyperbolic", 5, 2),
        ("spatiolateral_contractible", 400, 500),
    ])
    def test_budget_counts_candidates(self, family, count, budget, monkeypatch):
        # about half the contractible candidates are accepted, so 500 cannot
        # give 400; the budget is the floor alone, with nothing per row
        monkeypatch.setattr(samplers, "_REJECTION_BUDGET", budget)
        monkeypatch.setattr(samplers, "_BUDGET_PER_ROW", 0)
        spec = SampleSpec(family=family, count=count, seed=53)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert exc.value.attempts == budget
        assert exc.value.accepted < count

    def test_blocks_stay_bounded_when_nothing_is_accepted(self, monkeypatch):
        # points this close to e1 make every side shorter than the 0.05 floor
        sizes = []

        def near_e1(rng, spec, size):
            sizes.append(size)
            return samplers._sheet(rng.uniform(0.0, 1e-4, (size, 3)),
                                   rng.uniform(0.0, 2.0 * math.pi, (size, 3)))

        monkeypatch.setitem(samplers._MAKERS, "hyperbolic", near_e1)
        monkeypatch.setattr(samplers, "_REJECTION_BUDGET", 300_000)
        spec = SampleSpec(family="hyperbolic", count=5, seed=56)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert (exc.value.attempts, exc.value.accepted) == (300_000, 0)
        assert sum(sizes) == 300_000
        assert max(sizes) == samplers._MAX_BLOCK

    @pytest.mark.parametrize("family", ["hyperbolic", "spatiolateral_contractible"])
    def test_budget_grows_with_the_count(self, family, monkeypatch):
        # these families refuse some candidates, so one candidate per row
        # stops short of the count; 25 per row complete it, with the rows of
        # the unclipped budget
        spec = SampleSpec(family=family, count=2000, seed=57)
        expected = _sample_rows(spec)
        monkeypatch.setattr(samplers, "_REJECTION_BUDGET", spec.count)
        assert np.array_equal(_sample_rows(spec), expected)
        monkeypatch.setattr(samplers, "_BUDGET_PER_ROW", 1)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert exc.value.attempts == spec.count

    def test_a_starving_family_still_exhausts_its_budget(self, monkeypatch):
        # every candidate is refused, so the batch draws 25 per row and stops
        def refused(rng, spec, size):
            return np.zeros((size, 3, 3))

        monkeypatch.setitem(samplers._MAKERS, "hyperbolic", refused)
        monkeypatch.setattr(samplers, "_REJECTION_BUDGET", 1000)
        spec = SampleSpec(family="hyperbolic", count=400, seed=58)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            _sample_rows(spec)
        assert (exc.value.attempts, exc.value.accepted) == (10_000, 0)

    def test_mixed_batches_take_single_block_rows(self):
        # family j's rows are one batch of the family, from the j-th seed
        # drawn from the mixed batch's seed
        V = _sample_rows(SampleSpec(family="mixed", count=30, seed=54))
        seeds = np.random.default_rng(54).integers(0, 2**32, len(SAMPLED))
        for j, family in enumerate(SAMPLED):
            block = _sample_rows(SampleSpec(family=family, count=2, seed=int(seeds[j])))
            assert np.array_equal(V[j::len(SAMPLED)], block)

    @pytest.mark.parametrize("count", [1, 14, 15, 16, 46])
    def test_mixed_rows_cycle_through_the_families(self, count):
        triangles = sample_triangle(SampleSpec(family="mixed", count=count, seed=55))
        assert len(triangles) == count
        for i, t in enumerate(triangles):
            assert of_family(t, SAMPLED[i % len(SAMPLED)])


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
        with pytest.raises(EmptySegment):
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
