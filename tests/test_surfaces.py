"""Quadric membership, the four distance cases, segments, and angles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minktrig.constants import _POINT_EQ_TOL
from minktrig.errors import (
    AntipodalPoints,
    ClampError,
    CoincidentPoints,
    EmptySegment,
    InfiniteSeparation,
    MinkTrigError,
    MixedSegmentKinds,
    OffSurfaceError,
    ParamOutOfRange,
)
from minktrig.mink import E1, E2, MVec3, minkowski_product
from minktrig.samplers import FAMILIES, SampleSpec, sample_triangle
from minktrig.surfaces import (
    Component,
    OffSurface,
    SegmentKind,
    SurfacePoint,
    _Side,
    _side,
    angle,
    angle_via_cross,
    classify_point,
    distance,
    points_equal,
    segment_kind,
    segment_point,
    surface_point,
    tangent_vector,
)
from minktrig.triangles import _classify_rows

from conftest import (
    SQRT2,
    SQRT3,
    angle_via_cross_reference,
    apply_matrix,
    random_lorentz,
    sample_point,
    side_reference,
    vec,
)


def sp(x1, x2, x3):
    return surface_point(vec(x1, x2, x3))


CHRONO_W = sp(30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82)


class TestClassifyPoint:
    def test_forward_sheet(self):
        p = classify_point(E1)
        assert p.component is Component.H2

    def test_backward_sheet(self):
        assert classify_point(-E1).component is Component.NEG_H2

    def test_de_sitter(self):
        assert classify_point(E2).component is Component.DE_SITTER

    def test_off_surface_is_a_report_not_an_error(self):
        p = classify_point(vec(0.5, 0, 0))
        assert isinstance(p, OffSurface)
        assert p.self_product == pytest.approx(-0.25)

    def test_surface_point_raises_off_surface(self):
        with pytest.raises(OffSurfaceError):
            surface_point(vec(0.5, 0, 0))

    @pytest.mark.parametrize("coords", [
        (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (0.0, -math.inf, 0.0),
        (math.inf, math.inf, 0.0),
    ])
    def test_non_finite_coordinates_are_off_surface(self, coords):
        with pytest.raises(OffSurfaceError):
            surface_point(MVec3(*coords))


class TestDistance:
    def test_chronosceles_legs(self):
        d = distance(sp(0, 0, 1), CHRONO_W)
        assert d == pytest.approx(math.acosh(59 * SQRT2 / 82), abs=1e-12)
        assert d == pytest.approx(0.187, abs=1e-3)

    def test_quarter_circle(self):
        assert distance(sp(0, 1, 0), sp(0, 0, 1)) == pytest.approx(math.pi / 2)

    def test_chorosceles_timelike_side(self):
        d = distance(sp(1, 0, SQRT2), sp(-1, 0, SQRT2))
        assert d == pytest.approx(math.acosh(3.0), abs=1e-12)

    def test_chorosceles_spacelike_side(self):
        d = distance(sp(1, 0, SQRT2), sp(0, SQRT3 / 2, 0.5))
        assert d == pytest.approx(math.pi / 4, abs=1e-12)

    def test_identity(self):
        assert distance(sp(1, 0, 0), sp(1, 0, 0)) == 0.0

    def test_cross_component_infinite(self):
        assert distance(sp(1, 0, 0), sp(0, 1, 0)) == math.inf

    def test_hyperbolic_distance(self):
        a = sp(1, 0, 0)
        b = sp(math.cosh(1.3), math.sinh(1.3), 0)
        assert distance(a, b) == pytest.approx(1.3, abs=1e-12)

    def test_backward_sheet_matches_forward(self):
        a = sp(math.cosh(0.4), math.sinh(0.4), 0)
        b = sp(math.cosh(1.1), 0, math.sinh(1.1))
        back = (surface_point(-p.coords) for p in (a, b))
        assert distance(*back) == pytest.approx(distance(a, b))

    def test_infinite_branch_case(self):
        # opposite branches of a timelike-plane section: product below -1
        a = sp(0, 1, 0)
        b = sp(1, -SQRT2, 0)
        assert minkowski_product(a.coords, b.coords) < -1.0
        assert distance(a, b) == math.inf

    def test_lightlike_difference_gives_zero(self):
        a = sp(0, 1, 0)
        b = sp(0.7, 1, 0.7)
        assert minkowski_product(a.coords - b.coords, a.coords - b.coords) == 0.0
        assert distance(a, b) == 0.0

    def test_symmetry_including_infinite(self, rng):
        for _ in range(100):
            comp_a = [Component.H2, Component.DE_SITTER][int(rng.integers(2))]
            comp_b = [Component.H2, Component.DE_SITTER][int(rng.integers(2))]
            a = sample_point(comp_a, rng, 1.5)
            b = sample_point(comp_b, rng, 1.5)
            assert distance(a, b) == distance(b, a)

    def test_hyperbolic_metric_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (sample_point(Component.H2, rng, 1.5) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12

    def test_proper_distance_zero_iff_lightlike_difference(self, rng):
        # points joined by a lightlike ray are at distance exactly zero,
        # while generic distinct pairs are not
        for _ in range(100):
            m = random_lorentz(rng)
            t = rng.uniform(0.1, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
            x = surface_point(apply_matrix(m, vec(0, 1, 0)))
            y = surface_point(apply_matrix(m, vec(t, 1, t)))
            assert distance(x, y) == 0.0
            z = surface_point(apply_matrix(m, vec(0, math.cos(0.3), math.sin(0.3))))
            assert distance(x, z) > 0.0

    def test_clamp_error_beyond_band(self):
        # points tagged as forward-sheet points but off the quadric: the
        # tangent product at a lies far outside [-1, 1], beyond the clamp band
        a = SurfacePoint(vec(2, 0, 0), Component.H2)
        b = SurfacePoint(vec(1, 0.5, 0), Component.H2)
        c = SurfacePoint(vec(1, 0.5, 0.01), Component.H2)
        with pytest.raises(ClampError):
            angle(b, a, c)


class TestSegmentKind:
    def test_spacelike(self):
        assert segment_kind(sp(0, 1, 0), sp(0, 0, 1)) is SegmentKind.DE_SITTER_SPACELIKE

    def test_lightlike(self):
        a = sp(0, 1, 0)
        b = surface_point(a.coords + 0.8 * vec(1, 0, 1))
        assert segment_kind(a, b) is SegmentKind.DE_SITTER_LIGHTLIKE

    def test_timelike(self):
        # the chorosceles fixture's timelike side: <<a, b>> = 3
        a, b = sp(1, 0, SQRT2), sp(-1, 0, SQRT2)
        assert segment_kind(a, b) is SegmentKind.DE_SITTER_TIMELIKE

    def test_antipodal_pair_empty(self):
        assert segment_kind(sp(0, 1, 0), sp(0, -1, 0)) is SegmentKind.EMPTY

    def test_point(self):
        assert segment_kind(sp(0, 1, 0), sp(0, 1, 0)) is SegmentKind.POINT

    def test_hyperbolic(self):
        assert segment_kind(sp(1, 0, 0), sp(math.cosh(1), math.sinh(1), 0)) \
            is SegmentKind.HYPERBOLIC

    @pytest.mark.parametrize("d", [1e-4, 1e-6, 1e-9, 1e-12])
    def test_short_sides_keep_their_kind(self, d):
        # the light band scales with |a x b|^2, so shortness alone does not
        # make a side lightlike; below about 1e-8, where p rounds to 1, the
        # sign of n2 tells timelike from spacelike.  The sides leave e2 along
        # unit tangents tilted by rapidity 3 in the x1-x3 plane, so that the
        # ends of a side of 1e-12 are more than the point tolerance apart.
        a = sp(0, 1, 0)
        tilt = 3.0
        timelike = sp(math.sinh(d) * math.cosh(tilt), math.cosh(d),
                      math.sinh(d) * math.sinh(tilt))
        spacelike = sp(math.sin(d) * math.sinh(tilt), math.cos(d),
                       math.sin(d) * math.cosh(tilt))
        lightlike = surface_point(a.coords + d * vec(1, 0, 1))
        kinds = {timelike: SegmentKind.DE_SITTER_TIMELIKE,
                 spacelike: SegmentKind.DE_SITTER_SPACELIKE,
                 lightlike: SegmentKind.DE_SITTER_LIGHTLIKE}
        for b, kind in kinds.items():
            assert segment_kind(a, b) is kind
            # the array rule, on side c of the row (a, b, -e3)
            row = np.array([[a.coords.as_tuple(), b.coords.as_tuple(), (0, 0, -1)]])
            side_c = _classify_rows(row).kinds[0, 2]
            assert list(SegmentKind)[side_c] is kind
        if d >= 1e-6:
            # arccos near 1 keeps about half the digits
            assert distance(a, spacelike) == pytest.approx(d, rel=1e-3)


class TestTangentVector:
    def test_hyperbolic_direction(self):
        a = sp(1, 0, 0)
        b = sp(math.cosh(1), math.sinh(1), 0)
        assert tangent_vector(a, b).as_tuple() == pytest.approx((0, 1, 0), abs=1e-12)

    def test_spacelike_direction(self):
        assert tangent_vector(sp(0, 1, 0), sp(0, 0, 1)).as_tuple() == \
            pytest.approx((0, 0, 1), abs=1e-12)

    def test_lightlike_span_difference(self):
        a = sp(0, 1, 0)
        b = sp(1, 1, 1)
        assert tangent_vector(a, b) == b.coords - a.coords

    def test_orthogonal_to_base_point(self, rng):
        for _ in range(100):
            comp = [Component.H2, Component.DE_SITTER][int(rng.integers(2))]
            a = sample_point(comp, rng, 1.5)
            b = sample_point(comp, rng, 1.5)
            try:
                x = tangent_vector(a, b)
            except (CoincidentPoints, AntipodalPoints, InfiniteSeparation):
                continue
            assert minkowski_product(x, a.coords) == pytest.approx(0.0, abs=1e-9)

    def test_error_cases(self):
        a = sp(0, 1, 0)
        with pytest.raises(CoincidentPoints):
            tangent_vector(a, sp(0, 1, 0))
        with pytest.raises(AntipodalPoints):
            tangent_vector(a, sp(0, -1, 0))
        with pytest.raises(InfiniteSeparation):
            tangent_vector(a, sp(1, -SQRT2, 0))

    def test_finite_difference_direction(self):
        a = sp(1, 0, 0)
        b = sp(math.cosh(0.9), 0.2, math.sqrt(math.cosh(0.9) ** 2 - 1.04))
        x = tangent_vector(a, b)
        h = 1e-6
        fd = (segment_point(a, b, h) - a.coords) / h
        assert fd.as_tuple() == pytest.approx(x.as_tuple(), abs=1e-5)


# Endpoints of one segment of each kind but the empty one.
SEGMENTS = [
    ((SQRT2, 1, 0), (SQRT2, 0, 1)),  # hyperbolic
    ((-SQRT2, 1, 0), (-SQRT2, 0, 1)),  # antipodal hyperbolic
    ((-0.0, -1, 0), (0, -0.6, -0.8)),  # spacelike
    ((0, 1, 0), (0.75, 1.25, 0)),  # timelike
    ((0, 1, 0), (1, 1, 1)),  # lightlike
    ((0, -0.0, 1), (0, -0.0, 1)),  # a point
]


class TestSegmentPoint:
    def test_hyperbolic_midpoint(self):
        a = sp(1, 0, 0)
        b = sp(math.cosh(2), math.sinh(2), 0)
        p = segment_point(a, b, 1.0)
        assert p.as_tuple() == pytest.approx((math.cosh(1), math.sinh(1), 0))

    def test_great_circle_point(self):
        p = segment_point(sp(0, 1, 0), sp(0, 0, 1), math.pi / 4)
        assert p.as_tuple() == pytest.approx((0, SQRT2 / 2, SQRT2 / 2))

    def test_endpoints(self):
        a = sp(0, 1, 0)
        b = sp(0.3, math.sqrt(1.09), 0)
        assert segment_point(a, b, 0.0) == a.coords
        d = distance(a, b)
        assert segment_point(a, b, d).as_tuple() == pytest.approx(
            b.coords.as_tuple(), abs=1e-12
        )

    def test_lightlike_runs_over_unit_interval(self):
        a = sp(0, 1, 0)
        b = surface_point(a.coords + 0.8 * vec(1, 0, 1))
        assert segment_point(a, b, 1.0).as_tuple() == pytest.approx(
            b.coords.as_tuple()
        )

    def test_stays_on_surface(self):
        a = sp(0, 1, 0)
        b = sp(0, 0, 1)
        for t in (0.3, 0.9, 1.4):
            p = segment_point(a, b, t)
            assert minkowski_product(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            segment_point(sp(0, 1, 0), sp(0, 0, 1), 3.0)
        for a, b in SEGMENTS:  # NaN fails every comparison, so it is refused
            with pytest.raises(ParamOutOfRange):
                segment_point(sp(*a), sp(*b), math.nan)

    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            segment_point(sp(0, 1, 0), sp(0, -1, 0), 0.0)

    @pytest.mark.parametrize("a, b", SEGMENTS)
    def test_floats_match_the_vector_formula(self, a, b):
        # the geodesic as MVec3 arithmetic on tangent_vector is the
        # reference, to the bit, -0.0 included
        a, b = sp(*a), sp(*b)
        kind = segment_kind(a, b)
        if kind is SegmentKind.POINT:
            assert repr(segment_point(a, b, 0.0)) == repr(a.coords)
            with pytest.raises(ParamOutOfRange):
                segment_point(a, b, 5e-324)
            return
        A, X = a.coords, tangent_vector(a, b)
        lightlike = kind is SegmentKind.DE_SITTER_LIGHTLIKE
        for t in np.linspace(0.0, 1.0 if lightlike else distance(a, b), 9).tolist():
            if lightlike:
                expected = A + t * X
            elif kind is SegmentKind.DE_SITTER_SPACELIKE:
                expected = math.cos(t) * A + math.sin(t) * X
            else:
                expected = math.cosh(t) * A + math.sinh(t) * X
            assert repr(segment_point(a, b, t)) == repr(expected)

    def test_lorentz_equivariance(self, rng):
        a = sp(1, 0, 0)
        b = sp(math.cosh(1.2), math.sinh(1.2), 0)
        m = random_lorentz(rng)
        ta = surface_point(apply_matrix(m, a.coords))
        tb = surface_point(apply_matrix(m, b.coords))
        for t in (0.0, 0.5, 1.2):
            lhs = apply_matrix(m, segment_point(a, b, t))
            rhs = segment_point(ta, tb, t)
            assert lhs.as_tuple() == pytest.approx(rhs.as_tuple(), abs=1e-9)


HYP_A = sp(SQRT2, 1, 0)
HYP_B = sp(SQRT2, 0, 1)
HYP_C = sp(SQRT2, -1, 0)


class TestAngle:
    def test_hyperbolic_fixture(self):
        assert angle(HYP_B, HYP_A, HYP_C) == pytest.approx(
            math.acos(2 / math.sqrt(6)), abs=1e-12
        )

    def test_mixed_kind_legs_raise(self):
        a = sp(0, 1, 0)
        b = sp(0, 0, 1)
        c = surface_point(a.coords + 0.5 * vec(1, 0, 1))
        with pytest.raises(MixedSegmentKinds):
            angle(b, a, c)

    def test_equilateral_symmetry(self):
        u = sp(0, 1, 0)
        v = sp(0, 0, 1)
        w = sp(1 / 7, 5 / 7, 5 / 7)
        assert angle(v, u, w) == pytest.approx(angle(u, v, w), abs=1e-12)

    def test_lorentz_invariance(self, rng):
        m = random_lorentz(rng)
        imgs = [surface_point(apply_matrix(m, p.coords))
                for p in (HYP_A, HYP_B, HYP_C)]
        assert angle(imgs[1], imgs[0], imgs[2]) == pytest.approx(
            angle(HYP_B, HYP_A, HYP_C), abs=1e-9
        )

    def test_well_definedness_bounds(self, rng):
        # hyperbolic legs give products in [-1, 1]; de Sitter legs give
        # products of magnitude at least 1
        from minktrig.samplers import SampleSpec, sample_triangle

        for fam, hyp in (("hyperbolic", True), ("tempolateral", False),
                         ("spatiolateral_contractible", False)):
            for t in sample_triangle(SampleSpec(family=fam, count=10, seed=41)):
                a, b, c = t.vertices()
                p = minkowski_product(tangent_vector(a, b), tangent_vector(a, c))
                if hyp:
                    assert -1.0 - 1e-9 <= p <= 1.0 + 1e-9
                else:
                    assert abs(p) >= 1.0 - 1e-9


class TestAngleViaCross:
    def test_matches_direct_formula_on_fixture(self):
        direct = angle(HYP_B, HYP_A, HYP_C)
        assert angle_via_cross(HYP_B, HYP_A, HYP_C) == pytest.approx(
            direct, abs=1e-10
        )

    def test_matches_on_random_hyperbolic_triangles(self, rng):
        from minktrig.samplers import SampleSpec, sample_triangle

        for t in sample_triangle(SampleSpec(family="hyperbolic", count=50, seed=43)):
            a, b, c = t.vertices()
            assert angle_via_cross(b, a, c) == pytest.approx(
                angle(b, a, c), abs=1e-10
            )

    def test_matches_on_de_sitter_triangles(self, rng):
        from minktrig.samplers import SampleSpec, sample_triangle

        for fam in ("spatiolateral_contractible", "tempolateral"):
            for t in sample_triangle(SampleSpec(family=fam, count=25, seed=47)):
                a, b, c = t.vertices()
                assert angle_via_cross(b, a, c) == pytest.approx(
                    angle(b, a, c), abs=1e-10
                )

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "mixed"])
    def test_is_the_reference_to_the_bit(self, family):
        # the angle at each vertex of sampled triangles, as float.hex, or the
        # same error type and message
        for t in sample_triangle(SampleSpec(family=family, count=60, seed=61)):
            a, b, c = t.vertices()
            for legs in ((b, a, c), (a, b, c), (a, c, b)):
                got, want = (_outcome(rule, *legs) for rule in (
                    angle_via_cross, angle_via_cross_reference))
                if isinstance(want, float):
                    assert isinstance(got, float) and got.hex() == want.hex()
                else:
                    assert got == want


def _outcome(rule, *points):
    """The rule's value at the points, or the type and message of its error."""
    try:
        return rule(*points)
    except MinkTrigError as exc:
        return type(exc), str(exc)


def assert_side_is_reference(a: SurfacePoint, b: SurfacePoint) -> None:
    """The float side rule matches the MVec3 one in all seven fields, floats
    by their hex form, and reads a point exactly where points_equal holds."""
    got, want = _outcome(_side, a, b), _outcome(side_reference, a, b)
    if not isinstance(want, _Side):
        assert got == want
        return
    assert got.kind is want.kind
    for f in ("length", "p", "n2"):
        assert getattr(got, f).hex() == getattr(want, f).hex(), f
    assert [x.hex() for x in got.cross.as_tuple()] == [
        x.hex() for x in want.cross.as_tuple()]
    assert got.lightlike is want.lightlike
    assert got.opposite is want.opposite
    assert points_equal(a, b) is (got.kind is SegmentKind.POINT)


_NEGATED = {Component.H2: Component.NEG_H2, Component.NEG_H2: Component.H2,
            Component.DE_SITTER: Component.DE_SITTER}


def _moved(m, pt: SurfacePoint) -> SurfacePoint:
    """pt under the orthochronous Lorentz map m, kept on its component
    without the surface band, which far images may leave."""
    return SurfacePoint(apply_matrix(m, pt.coords), pt.component)


@functools.lru_cache(maxsize=None)
def _sampled_triangles() -> tuple:
    return tuple(tuple(sample_triangle(SampleSpec(family=f, count=6, seed=29)))
                 for f in FAMILIES)


def _edge_pairs() -> list:
    """Equal and opposite pairs at and just beyond _POINT_EQ_TOL, the
    light-cone and needle rows, and -0.0 coordinates."""
    pairs = []
    for base, comp in (((0.0, 1.0, 0.0), Component.DE_SITTER),
                       ((1.0, 0.0, 0.0), Component.H2),
                       ((-1.0, 0.0, 0.0), Component.NEG_H2)):
        a = SurfacePoint(vec(*base), comp)
        for d in (_POINT_EQ_TOL / 2, math.nextafter(_POINT_EQ_TOL, 0.0),
                  _POINT_EQ_TOL, math.nextafter(_POINT_EQ_TOL, math.inf),
                  2 * _POINT_EQ_TOL):
            x1, x2, _ = base
            pairs.append((a, SurfacePoint(vec(x1, x2, d), comp)))
            pairs.append((a, SurfacePoint(vec(-x1, -x2, d), _NEGATED[comp])))
    rows = (
        ((0, 1, 0), (0, 0, 1), (1e10, 1e10, 1)),
        ((1, 0, 0), (1.0000000000000002, 2.1e-8, 0),
         (1.5430806348152437, 0, 1.1752011936438014)),
    )
    for row in rows:
        v = [surface_point(vec(*x)) for x in row]
        pairs += [(v[1], v[2]), (v[0], v[2]), (v[0], v[1])]
    for x, y in (((-0.0, 1.0, -0.0), (0.0, 1.0, 0.0)),
                 ((1.0, -0.0, 0.0), (1.0, 0.0, -0.0)),
                 ((-0.0, -1.0, 0.0), (0.0, 1.0, -0.0)),
                 ((-0.0, 1.0, 0.0), (0.0, -0.0, -1.0)),
                 ((-1.0, -0.0, -0.0), (-1.0, 0.0, 0.0)),
                 ((-0.0, 0.0, 1.0), (-0.0, -0.0, 1.0))):
        pairs.append((surface_point(vec(*x)), surface_point(vec(*y))))
    return pairs + [(b, a) for a, b in pairs]


class TestSideRule:
    """surfaces._side against the MVec3 rule of conftest, bit for bit."""

    @pytest.mark.parametrize("rapidity", [0.0, 1.0, 3.0, 6.0])
    def test_edge_pairs(self, rapidity):
        rng = np.random.default_rng(31)
        for a, b in _edge_pairs():
            if rapidity:
                m = random_lorentz(rng, max_rapidity=rapidity)
                a, b = _moved(m, a), _moved(m, b)
            assert_side_is_reference(a, b)

    def test_edge_pairs_reach_every_verdict(self):
        sides = [side_reference(a, b) for a, b in _edge_pairs()]
        kinds = {s.kind for s in sides}
        assert {SegmentKind.POINT, SegmentKind.EMPTY, SegmentKind.HYPERBOLIC,
                SegmentKind.DE_SITTER_LIGHTLIKE,
                SegmentKind.DE_SITTER_TIMELIKE} <= kinds
        assert any(s.opposite for s in sides)
        assert any(not s.opposite and s.kind is SegmentKind.EMPTY
                   for s in sides)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(range(len(FAMILIES))),
           row=st.integers(0, 5), pair=st.sampled_from(
               [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 0)]),
           seed=st.integers(0, 2**32 - 1),
           rapidity=st.sampled_from([0.0, 1.0, 3.0, 6.0]))
    def test_sampled_pairs(self, family, row, pair, seed, rapidity):
        tri = _sampled_triangles()[family][row].vertices()
        a, b = tri[pair[0]], tri[pair[1]]
        if rapidity:
            m = random_lorentz(np.random.default_rng(seed), max_rapidity=rapidity)
            a, b = _moved(m, a), _moved(m, b)
        assert_side_is_reference(a, b)

    @settings(max_examples=300, deadline=None)
    @given(coords=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=6, max_size=6),
           components=st.tuples(st.sampled_from(Component),
                                st.sampled_from(Component)))
    def test_any_finite_coordinates(self, coords, components):
        a = SurfacePoint(MVec3(*coords[:3]), components[0])
        b = SurfacePoint(MVec3(*coords[3:]), components[1])
        assert_side_is_reference(a, b)
