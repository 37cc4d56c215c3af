"""Bilinear form, causal classification, Lorentz utilities, plane classification.

A segment's plane class is read off the Gram rule in ``surfaces``.  The
causal class of a vector, the Lorentz-orthogonal basis, the e1-e2 boost and
the Lorentz-matrix predicate below, and conftest's J map, are test oracles,
kept here because nothing in the package needs them.  The determinant is the
one the triangle classifier reads its degeneracy and the polar sign off.
"""

import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minktrig.errors import AntipodalPoints
from minktrig.mink import (
    E1,
    E2,
    E3,
    MVec3,
    cross,
    euclid_dot,
    minkowski_norm,
    minkowski_product,
)
from minktrig.constants import EPS_LIGHT
from minktrig.surfaces import (
    Component,
    SegmentKind,
    segment_kind,
    surface_point,
    tangent_vector,
)
from minktrig.triangles import _classify_rows

from conftest import (
    J_MATRIX,
    SQRT2,
    apply_matrix,
    j_transform,
    random_lorentz,
    sample_point,
    vec,
)

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.builds(MVec3, coords, coords, coords)
ZERO = MVec3(0.0, 0.0, 0.0)


class CausalClass(Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


def classify_vector(x: MVec3) -> CausalClass:
    """Causal class of x, with the lightlike band of the side rule.  The zero
    vector counts as spacelike by convention."""
    if x == ZERO:
        return CausalClass.SPACELIKE
    q = minkowski_product(x, x)
    if abs(q) <= EPS_LIGHT * euclid_dot(x, x):
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if q < 0.0 else CausalClass.SPACELIKE


def det3(a: MVec3, b: MVec3, c: MVec3) -> float:
    """det(a, b, c) as the array classifier computes it for the row (a, b, c)."""
    row = np.array([[a.as_tuple(), b.as_tuple(), c.as_tuple()]])
    return float(_classify_rows(row).det[0])


def boost_e1_e2(rapidity: float) -> np.ndarray:
    """Pure boost in the e1-e2 plane; maps e1 to (cosh t, sinh t, 0)."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def is_lorentz(m) -> bool:
    """M^T J M = J within 1e-9."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    return bool(np.max(np.abs(m.T @ J_MATRIX @ m - J_MATRIX)) <= 1e-9)


def lorentz_orthogonal_basis(u: MVec3, v: MVec3) -> tuple:
    """Minkowski-orthogonal basis (b1, b2) of span(u, v) with b1 spacelike.

    Tie-breaking is deterministic: b1 is the input with the larger self-product;
    if neither input is spacelike, one of u+v, u-v is taken instead.  The
    plane's class is the class of b2, an oracle independent of the Gram rule.
    """
    n = cross(u, v)
    scale = max(u.euclid_norm() * v.euclid_norm(), 1e-300)
    if n.euclid_norm() <= 1e-12 * scale:
        raise ValueError("spanning vectors are linearly dependent")

    qu = minkowski_product(u, u)
    qv = minkowski_product(v, v)
    candidates = [u, v] if qu >= qv else [v, u]
    candidates += [u + v, u - v]
    puv = minkowski_product(u, v)
    if qv < 0.0:
        # maximizer of <<u + t v, u + t v>> over t; positive for any plane
        # that contains spacelike vectors at all
        candidates.append(u - (puv / qv) * v)
    elif qv == 0.0 and puv != 0.0:
        t_lin = (1.0 + abs(qu)) / (2.0 * abs(puv))
        candidates.append(u + math.copysign(t_lin, puv) * v)
    b1 = next(
        c for c in candidates if classify_vector(c) is CausalClass.SPACELIKE
        and c != ZERO
    )
    # project away the b1 component from whichever input is independent of b1
    other = u if cross(u, b1).euclid_norm() > cross(v, b1).euclid_norm() else v
    b2 = other - (minkowski_product(other, b1) / minkowski_product(b1, b1)) * b1
    return b1, b2


class TestMinkowskiProduct:
    def test_signature(self):
        assert minkowski_product(E1, E1) == -1.0
        assert minkowski_product(E2, E2) == 1.0
        assert minkowski_product(E3, E3) == 1.0

    def test_self_orthogonal_lightlike_vector(self):
        x = vec(1, 1, 0)
        assert minkowski_product(x, x) == 0.0

    def test_chorosceles_vertex_product(self):
        a = vec(1, 0, SQRT2)
        b = vec(-1, 0, SQRT2)
        assert minkowski_product(a, b) == pytest.approx(3.0)

    @given(vectors, vectors)
    def test_symmetry(self, x, y):
        assert minkowski_product(x, y) == pytest.approx(
            minkowski_product(y, x), abs=1e-12
        )

    @given(vectors, vectors, vectors, coords, coords)
    @settings(max_examples=200)
    def test_bilinearity(self, x, y, z, a, b):
        lhs = minkowski_product(a * x + b * z, y)
        rhs = a * minkowski_product(x, y) + b * minkowski_product(z, y)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestNormAndNormalize:
    def test_unit_timelike(self):
        assert minkowski_norm(E1) == 1.0

    def test_lightlike_norm_zero(self):
        assert minkowski_norm(vec(1, 1, 0)) == 0.0

    def test_spacelike_norm(self):
        assert minkowski_norm(vec(0, 3, 4)) == pytest.approx(5.0)


class TestClassifyVector:
    def test_examples(self):
        assert classify_vector(E1) is CausalClass.TIMELIKE
        assert classify_vector(vec(1, 1, 0)) is CausalClass.LIGHTLIKE
        assert classify_vector(E2) is CausalClass.SPACELIKE

    def test_zero_vector_is_spacelike_by_convention(self):
        assert classify_vector(vec(0, 0, 0)) is CausalClass.SPACELIKE

    def test_lightlike_pair_orthogonal_iff_dependent(self, rng):
        # two lightlike vectors are Minkowski orthogonal exactly when one is
        # a multiple of the other
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            u = vec(1, math.cos(t1), math.sin(t1))
            v = vec(1, math.cos(t2), math.sin(t2))
            p = minkowski_product(u, v)
            dependent = cross(u, v).euclid_norm() < 1e-9
            assert (abs(p) < 1e-9) == dependent


class TestCrossAndDet:
    def test_basis_cross(self):
        assert cross(E2, E3) == E1

    def test_self_cross_zero(self):
        x = vec(3, -1, 2)
        assert cross(x, x) == ZERO

    def test_polar_fixture_cross(self):
        got = cross(vec(SQRT2, 1, 0), vec(SQRT2, 0, 1))
        assert got.as_tuple() == pytest.approx((1.0, -SQRT2, -SQRT2))

    def test_j_normal_minkowski_orthogonality(self, rng):
        for _ in range(100):
            x = MVec3(*rng.uniform(-2, 2, size=3))
            y = MVec3(*rng.uniform(-2, 2, size=3))
            n = j_transform(cross(x, y))
            assert minkowski_product(n, x) == pytest.approx(0.0, abs=1e-12)
            assert minkowski_product(n, y) == pytest.approx(0.0, abs=1e-12)

    def test_det_basis(self):
        assert det3(E1, E2, E3) == 1.0

    def test_det_repeated_column(self):
        a, c = vec(1, 2, 3), vec(4, 5, 6)
        assert det3(a, a, c) == 0.0

    def test_det_polar_fixture(self):
        d = det3(vec(SQRT2, 1, 0), vec(SQRT2, 0, 1), vec(SQRT2, -1, 0))
        assert d == pytest.approx(2.0 * SQRT2)

    @given(vectors, vectors, vectors)
    @settings(max_examples=100)
    def test_det_equals_cross_dot(self, a, b, c):
        # (a x b) . c against numpy's LU determinant of the column matrix
        columns = np.array([a.as_tuple(), b.as_tuple(), c.as_tuple()]).T
        with np.errstate(divide="ignore"):  # LAPACK's note on a singular matrix
            expected = np.linalg.det(columns)
        assert det3(a, b, c) == pytest.approx(expected, abs=1e-9)


class TestJTransform:
    def test_negates_time_component(self):
        assert j_transform(vec(1, 2, 3)) == vec(-1, 2, 3)

    def test_involution(self):
        x = vec(5, -2, 7)
        assert j_transform(j_transform(x)) == x

    def test_preserves_product(self):
        x, y = vec(1, 1, 0), vec(0, 1, 1)
        assert minkowski_product(x, y) == 1.0
        assert minkowski_product(j_transform(x), j_transform(y)) == 1.0


class TestIsLorentz:
    def test_identity(self):
        assert is_lorentz(np.eye(3))

    def test_j_matrix(self):
        assert is_lorentz(J_MATRIX)

    def test_scaling_is_not_lorentz(self):
        assert not is_lorentz(np.diag([2.0, 1.0, 1.0]))

    def test_random_lorentz_satisfies_predicate(self, rng):
        for _ in range(50):
            assert is_lorentz(random_lorentz(rng))
            assert is_lorentz(random_lorentz(rng, orthochronous=False))

    def test_orthochronous_preserves_forward_sheet(self, rng):
        for _ in range(50):
            m = random_lorentz(rng, orthochronous=True)
            assert m[0, 0] >= 1.0 - 1e-12

    def test_boost_maps_e1(self):
        t = 0.7
        img = apply_matrix(boost_e1_e2(t), E1)
        assert img.as_tuple() == pytest.approx((math.cosh(t), math.sinh(t), 0.0))


class TestLorentzOrthogonalBasis:
    def test_already_orthogonal(self):
        b1, b2 = lorentz_orthogonal_basis(E2, E3)
        assert minkowski_product(b1, b2) == pytest.approx(0.0, abs=1e-12)

    def test_lightlike_plane_second_vector(self):
        b1, b2 = lorentz_orthogonal_basis(E2, E2 + E1)
        assert minkowski_product(b1, b2) == pytest.approx(0.0, abs=1e-12)
        assert classify_vector(b1) is CausalClass.SPACELIKE

    def test_timelike_inputs_still_yield_spacelike_b1(self):
        b1, b2 = lorentz_orthogonal_basis(E1, E1 + E2)
        assert classify_vector(b1) is CausalClass.SPACELIKE
        assert minkowski_product(b1, b2) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_span_raises(self):
        with pytest.raises(ValueError):
            lorentz_orthogonal_basis(E2, 2.0 * E2)

    def test_full_basis_has_one_timelike_vector(self, rng):
        # extending the in-plane basis by the J-normal always gives exactly
        # one timelike and two spacelike directions
        for _ in range(100):
            u = MVec3(*rng.uniform(-2, 2, size=3))
            v = MVec3(*rng.uniform(-2, 2, size=3))
            try:
                b1, b2 = lorentz_orthogonal_basis(u, v)
            except ValueError:
                continue
            b3 = j_transform(cross(u, v))
            kinds = [classify_vector(b) for b in (b1, b2, b3)]
            if CausalClass.LIGHTLIKE in kinds:
                continue
            assert kinds.count(CausalClass.TIMELIKE) == 1


def de_sitter_pairs(rng, count):
    for _ in range(count):
        yield (sample_point(Component.DE_SITTER, rng, 1.5),
               sample_point(Component.DE_SITTER, rng, 1.5))


class TestClassifyPlane:
    """The class of span(a, b), as segment_kind reports it for a de Sitter pair."""

    def test_figure_examples(self):
        e2, e3 = surface_point(E2), surface_point(E3)
        assert segment_kind(e2, e3) is SegmentKind.DE_SITTER_SPACELIKE
        on_ray = surface_point(E2 + (E3 + E1))  # in span(E2, E3 + E1)
        assert segment_kind(e2, on_ray) is SegmentKind.DE_SITTER_LIGHTLIKE
        on_branch = surface_point(math.sinh(1.0) * E1 + math.cosh(1.0) * E2)
        assert segment_kind(e2, on_branch) is SegmentKind.DE_SITTER_TIMELIKE

    def test_degenerate_raises(self):
        # E2 and -E2 span no plane: the segment is empty and has no tangent
        e2, minus_e2 = surface_point(E2), surface_point(-E2)
        assert segment_kind(e2, minus_e2) is SegmentKind.EMPTY
        with pytest.raises(AntipodalPoints):
            tangent_vector(e2, minus_e2)

    def test_agrees_with_basis_definition(self, rng):
        # oracle: the plane's class is the class of the second vector of a
        # Lorentz orthogonal basis (the first is spacelike by construction);
        # an empty segment joins the two branches of a timelike plane
        mapping = {
            CausalClass.SPACELIKE: SegmentKind.DE_SITTER_SPACELIKE,
            CausalClass.LIGHTLIKE: SegmentKind.DE_SITTER_LIGHTLIKE,
            CausalClass.TIMELIKE: SegmentKind.DE_SITTER_TIMELIKE,
        }
        for a, b in de_sitter_pairs(rng, 300):
            got = segment_kind(a, b)
            _, b2 = lorentz_orthogonal_basis(a.coords, b.coords)
            want = mapping[classify_vector(b2)]
            if got is SegmentKind.EMPTY:
                assert want is SegmentKind.DE_SITTER_TIMELIKE
            else:
                assert got is want

    def test_lorentz_invariance(self, rng):
        for a, b in de_sitter_pairs(rng, 100):
            m = random_lorentz(rng)
            before = segment_kind(a, b)
            image = (surface_point(apply_matrix(m, p.coords)) for p in (a, b))
            assert segment_kind(*image) is before
