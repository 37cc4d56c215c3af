"""Shared fixtures, and the test oracles: seeded Lorentz maps, point and
segment samplers, a quadrature arc length independent of the closed-form
distance, the side rule and the cross-product angle in MVec3 arithmetic,
and the CLI's replies as json.dumps writes them.  The package itself uses
none of them."""

import json
import math

import numpy as np
import pytest

from minktrig.errors import (
    EmptySegment,
    MinkTrigError,
    RejectionBudgetExhausted,
    PolarNonExistent,
    UnsupportedFamily,
)
from minktrig.constants import _POINT_EQ_TOL, EPS_LIGHT
from minktrig.mink import MVec3, cross, euclid_dot, minkowski_norm, minkowski_product
from minktrig.polar import polar_triangle
from minktrig.surfaces import (
    Component,
    SegmentKind,
    SurfacePoint,
    _check_legs,
    _clamped_arcosh,
    _Side,
    _wrap_angle,
    distance,
    points_equal,
    segment_kind,
    surface_point,
    tangent_vector,
)
from minktrig.triangles import LawFamily, classify_triangle, triangle_inequality_report


SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def vec(x1, x2, x3):
    return MVec3(float(x1), float(x2), float(x3))


def j_transform(x: MVec3) -> MVec3:
    """Negate the time component.  An involution and a Lorentz transformation."""
    return MVec3(-x.x1, x.x2, x.x3)


def law_families(batch) -> list:
    """Each row's LawFamily in a LawBatch, None where it has no laws."""
    return [tuple(LawFamily)[f] if f >= 0 else None for f in batch.family.tolist()]


J_MATRIX = np.diag([-1.0, 1.0, 1.0])


def as_array(x: MVec3) -> np.ndarray:
    return np.array([x.x1, x.x2, x.x3])


def from_array(a) -> MVec3:
    return MVec3(float(a[0]), float(a[1]), float(a[2]))


def apply_matrix(m: np.ndarray, x: MVec3) -> MVec3:
    return from_array(np.asarray(m) @ as_array(x))


def _rotation_e1(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_lorentz(
    rng: np.random.Generator,
    orthochronous: bool = True,
    max_rapidity: float = 3.0,
) -> np.ndarray:
    """Rotation-boost-rotation Lorentz matrix with bounded rapidity; the
    rotations turn the x2-x3 plane and the boost acts in the e1-e2 plane.

    With ``orthochronous`` the (1,1) entry is >= 1, so the forward hyperboloid
    sheet is preserved.
    """
    r1 = _rotation_e1(rng.uniform(0.0, 2.0 * math.pi))
    r2 = _rotation_e1(rng.uniform(0.0, 2.0 * math.pi))
    rapidity = rng.uniform(0.0, max_rapidity)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    m = r1 @ boost @ r2
    if not orthochronous and rng.random() < 0.5:
        m = J_MATRIX @ m
    return m


def sample_point(
    component: Component,
    rng: np.random.Generator,
    max_rapidity: float = 3.0,
) -> SurfacePoint:
    """Point on the requested component, uniform in (rapidity, angle) parameters."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if component is Component.DE_SITTER:
        v = rng.uniform(-max_rapidity, max_rapidity)
        x = MVec3(math.sinh(v), math.cosh(v) * math.cos(theta),
                  math.cosh(v) * math.sin(theta))
    else:
        u = rng.uniform(0.0, max_rapidity)
        x = MVec3(math.cosh(u), math.sinh(u) * math.cos(theta),
                  math.sinh(u) * math.sin(theta))
        if component is Component.NEG_H2:
            x = -x
    return surface_point(x)


def sample_segment(kind: SegmentKind, rng: np.random.Generator) -> tuple:
    """Endpoint pair whose segment has the requested kind."""
    targets = {
        SegmentKind.HYPERBOLIC: Component.H2,
        SegmentKind.ANTIPODAL_HYPERBOLIC: Component.NEG_H2,
        SegmentKind.DE_SITTER_SPACELIKE: Component.DE_SITTER,
        SegmentKind.DE_SITTER_TIMELIKE: Component.DE_SITTER,
    }
    if kind not in targets:
        raise UnsupportedFamily(f"cannot sample segments of kind {kind}")
    comp = targets[kind]
    cap = 1.5
    for _ in range(100_000):
        a = sample_point(comp, rng, cap)
        b = sample_point(comp, rng, cap)
        try:
            k = segment_kind(a, b)
        except MinkTrigError:
            continue
        if k is kind:
            d = distance(a, b)
            if 0.05 < d < (math.pi - 0.05 if k is SegmentKind.DE_SITTER_SPACELIKE
                           else math.inf):
                return a, b
    raise RejectionBudgetExhausted(kind.value, 100_000, 0)


def arc_length_oracle(
    a: SurfacePoint, b: SurfacePoint, steps: int = 10_000
) -> float:
    """Composite-Simpson integral of the segment's speed, via finite differences.

    Independent of the closed-form distance: the curve is evaluated from its
    parametrization, the derivative numerically, and the length by quadrature.
    A lightlike segment has length 0 by definition, so it is refused with the
    empty and single-point ones.
    """
    kind = segment_kind(a, b)
    if kind in (SegmentKind.EMPTY, SegmentKind.POINT, SegmentKind.DE_SITTER_LIGHTLIKE):
        raise EmptySegment("oracle needs a segment of positive length")
    if steps % 2:
        steps += 1

    T = distance(a, b)
    A = as_array(a.coords)
    X = as_array(tangent_vector(a, b))
    spacelike = kind is SegmentKind.DE_SITTER_SPACELIKE

    def gamma(ts: np.ndarray) -> np.ndarray:
        if spacelike:
            return np.outer(np.cos(ts), A) + np.outer(np.sin(ts), X)
        return np.outer(np.cosh(ts), A) + np.outer(np.sinh(ts), X)

    ts = np.linspace(0.0, T, steps + 1)
    h = 1e-6 * max(T, 1.0)
    dg = (gamma(ts + h) - gamma(ts - h)) / (2.0 * h)
    q = -dg[:, 0] ** 2 + dg[:, 1] ** 2 + dg[:, 2] ** 2
    speed = np.sqrt(np.abs(q))
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((T / steps) / 3.0 * np.dot(w, speed))


def side_reference(a: SurfacePoint, b: SurfacePoint) -> _Side:
    """surfaces._side in MVec3 arithmetic: the products, the cross product
    and the equal and opposite tests built from MVec3 temporaries, which the
    float rule must match bit for bit."""
    A, B = a.coords, b.coords
    p = minkowski_product(A, B)
    n = cross(A, B)
    n2 = minkowski_product(n, n)
    equal = points_equal(a, b)
    opposite = (A + B).euclid_norm() <= _POINT_EQ_TOL
    lightlike = (not (equal or opposite)
                 and abs(n2) <= EPS_LIGHT * euclid_dot(n, n))
    if equal:
        kind, length = SegmentKind.POINT, 0.0
    elif opposite or a.component is not b.component:
        kind, length = SegmentKind.EMPTY, math.inf
    elif a.component is Component.H2:
        kind, length = SegmentKind.HYPERBOLIC, _clamped_arcosh(-p)
    elif a.component is Component.NEG_H2:
        kind, length = SegmentKind.ANTIPODAL_HYPERBOLIC, _clamped_arcosh(-p)
    elif p <= -1.0:
        kind, length = SegmentKind.EMPTY, math.inf
    elif lightlike:
        kind, length = SegmentKind.DE_SITTER_LIGHTLIKE, 0.0
    elif n2 > 0.0:
        kind = SegmentKind.DE_SITTER_TIMELIKE
        length = math.acosh(p if p > 1.0 else 1.0)
    else:
        kind = SegmentKind.DE_SITTER_SPACELIKE
        length = math.acos(p if p < 1.0 else 1.0)
    return _Side(kind, length, p, n, n2, lightlike, opposite)


def angle_via_cross_reference(b: SurfacePoint, a: SurfacePoint,
                              c: SurfacePoint) -> float:
    """surfaces.angle_via_cross from its own segment kinds, cross products and
    Minkowski norms, which the view of the two sides must match bit for bit."""
    kind = _check_legs((segment_kind(a, b), segment_kind(a, c)))
    A, B, C = a.coords, b.coords, c.coords
    nab, nac = cross(A, B), cross(A, C)
    p = minkowski_product(nab, nac) / (minkowski_norm(nab) * minkowski_norm(nac))
    if kind in (SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE):
        p = -p
    return _wrap_angle(p, kind)


def jsonify(value):
    """The CLI's stand-in for infinities: the string "inf", either sign."""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def emitted(payload):
    """The CLI's reply for a payload: json.dumps, through jsonify where the
    payload holds an infinity or a NaN."""
    payload = {"schema": "minktrig/1", **payload}
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        text = json.dumps(jsonify(payload))
    return text + "\n"


def classify_reply(t) -> str:
    """The classify reply for triangle t, from the payload as a dict."""
    cls, sides = classify_triangle(t)
    ineq = triangle_inequality_report(t)
    return emitted({
        "family": cls.family.value,
        "proper_kind": cls.proper_kind.value if cls.proper_kind else None,
        "sides": [{"label": s.label, "kind": s.kind.value, "length": s.length}
                  for s in sides],
        "impossible_sides": list(cls.impossible_sides),
        "degenerate": cls.degenerate,
        "contractible": cls.contractible,
        "triangle_inequality": {"holds": ineq.holds, "predicted": ineq.predicted},
    })


def polar_reply(t) -> tuple:
    """The polar exit code and reply for triangle t, from the payload as a
    dict."""
    try:
        result = polar_triangle(t)
    except PolarNonExistent as exc:
        return 3, emitted({"nonexistent": exc.reason, "epsilon": None})
    if result.zero_triangle:
        return 0, emitted({"zero_triangle": True, "epsilon": 0})
    return 0, emitted({"vertices": [list(v.as_tuple()) for v in result.vertices],
                       "epsilon": result.epsilon})


# verdict lines recorded by the acceptance suite, echoed after capture ends
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
