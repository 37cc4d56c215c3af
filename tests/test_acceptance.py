"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Each test prints its verdict to the real stdout so the lines survive pytest
capture, then asserts.  Sampled batches are shared through module fixtures to
keep the whole suite under two minutes.
"""

import math
import sys

import numpy as np
import pytest

from minktrig.errors import PolarNonExistent
from minktrig.polar import polar_triangle, predict_polar_type, prediction_satisfied
from minktrig.samplers import SampleSpec, sample_triangle
from minktrig.surfaces import SegmentKind, angle, angle_via_cross, distance
from minktrig.triangles import (
    ProperKind,
    Triangle,
    classify_triangle,
    triangle_inequality_report,
)
from minktrig.trig import law_batch, trig_report

import conftest
from conftest import (
    SQRT2,
    SQRT3,
    apply_matrix,
    arc_length_oracle,
    random_lorentz,
    sample_segment,
    vec,
)

N_BIG = 10_000
N_SMALL = 1_000


def report(number: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {number:2d}] {verdict}: {description}{suffix}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} failed: {description}{suffix}"


def tri(*vecs):
    return Triangle.from_vectors(*(vec(*v) for v in vecs))


def batch(family, count, seed):
    return sample_triangle(SampleSpec(family=family, count=count, seed=seed))


def laws(triangles):
    """law_batch of the triangles' vertex rows, every row of which must be OK."""
    result = law_batch([[v.coords.as_tuple() for v in t.vertices()] for t in triangles])
    result.raise_first()
    return result


@pytest.fixture(scope="module")
def batch_hyp():
    return batch("hyperbolic", N_BIG, 101)


@pytest.fixture(scope="module")
def batch_nc():
    return batch("spatiolateral_noncontractible", N_BIG, 102)


@pytest.fixture(scope="module")
def batch_c():
    return batch("spatiolateral_contractible", N_BIG, 103)


@pytest.fixture(scope="module")
def batch_tempo():
    return batch("tempolateral", N_BIG, 104)


@pytest.fixture(scope="module")
def batch_mixed():
    return batch("mixed", N_BIG, 105)


def test_criterion_01_worked_examples():
    chrono = tri((0, 1, 0), (0, 0, 1),
                 (30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82))
    a, b, c = (distance(p, q) for p, q in chrono.side_endpoints())
    leg = math.acosh(59 * SQRT2 / 82)
    ok = (abs(a - leg) < 1e-6 and abs(b - leg) < 1e-6
          and abs(leg - 0.187) < 1e-3 and abs(c - math.pi / 2) < 1e-6)

    choro = tri((1, 0, SQRT2), (-1, 0, SQRT2), (0, SQRT3 / 2, 0.5))
    a, b, c = (distance(p, q) for p, q in choro.side_endpoints())
    ok = ok and (abs(a - math.pi / 4) < 1e-6 and abs(b - math.pi / 4) < 1e-6
                 and abs(c - math.acosh(3)) < 1e-6)

    sixth = 6 * math.pi / 25
    verdict_cases = [
        (tri((0, 1, 0), (0, 0, 1),
             (30 * SQRT2 / 41, 59 * SQRT2 / 82, 59 * SQRT2 / 82)), False),
        (tri((0, 1, 0), (0, SQRT3 / 2, -0.5), (41, 29, 29)), False),
        (tri((0, 1, 0), (0, SQRT2 / 2, SQRT2 / 2), (41, 29, 29)), True),
        (tri((1, 0, SQRT2), (-1, 0, SQRT2), (0, SQRT3 / 2, 0.5)), False),
        (tri((0, 1, 0), (20 / 21, 0, 29 / 21),
             (0, math.cos(sixth), math.sin(sixth))), False),
        (tri((1, 0, SQRT2), (0, 0, 1), (0, SQRT3 / 2, 0.5)), True),
    ]
    matches = sum(triangle_inequality_report(t).holds is expected
                  for t, expected in verdict_cases)
    ok = ok and matches == 6
    report(1, "worked examples reproduced to 1e-6, all six inequality "
              "verdicts match", ok, f"{matches}/6 verdicts")


def test_criterion_02_trig_law_residuals(batch_hyp, batch_nc, batch_c,
                                         batch_tempo):
    worst = max(float(laws(b).max_residual.max())
                for b in (batch_hyp, batch_nc, batch_c, batch_tempo))
    report(2, "LCS/LCA/sines residuals < 1e-9 on 10^4 triangles in each of "
              "the four families", worst < 1e-9, f"max residual {worst:.3e}")


def test_criterion_03_polar_involution(batch_hyp, batch_nc, batch_c,
                                       batch_tempo):
    worst = 0.0
    count = 0
    for b in (batch_hyp, batch_nc, batch_c, batch_tempo):
        for t in b[: N_BIG // 4]:
            res = polar_triangle(t)  # a missing polar raises and fails
            back = polar_triangle(Triangle.from_vectors(*res.vertices))
            assert back.epsilon == res.epsilon
            for got, want in zip(back.vertices,
                                 (v.coords for v in t.vertices())):
                worst = max(worst, (got - want).euclid_norm())
            count += 1
    ok = worst < 1e-9 and count == N_BIG
    report(3, "polar of polar returns the original vertices within 1e-9 on "
              "10^4 triangles", ok, f"max deviation {worst:.3e}")


def test_criterion_04_duality_lemma(batch_hyp):
    worst = 0.0
    for t in batch_hyp[:N_SMALL]:
        a, b, c = t.vertices()
        polar = Triangle.from_vectors(*polar_triangle(t).vertices)
        pa, pb, pc = polar.vertices()
        angle_side = [
            (angle(b, a, c), distance(pb, pc)),
            (angle(a, b, c), distance(pa, pc)),
            (angle(a, c, b), distance(pa, pb)),
        ]
        for alpha, a_prime in angle_side:
            worst = max(worst, abs(alpha - (math.pi - a_prime)))
        side_angle = [
            (distance(b, c), angle(pb, pa, pc)),
            (distance(a, c), angle(pa, pb, pc)),
            (distance(a, b), angle(pa, pc, pb)),
        ]
        for side, alpha_prime in side_angle:
            worst = max(worst, abs(side - alpha_prime))
    report(4, "duality on 10^3 hyperbolic triangles: angles are pi minus "
              "polar sides, sides are polar angles, within 1e-9",
           worst < 1e-9, f"max deviation {worst:.3e}")


def test_criterion_05_polar_type_mapping(batch_mixed):
    violations = 0
    nonexistent_kinds = set()
    lightlike_kinds = {
        ProperKind.LUCILATERAL, ProperKind.MULTIPLE,
        ProperKind.PHOTOSCELES_SPACELIKE_BASE,
        ProperKind.PHOTOSCELES_TIMELIKE_BASE,
        ProperKind.BIMETRICAL_CHOROSCELES,
        ProperKind.BIMETRICAL_CHRONOSCELES,
    }
    for t in batch_mixed:
        cls, _ = classify_triangle(t)
        pred = predict_polar_type(cls)
        try:
            res = polar_triangle(t)
        except PolarNonExistent:
            res = None
        if pred.nonexistent:
            if res is not None:
                violations += 1
            if cls.proper_kind in lightlike_kinds:
                nonexistent_kinds.add(cls.proper_kind)
            continue
        if res is None:
            violations += 1
            continue
        if pred.zero_triangle:
            if not res.zero_triangle:
                violations += 1
            continue
        if res.zero_triangle:
            violations += 1
            continue
        polar_cls, _ = classify_triangle(Triangle.from_vectors(*res.vertices))
        if not prediction_satisfied(pred, polar_cls):
            violations += 1
    ok = violations == 0 and nonexistent_kinds == lightlike_kinds
    report(5, "polar type mapping holds on 10^4 mixed samples with zero "
              "violations, including nonexistence for all six "
              "lightlike-sided kinds", ok,
           f"{violations} violations, "
           f"{len(nonexistent_kinds)}/6 lightlike kinds seen")


def test_criterion_06_sum_theorems(batch_hyp, batch_nc, batch_c):
    max_angle_sum = max(laws(batch_hyp).angle_sums())
    disagreements = 0
    for b in (batch_nc, batch_c):
        # the scalar classifier is the independent contractibility reference
        for t, side_sum in zip(b, laws(b).side_sums()):
            cls, _ = classify_triangle(t)
            if (side_sum > 2 * math.pi) != (not cls.contractible):
                disagreements += 1
    ok = max_angle_sum < math.pi and disagreements == 0
    report(6, "hyperbolic angle sums all below pi; spatiolateral side sum "
              "exceeds 2*pi exactly for the non-contractible samples", ok,
           f"max angle sum {max_angle_sum:.12f}, {disagreements} disagreements")


def test_criterion_07_inequality_theorems(batch_tempo, batch_c, batch_nc):
    tempo_holds = sum(triangle_inequality_report(t).holds
                      for t in batch_tempo[:N_SMALL])
    c_holds = 0
    c_bad_dominance = 0
    for t in batch_c[:N_SMALL]:
        rep = triangle_inequality_report(t)
        c_holds += rep.holds
        a, b, c = rep.lengths
        if sum([a > b + c, b > a + c, c > a + b]) != 1:
            c_bad_dominance += 1
    nc_holds = sum(triangle_inequality_report(t).holds
                   for t in batch_nc[:N_SMALL])
    ok = (tempo_holds == 0 and c_holds == 0 and c_bad_dominance == 0
          and nc_holds == N_SMALL)
    report(7, "triangle inequality fails for all tempolateral and "
              "contractible spatiolateral samples (one dominant side each) "
              "and holds for all non-contractible samples", ok,
           f"tempo {tempo_holds}/1000 hold, contractible {c_holds}/1000 hold "
           f"({c_bad_dominance} dominance faults), "
           f"noncontractible {nc_holds}/1000 hold")


def test_criterion_08_arc_length_oracle():
    rng = np.random.default_rng(106)
    kinds = (SegmentKind.HYPERBOLIC, SegmentKind.ANTIPODAL_HYPERBOLIC,
             SegmentKind.DE_SITTER_SPACELIKE, SegmentKind.DE_SITTER_TIMELIKE)
    worst = 0.0
    for kind in kinds:
        for _ in range(N_SMALL):
            a, b = sample_segment(kind, rng)
            worst = max(worst, abs(arc_length_oracle(a, b, 10_000)
                                   - distance(a, b)))
    report(8, "numeric arc length matches closed-form distance within 1e-6 "
              "on 10^3 segments of each finite kind", worst < 1e-6,
           f"max deviation {worst:.3e}")


def test_criterion_09_lorentz_invariance(batch_hyp, batch_nc, batch_c,
                                         batch_tempo):
    rng = np.random.default_rng(107)
    worst = 0.0
    class_mismatches = 0
    for b in (batch_hyp, batch_nc, batch_c, batch_tempo):
        for t in b[: N_SMALL // 4]:
            m = random_lorentz(rng, orthochronous=True)
            image = Triangle.from_vectors(
                *(apply_matrix(m, v.coords) for v in t.vertices())
            )
            cls1, _ = classify_triangle(t)
            cls2, _ = classify_triangle(image)
            if (cls1.family, cls1.proper_kind) != (cls2.family,
                                                   cls2.proper_kind):
                class_mismatches += 1
            for (p, q), (pi, qi) in zip(t.side_endpoints(),
                                        image.side_endpoints()):
                worst = max(worst, abs(distance(p, q) - distance(pi, qi)))
            a1, b1, c1 = t.vertices()
            a2, b2, c2 = image.vertices()
            for before, after in (
                (angle(b1, a1, c1), angle(b2, a2, c2)),
                (angle(a1, b1, c1), angle(a2, b2, c2)),
                (angle(a1, c1, b1), angle(a2, c2, b2)),
            ):
                worst = max(worst, abs(before - after))
            worst = max(worst, abs(trig_report(t).max_residual()
                                   - trig_report(image).max_residual()))
    ok = worst < 1e-9 and class_mismatches == 0
    report(9, "distances, angles, classifications, and trig residuals "
              "invariant under random orthochronous maps on 10^3 samples",
           ok, f"max deviation {worst:.3e}, {class_mismatches} class changes")


def test_criterion_10_angle_via_cross(batch_hyp, batch_nc, batch_c,
                                      batch_tempo):
    anti = batch("antipodal_hyperbolic", N_SMALL, 108)
    worst = 0.0
    for b in (batch_hyp[:N_SMALL], anti, batch_nc[:N_SMALL],
              batch_c[:N_SMALL], batch_tempo[:N_SMALL]):
        for t in b:
            a, bb, c = t.vertices()
            for legs in ((bb, a, c), (a, bb, c), (a, c, bb)):
                worst = max(worst, abs(angle(*legs) - angle_via_cross(*legs)))
    report(10, "cross-product angle formula agrees with the tangent-vector "
               "angle within 1e-10 on 10^3 samples per admissible family",
           worst < 1e-10, f"max deviation {worst:.3e}")
