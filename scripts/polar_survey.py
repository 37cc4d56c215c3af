#!/usr/bin/env python3
"""Survey the polar-triangle type mapping over a mixed sample batch.

Prints, for each input class, how its polar triangles classify (or why the
polar does not exist), as a frequency table, and then the number of rows
whose polar misses the type predicted for it (criterion 5 of the acceptance
suite).  Exits 1 when that number is not 0.

Usage:
    python3 scripts/polar_survey.py --count 2000 --seed 1
"""

import argparse
from collections import Counter, defaultdict

from minktrig.errors import PolarNonExistent
from minktrig.polar import polar_triangle, predict_polar_type, prediction_satisfied
from minktrig.samplers import SampleSpec, sample_triangle
from minktrig.triangles import Triangle, TriangleFamily, classify_triangle


def class_label(cls) -> str:
    if cls.family is TriangleFamily.PROPER:
        base = (cls.proper_kind.value if cls.proper_kind is not None
                else "impossible")
    else:
        base = cls.family.value
    if cls.impossible_sides:
        base += f"[{len(cls.impossible_sides)} empty]"
    return base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    table = defaultdict(Counter)
    violations = 0
    spec = SampleSpec(family="mixed", count=args.count, seed=args.seed)
    for t in sample_triangle(spec):
        cls, _ = classify_triangle(t)
        pred = predict_polar_type(cls)
        source = class_label(cls)
        try:
            res = polar_triangle(t)
        except PolarNonExistent as exc:
            table[source][f"nonexistent:{exc}"] += 1
            violations += not pred.nonexistent
            continue
        if res.zero_triangle:
            table[source]["zero_triangle"] += 1
            violations += not pred.zero_triangle
            continue
        polar_cls, _ = classify_triangle(Triangle.from_vectors(*res.vertices))
        table[source][class_label(polar_cls)] += 1
        violations += not prediction_satisfied(pred, polar_cls)

    for source in sorted(table):
        print(source)
        for outcome, n in table[source].most_common():
            print(f"  -> {outcome}: {n}")
    print(f"type-mapping violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
