#!/usr/bin/env python3
"""Sample triangles per family and summarize trigonometric-law residuals.

The batches are sampled and measured on the path `minktrig verify --sample`
runs, the sampler handing its classification of the rows to the law kernel,
so the figures are the ones the CLI reports for the same family, count and
seed.

Usage:
    python3 scripts/verify_laws.py --count 2000 --seed 7
    python3 scripts/verify_laws.py --families tempolateral hyperbolic
"""

import argparse
import math

from minktrig.samplers import _LAW_SAMPLES, SampleSpec, _sample_classified
from minktrig.trig import _law_rows

LAW_FAMILIES = _LAW_SAMPLES


def summarize(family: str, count: int, seed: int) -> dict:
    spec = SampleSpec(family=family, count=count, seed=seed)
    _, classes = _sample_classified(spec)
    batch = _law_rows(classes)
    batch.raise_first()
    residuals = batch.max_residual
    out = {"max_residual": float(residuals.max()),
           "mean_residual": float(residuals.mean())}
    angle_sums = [s for s in batch.angle_sums() if s is not None]
    side_sums = [s for s in batch.side_sums() if s is not None]
    if angle_sums:
        out["max_angle_sum_minus_pi"] = max(angle_sums) - math.pi
    if side_sums:
        out["side_sum_range"] = (min(side_sums), max(side_sums))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="+", default=list(LAW_FAMILIES),
                        choices=LAW_FAMILIES)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    for family in args.families:
        stats = summarize(family, args.count, args.seed)
        print(f"{family} (n={args.count})")
        for key, value in stats.items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
