#!/usr/bin/env python3
"""minktrig benchmark harness.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up is timed first: a fresh interpreter importing minktrig and its CLI,
plus the workload's input generation, repeated SETUP_REPS times.

Then checked but untimed warm-up passes run for WARMUP_SECONDS, and whole
passes over the workload's operations run until `--seconds` have passed.
With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics.  With `--trace 1` the first half of the time runs untraced and the
second half under the span tracer (see spans.py); the last line then holds
the per-layer metrics and the tracing overhead, and the spans are written to
`.bench_out/`.

The lines before the last one give each metric with its sample count.  Every
operation's output is checked in both modes.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7
P99_MIN_OPS = 1000
P99_SLICES = 20
WARMUP_SECONDS = 0.5

LAW_FAMILIES = ("hyperbolic", "spatiolateral_noncontractible",
                "spatiolateral_contractible", "tempolateral")


class Segment:
    """What one stretch of passes measured."""

    def __init__(self):
        self.passes = []
        self.pass_rates = []
        self.triangles = 0
        self.bytes_out = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add_pass(self, results) -> None:
        busy = sum(r.seconds for r in results)
        tri = sum(r.triangles for r in results)
        self.pass_rates.append(tri / busy)
        self.triangles += tri
        self.passes.append(array.array("d", (r.seconds for r in results)))
        self.bytes_out += sum(r.bytes_out for r in results)
        self.attempted += len(results)
        self.failed += sum(r.status != "ok" for r in results)
        self.wrong += sum(r.status == "wrong" for r in results)

    def rate(self) -> float:
        return statistics.median(self.pass_rates)

    def latencies(self) -> list:
        return [t for p in self.passes for t in p]


def run_pass(workload, tracer=None, first_op=0):
    results = []
    for i, op in enumerate(workload.ops()):
        if tracer is not None:
            tracer.trace_id = first_op + i
        results.append(op())
    return results


def run_segment(workload, seconds: float, tracer=None) -> Segment:
    seg = Segment()
    deadline = time.perf_counter() + seconds
    while True:
        seg.add_pass(run_pass(workload, tracer, seg.attempted))
        if time.perf_counter() >= deadline:
            return seg


def measure_setup(workload, seed: int) -> list:
    """Wall times of SETUP_REPS set-ups: a fresh import plus input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import minktrig, minktrig.cli"],
                       cwd=ROOT, env=env, check=True, timeout=60)
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def request_p99(seg: Segment):
    """The run's p99 operation time, and a note on how it was taken.

    A p99 wants at least ten operations beyond it.  Where a pass holds
    P99_MIN_OPS or more operations (`polar_survey`, `cli_requests`), every
    pass repeats the same operations, so each operation's time is the median
    of its repeats over the run and the p99 is taken across operations: it is
    the time of the slowest one percent of inputs, and a burst of machine
    contention that hits a few passes does not move it.

    The `verify_*` passes hold two or three calls, each on a fresh sample, and
    a run holds 60 to 200 calls.  There the top two calls of a run are
    whichever a burst hit, so the run is cut into up to P99_SLICES
    consecutive slices of at least ten calls, and the median of the slices'
    p99s, each close to its slowest call, stands in; a burst moves one slice.
    """
    per_pass = len(seg.passes[0])
    if per_pass >= P99_MIN_OPS:
        medians = [statistics.median(p[i] for p in seg.passes)
                   for i in range(per_pass)]
        return (statistics.quantiles(medians, n=100)[98],
                f"over {per_pass} operations, each the median of its "
                f"{len(seg.passes)} repeats")
    latencies = seg.latencies()
    n = len(latencies)
    if n < 2:
        return latencies[0], "1 operation"
    k = max(1, min(P99_SLICES, n // 10))
    return (statistics.median(
        statistics.quantiles(latencies[i * n // k:(i + 1) * n // k], n=100)[98]
        for i in range(k)),
        f"median of the p99s of {k} slices of {n // k} or more operations")


def end_to_end(seg: Segment, setup_times, op_name: str):
    latencies = seg.latencies()
    n = len(latencies)
    p99, p99_note = request_p99(seg)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "triangles_per_s": (seg.rate(), "1/s",
                            f"median over {len(seg.pass_rates)} passes"),
        "request_ms_p50": (1e3 * statistics.median(latencies), "ms",
                           f"{n} {op_name}"),
        "request_ms_p99": (1e3 * p99, "ms", f"{p99_note}; {op_name}"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (rss_mb, "MB", "this run's process"),
        "ok_share": ((seg.attempted - seg.failed) / seg.attempted, "ratio",
                     f"{seg.attempted - seg.failed} of {seg.attempted} {op_name}"),
    }


def per_layer(tr, sampler_tr, units: int, bytes_out: int, overhead: float):
    def per(x, base):
        return x / base if base else 0.0

    m = {}
    for fam in LAW_FAMILIES:
        s = tr.fn(f"trig.trig_report.{fam}")
        m[f"trig.trig_report.self_us.{fam}"] = (per(s.layer_ns, s.calls) / 1e3, "us")
        m[f"trig.max_residual.{fam}"] = (tr.residuals.get(fam, 0.0), "1")
    for name in ("distance", "segment_kind", "angle", "tangent_vector"):
        m[f"surfaces.{name}.calls_per_triangle"] = (
            per(tr.fn(f"surfaces.{name}").calls, units), "count")
    s = tr.fn("triangles.classify_triangle")
    m["triangles.classify_triangle.calls_per_triangle"] = (per(s.calls, units), "count")
    m["triangles.classify_triangle.self_us"] = (per(s.layer_ns, s.calls) / 1e3, "us")
    s = tr.fn("triangles.is_contractible")
    m["triangles.is_contractible.calls_per_triangle"] = (per(s.calls, units), "count")
    m["triangles.is_contractible.us_per_call"] = (per(s.incl_ns, s.calls) / 1e3, "us")
    s = tr.fn("polar.polar_triangle")
    m["polar.polar_triangle.us_per_call"] = (per(s.incl_ns, s.calls) / 1e3, "us")
    m["polar.nonexistent_share"] = (per(s.errors, s.calls), "ratio")
    s = sampler_tr.fn("samplers.sample_triangle")
    m["samplers.sample_triangle.us_per_triangle"] = (per(s.incl_ns, s.items) / 1e3, "us")
    m["samplers.classify_calls_per_triangle"] = (
        per(sampler_tr.site_calls.get("minktrig.samplers:classify_triangle", 0),
            s.items), "count")
    for name in ("minkowski_product", "cross", "det3", "classify_vector"):
        m[f"mink.{name}.calls_per_triangle"] = (per(tr.count(f"mink.{name}"), units),
                                               "count")
    m["mink.calls_per_triangle"] = (per(sum(tr.counts.values()), units), "count")
    for layer in ("surfaces", "triangles", "polar", "trig"):
        m[f"{layer}.self_us_per_triangle"] = (
            per(tr.layer_self_ns[layer], units) / 1e3, "us")
    s = tr.fn("cli.main")
    m["cli.self_us"] = (per(s.layer_ns, s.calls) / 1e3, "us")
    m["cli.bytes_out_per_triangle"] = (per(bytes_out, units), "byte")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def write_spans(tr, workload_name: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for trace_id, span_id, parent, name, t0, t1 in tr.spans:
            fh.write(json.dumps({"trace": trace_id, "span": span_id,
                                 "parent": parent, "name": name,
                                 "start_ns": t0, "end_ns": t1}) + "\n")
    return path


def traced_run(workload, name: str, seed: int, seconds: float):
    import spans

    untraced = run_segment(workload, seconds / 2)
    tr = spans.Tracer()
    sampler_tr = tr
    if workload.samples_in_setup:
        # the sampler runs only in set-up here, so trace one more set-up
        sampler_tr = spans.Tracer()
        sampler_tr.install()
        try:
            workload.setup(seed)
        finally:
            sampler_tr.uninstall()
    tr.install()
    try:
        traced = run_segment(workload, seconds / 2, tr)
    finally:
        tr.uninstall()
    path = write_spans(tr, name, seed)
    overhead = 1.0 - traced.rate() / untraced.rate()
    metrics = per_layer(tr, sampler_tr, traced.triangles, traced.bytes_out, overhead)
    print(f"{name} traced {traced.triangles} triangles in {traced.attempted} "
          f"operations; spans in {path.relative_to(ROOT)}")
    notes = {"trace.overhead_share": f"{traced.rate():.1f} traced vs "
                                     f"{untraced.rate():.1f} untraced triangles/s"}
    return untraced, traced, {k: v + (notes.get(k, ""),) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minktrig" / "__init__.py").is_file():
        sys.stderr.write(f"minktrig sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import minktrig  # noqa: F401
    import minktrig.cli  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        workload.setup(args.seed)
        warm = run_segment(workload, WARMUP_SECONDS)
        untraced, traced, metrics = traced_run(workload, args.workload, args.seed,
                                               args.seconds)
        measured = (untraced, traced)
    else:
        setup_times = measure_setup(workload, args.seed)
        warm = run_segment(workload, WARMUP_SECONDS)
        seg = run_segment(workload, args.seconds)
        metrics = end_to_end(seg, setup_times, workload.op_name)
        measured = (seg,)

    wrong = warm.wrong + sum(s.wrong for s in measured)
    attempted = sum(s.attempted for s in measured)
    failed = sum(s.failed for s in measured)
    for key, (value, unit, note) in metrics.items():
        note = f" ({note})" if note else ""
        print(f"{args.workload} {key} = {value:.6g} {unit}{note}")
    print(f"{args.workload} checks: {attempted} attempted, {failed} failed, "
          f"{wrong} wrong (warm-up included in wrong)")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
