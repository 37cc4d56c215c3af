#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, in both trace modes; that corrupted or failed outputs are
counted as failed; and that the harness refuses to run, without printing a
result, in a directory that holds only the benchmark.  Takes about 30 s.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

problems = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def run_harness(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace, units in wanted.items():
            proc = run_harness(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{tag}: metrics or units differ from BENCHMARK.json")
            for k, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{tag}: {k} not a number")
            text = "\n".join(lines[:-1])
            for name, unit in units.items():
                line = rf"^{w['name']} {re.escape(name)} = \S+ {re.escape(unit)}( |$)"
                expect(re.search(line, text, re.M) is not None,
                       f"{tag}: {name} not printed with its unit")


def check_counting() -> None:
    good = json.dumps({"summary": {"count": 2, "failures": 0, "tolerance": 1e-9},
                       "reports": [{"family": "tempolateral",
                                    "within_tolerance": True}] * 2})
    call = wl.CliCall(0, good, "", 0.001, None)
    expect(wl.check_verify(call, 2, "tempolateral") == wl.OK, "good verify output refused")
    corrupted = [
        wl.CliCall(0, good[:-7], "", 0.001, None),                  # truncated JSON
        wl.CliCall(0, good.replace('"count": 2', '"count": 3'), "", 0.001, None),
        wl.CliCall(0, good.replace("tempolateral", "hyperbolic"), "", 0.001, None),
        wl.CliCall(0, good.replace('"failures": 0', '"failures": 1'), "", 0.001, None),
        wl.CliCall(4, good, "", 0.001, None),                       # --strict failure
        wl.CliCall(None, "", "", 0.001, ValueError("boom")),        # traceback
    ]
    statuses = [wl.check_verify(c, 2, "tempolateral") for c in corrupted]
    expect(all(s != wl.OK for s in statuses), f"corrupted verify counted ok: {statuses}")

    req = wl.Request(["polar"], "", 3,
                     wl._check_nonexistent("OppositeVertices"))
    ok_call = wl.CliCall(3, '{"nonexistent": "OppositeVertices"}', "", 0.001, None)
    expect(wl.check_request(req, ok_call) == wl.OK, "good polar request refused")
    for bad in (wl.CliCall(0, '{"nonexistent": "OppositeVertices"}', "", 0.001, None),
                wl.CliCall(3, '{"nonexistent": "Lightlike', "", 0.001, None),
                wl.CliCall(None, "", "", 0.001, ValueError("NaN"))):
        expect(wl.check_request(req, bad) != wl.OK, "corrupted request counted ok")

    # a polar answer that is j-transformed, or has the other sign, is refused
    import minktrig.cli  # noqa: F401
    req = next(r for r in wl.make_requests(3) if r.argv == ["polar"] and r.code == 0)
    call = wl.call_cli(req.argv, req.stdin)
    expect(wl.check_request(req, call) == wl.OK, "good polar output refused")
    data = json.loads(call.out)
    for verts, eps in (([[-v[0], v[1], v[2]] for v in data["vertices"]], data["epsilon"]),
                       ([[-x for x in v] for v in data["vertices"]], -data["epsilon"])):
        bad = wl.CliCall(0, json.dumps(dict(data, vertices=verts, epsilon=eps)), "",
                         0.001, None)
        expect(wl.check_request(req, bad) != wl.OK, "corrupted polar output counted ok")

    seg = run.Segment()
    seg.add_pass([wl.Result(wl.OK, 0.001, 1), wl.Result(wl.WRONG, 0.001, 1),
                  wl.Result(wl.FAILED, 0.001, 1)])
    expect((seg.attempted, seg.failed, seg.wrong) == (3, 2, 1),
           f"segment counted {seg.attempted}/{seg.failed}/{seg.wrong}")


def check_refuses_without_sources(spec) -> None:
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_harness(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "harness ran without minktrig sources")
        expect('"metrics"' not in proc.stdout, "harness printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_counting()
    check_refuses_without_sources(spec)
    check_metrics(spec)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
