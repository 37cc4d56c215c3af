"""The benchmark's own output checks, run on one pass of each workload.

The workloads in bench/workloads.py check every output they time: a verify
call must report its law family with every residual within 1e-9, a survey row
must meet its polar-type prediction, and a CLI request must end with its
expected exit code and output.  This runs one pass of each through the same
interface bench/run.py uses and requires every operation to be OK.  Nothing
under bench/ is changed.
"""

import sys
from pathlib import Path

import pytest

import minktrig  # noqa: F401  the workloads find the modules in sys.modules
import minktrig.cli  # noqa: F401

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

VERIFY_COUNT = 200


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_all_ok(name):
    workload = workloads.WORKLOADS[name]()
    if isinstance(workload, workloads.VerifySample):
        workload.count = VERIFY_COUNT
    workload.setup(1)
    statuses = [op().status for op in workload.ops()]
    bad = [s for s in statuses if s != workloads.OK]
    assert statuses and not bad, f"{len(bad)} of {len(statuses)} not ok: {set(bad)}"
