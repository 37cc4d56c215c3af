import math

import numpy as np
import pytest

from minktrig.mink import MVec3


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


# verdict lines recorded by the acceptance suite, echoed after capture ends
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
