import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from netctrl.cli import load_document
from netctrl.data import sec7_path
from netctrl.model import NdsModel, StructuredPattern

from randgen import random_nds


def _with_positions(model, positions):
    """Model with the routing pattern replaced by the given 1-based positions."""
    scm = StructuredPattern(
        model.scm.rows, model.scm.cols,
        {(r - 1, c - 1): f"phi_{r - 1}_{c - 1}" for r, c in positions})
    return NdsModel(model.subsystems, scm)


@pytest.fixture(scope="session")
def sec7():
    """The bundled three-subsystem example with its given routing pattern."""
    model, options, warnings, digest = load_document(sec7_path())
    assert not warnings
    return model


@pytest.fixture(scope="session")
def sec7_designed3(sec7):
    """Same subsystems under the three-link pattern (5,2), (1,4), (3,4)."""
    return _with_positions(sec7, [(5, 2), (1, 4), (3, 4)])


@pytest.fixture(scope="session")
def sec7_designed2(sec7):
    """Same subsystems under the two-link pattern (3,4), (5,2)."""
    return _with_positions(sec7, [(3, 4), (5, 2)])


@pytest.fixture(scope="session")
def sec7_empty(sec7):
    """Same subsystems fully disconnected."""
    return _with_positions(sec7, [])


@pytest.fixture(scope="session")
def random_networks():
    """(label, model) for random_nds seeds 0-599 at max_sub 3 and 1000-1149 at max_sub 8."""
    cases = [(seed, 3) for seed in range(600)] + [(seed, 8) for seed in range(1000, 1150)]
    return [(f"seed {seed} max_sub {max_sub}", random_nds(seed, max_sub))
            for seed, max_sub in cases]
