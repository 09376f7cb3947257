"""The benchmark's traced and imported names resolve against the library.

The span recorder in perfbench/spans.py patches each (owner, attribute)
pair of its TRACED list, perfbench/workloads.py imports the library names
it builds its documents with, and perfbench/record_golden.py reads a few
more; renaming one of those would otherwise surface only when the
benchmark runs.
"""

import runpy
from pathlib import Path

import pytest

from netctrl import cli, ratfun
from netctrl.model import NdsModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = runpy.run_path(str(PERFBENCH / "spans.py"))["TRACED"]


@pytest.mark.parametrize("owner, attr, span", TRACED,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in TRACED])
def test_traced_name_resolves_to_callable(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_workload_imports_resolve():
    runpy.run_path(str(PERFBENCH / "workloads.py"))
    # perfbench/record_golden.py takes each design instance's largest target from it
    assert callable(getattr(ratfun, "mode_data", None))
    # and parses each document, reading its size and its pooled spectrum
    assert callable(getattr(cli, "parse_document", None))
    assert isinstance(getattr(NdsModel, "n_sub", None), property)
    assert callable(getattr(ratfun, "spectrum", None))
