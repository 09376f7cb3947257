"""The benchmark's traced names resolve against the library.

The span recorder in perfbench/spans.py patches each (owner, attribute)
pair of its TRACED list; renaming one of those functions would otherwise
surface only when the benchmark runs.
"""

import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TRACED = runpy.run_path(str(SPANS))["TRACED"]


@pytest.mark.parametrize("owner, attr, span", TRACED,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in TRACED])
def test_traced_name_resolves_to_callable(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"
