"""Design and feasibility reports stay as recorded.

`data/design_reports.json` holds twelve seeded random design documents
(`randgen.random_fixed_subsystems` at max_sub 4, 8 and 16: fixed
subsystems, no routing; feasible and infeasible ones) and, for each, the
exit code and report that `design`, `design --modes unstable` and
`feasible` gave when the file was recorded. A change in how a report is
computed must not change what it says: every field compares equal, and
every number, an eigenvalue printed as a string included, to a relative
1e-12.
"""

import json
import math
from pathlib import Path

import pytest

from netctrl.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "design_reports.json")
                   .read_text(encoding="utf-8"))["cases"]


def _number(x):
    """x as a complex number when it is a float or a printed float or complex
    (which holds one of ".j+-", as no model digest does), else None."""
    if isinstance(x, float):
        return complex(x)
    if isinstance(x, str) and any(c in x for c in ".j+-"):
        try:
            return complex(x)
        except ValueError:
            return None
    return None


def _assert_same(got, want, where):
    w = _number(want)
    if w is not None:
        g = _number(got)
        assert type(got) is type(want) and g is not None, f"{where}: {got!r} != {want!r}"
        assert (math.isclose(g.real, w.real, rel_tol=1e-12)
                and math.isclose(g.imag, w.imag, rel_tol=1e-12)), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), \
            f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: {got!r} != {want!r}"
        for i, (g, w_item) in enumerate(zip(got, want)):
            _assert_same(g, w_item, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES,
                         ids=[f"seed{c['seed']}-max_sub{c['max_sub']}" for c in CASES])
def test_reports_match_recorded(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case["document"]), encoding="utf-8")
    for run in case["runs"]:
        argv = run["argv"]
        code = main(argv[:1] + [str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (run["exit"], ""), " ".join(argv)
        _assert_same(json.loads(captured.out), run["report"], " ".join(argv))
