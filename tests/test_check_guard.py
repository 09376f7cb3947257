"""Check, realize and graph output stays as recorded.

`data/check_reports.json` holds twelve seeded random networks
(`randgen.random_nds` at max_sub 3, 8 and 16, four seeds each,
`lft_prob=0.5`, so most carry free parameter blocks) and, for each, the
exit code and output that `check`, `realize`, `realize --seed 3 --trials 2`
and `graph` gave when the file was recorded (`tests/record_reports.py`
rebuilds it). A realize report's `witness_values`, `trials_used` and
`redraws` follow the order in which the network's parameter pattern draws
its entries, so they pin that order.
Reports compare as in `test_report_guard.py`; DOT text compares exactly.
"""

import json
from pathlib import Path

import pytest

from netctrl.cli import main

from test_report_guard import _assert_same

CASES = json.loads((Path(__file__).parent / "data" / "check_reports.json")
                   .read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", CASES,
                         ids=[f"seed{c['seed']}-max_sub{c['max_sub']}" for c in CASES])
def test_outputs_match_recorded(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case["document"]), encoding="utf-8")
    for run in case["runs"]:
        argv = run["argv"]
        code = main(argv[:1] + [str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (run["exit"], ""), " ".join(argv)
        if "dot" in run:
            assert captured.out == run["dot"], " ".join(argv)
        else:
            _assert_same(json.loads(captured.out), run["report"], " ".join(argv))
