"""Verdicts take well-posedness as given and draw no test of it.

Every network `NdsModel` accepts is generically well-posed: at zero
parameters each loop matrix is I. So `check`, `design` and `feasible` run
no randomized well-posedness draw, which could only fail by hitting a root
of a nonzero loop determinant. `model.check_well_posedness` remains an
instance filter for the random generators.
"""

import json

import pytest

from netctrl import model, verify
from netctrl.cli import DEFAULT_OPTIONS, main, parse_document, serialize_document
from netctrl.data import sec7_path
from netctrl.model import check_well_posedness
from netctrl.verify import check_structural_controllability

from randgen import random_nds

# One subsystem whose output feeds back to its own input (A_zv = [[1]])
# through one free routing entry phi: the loop determinant 1 - phi vanishes
# only at phi = 1.
FEEDTHROUGH_DOC = {
    "subsystems": [{"A_xx": [[1]], "A_xv": [[1]], "B_xu": [[1]], "A_zx": [[1]],
                    "A_zv": [[1]], "B_zu": [[0]]}],
    "scm": {"free": [[1, 1]]},
}


def test_root_of_the_loop_determinant_leaves_the_verdict(tmp_path, capsys):
    nds = parse_document(FEEDTHROUGH_DOC)[0]
    # the instance filter still draws phi = 1 on all three trials of seed 2
    assert not check_well_posedness(nds, seed=2).well_posed
    assert check_structural_controllability(nds).structurally_controllable
    # check reads no seed, so the document's seed option cannot reach a root
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(FEEDTHROUGH_DOC, options={"seed": 2})),
                    encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _documents() -> list[dict]:
    """sec7 plus random networks at max_sub 3, 8 and 16, with free parameter
    blocks (which design refuses) and without (which it routes)."""
    with open(sec7_path(), encoding="utf-8") as fh:
        docs = [json.load(fh)]
    for max_sub in (3, 8, 16):
        for seed in (1, 2):
            for lft_prob in (0.5, 0.0):
                nds = random_nds(seed, max_sub, lft_prob=lft_prob)
                docs.append(serialize_document(nds, dict(DEFAULT_OPTIONS)))
    return docs


DOCUMENTS = _documents()


@pytest.mark.parametrize("command", ["check", "design", "feasible"])
def test_verdicts_never_test_well_posedness(monkeypatch, tmp_path, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("check_well_posedness called")

    for module in (model, verify):
        monkeypatch.setattr(module, "check_well_posedness", refuse)
    codes = []
    for i, doc in enumerate(DOCUMENTS):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        codes.append(main([command, str(path)]))
        assert capsys.readouterr().err == ""
    assert set(codes) == {0, 1}  # positive and negative verdicts both ran
