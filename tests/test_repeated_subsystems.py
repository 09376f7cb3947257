"""A subsystem that repeats the one before it is read once.

The parse shares a repeat's matrices, canonical rows and analysis form with
the subsystem it repeats (`cli._read_document`). Each document here is
compared with a reference that spells agent k's integers as "(k x)/k": the
same model and digest, but no two neighbouring subsystem objects are equal,
so the reference is read agent by agent.
"""

import json
import random
from collections import Counter

import pytest

from netctrl import cli, ratfun
from netctrl import model as model_mod
from netctrl.cli import DocumentError, load_document, main, parse_document
from netctrl.model import NdsModel

import randgen

AGENT = {"A_xx": [[1, 0], [0, 2]], "A_xv": [[1], [0]], "B_xu": [[0], [1]],
         "A_zx": [[1, 0]], "A_zv": [[0]], "B_zu": [[0]]}
FREE = {"E1": [[1], [0]], "E2": [[0]], "F1": [["1/2", 0]], "F2": [[0]], "F3": [[0]],
        "H": [[0]], "param": {"free": [[1, 1]]}}
FIXED = dict(FREE, param={"fixed": [["3/2"]]})
OTHER = dict(AGENT, A_xx=[[0, 1], [-1, 0]])


def _agent(**overrides):
    return {**json.loads(json.dumps(AGENT)), **overrides}


def _doc(subsystems):
    n = len(subsystems)
    return {"subsystems": subsystems,
            "scm": {"free": [[i + 1, (i + 1) % n + 1] for i in range(n)]}}


def _spelled(x, k: int):
    """x with every int matrix entry written as the string "(k x)/k"."""
    if isinstance(x, dict):
        return {key: v if key in ("name", "free") else _spelled(v, k) for key, v in x.items()}
    if isinstance(x, list):
        return [_spelled(y, k) for y in x]
    return f"{x * k}/{k}" if type(x) is int else x


def _reference(doc):
    return dict(doc, subsystems=[_spelled(s, k)
                                 for k, s in enumerate(doc["subsystems"], 1)])


def _outputs(doc, tmp_path, capsys):
    """What a document yields: digest, canonical document, names and
    parameter ids, warnings, and each command's exit code, stdout and
    stderr; and the number of distinct analysis forms."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    model, options, warnings, digest = load_document(str(path))
    runs = []
    for argv in (["check"], ["realize"], ["realize", "--seed", "3"]):
        code = main([argv[0], str(path), *argv[1:]])
        runs.append((code, *capsys.readouterr()))
    facts = (digest, cli.serialize_document(model, options),
             [s.name for s in model.subsystems], model.P_pattern.entries, warnings, runs)
    return facts, len({id(a) for a in model.analysis})


CASES = {
    "names": [_agent(name="a"), _agent(name="b"), _agent(), _agent(name=7),
              _agent(name=""), dict(OTHER, name="o")],
    "no-names": [_agent() for _ in range(4)],
    "free-blocks": [_agent(lft=FREE, name=f"f{i}") for i in range(4)] + [OTHER],
    "fixed-blocks": [_agent(lft=FIXED) for _ in range(3)],
    "runs": [_agent(), _agent(), dict(OTHER), dict(OTHER), _agent(lft=FREE),
             _agent(lft=FREE), _agent()],
    # every agent warns at its own position; none is shared
    "floats": [_agent(A_xx=[[0.5, 0], [0, 2]]) for _ in range(3)],
    # 1.0 == 1 == True in JSON values: the float must still warn
    "float-equal-to-an-int": [_agent(), _agent(A_xx=[[1.0, 0], [0, 2]]), _agent()],
    # 2**70 as a float reads as its shortest decimal, not as 2**70
    "float-equal-to-a-large-int": [_agent(A_xx=[[float(2 ** 70), 0], [0, 2]]),
                                   _agent(A_xx=[[2 ** 70, 0], [0, 2]]),
                                   _agent(A_xx=[[2 ** 70, 0], [0, 2]])],
}


@pytest.mark.parametrize("name", CASES)
def test_shared_parse_equals_unshared(tmp_path, capsys, name):
    doc = _doc(CASES[name])
    facts, forms = _outputs(doc, tmp_path, capsys)
    reference, reference_forms = _outputs(_reference(doc), tmp_path, capsys)
    assert reference_forms == len(doc["subsystems"])
    assert facts == reference
    assert forms < reference_forms or name.startswith("float")


def test_float_warnings_are_positioned_at_each_agent():
    warnings = parse_document(_doc(CASES["floats"]))[2]
    assert warnings == [f"subsystems[{k}].A_xx[1][1]: float 0.5 converted to an exact "
                        "rational" for k in (1, 2, 3)]
    warnings = parse_document(_doc(CASES["float-equal-to-an-int"]))[2]
    assert warnings == ["subsystems[2].A_xx[1][1]: float 1.0 converted to an exact rational"]


def _broken(sub):
    return [_agent(lft=FREE), _agent(lft=FREE), sub]


# A malformed subsystem right after a valid repeat: its own positioned error.
MALFORMED = [
    (_agent(lft=FREE, A_xx=[[True, 0], [0, 2]]),
     "subsystems[3].A_xx[1][1]: boolean is not a matrix entry"),
    (_agent(lft=dict(FREE, param={"free": [[True, 1]]})),
     "subsystems[3].lft.param.free: positions must be [row, col] integer pairs"),
    (_agent(lft=dict(FREE, param={"free": [[1.0, 1]]})),
     "subsystems[3].lft.param.free: positions must be [row, col] integer pairs"),
    (_agent(lft=FREE, A_xx=[[1, 0], [0]]),
     "subsystems[3].A_xx: rows have differing lengths [1, 2]"),
    (_agent(lft=FREE, A_xx=[[float("nan"), 0], [0, 2]]),
     "subsystems[3].A_xx[1][1]: non-finite number nan is not a matrix entry"),
    (_agent(lft=FREE, C_yx=[[1, 0]]),
     "subsystems[3].C_yx: external outputs do not enter controllability; remove the key"),
    ({k: v for k, v in _agent(lft=FREE).items() if k != "B_zu"},
     "subsystems[3]: missing matrix B_zu"),
    (_agent(lft=FREE, A_xv=[[1, 0], [0, 0]]),
     "subsystems[3]: subsystem3: A_zv0 has shape (1, 1), expected (1, 2)"),
]


@pytest.mark.parametrize("sub, message", MALFORMED)
def test_malformed_after_a_repeat(tmp_path, capsys, sub, message):
    doc = _doc(_broken(sub))
    for variant in (doc, _reference(doc)):
        with pytest.raises(DocumentError) as err:
            parse_document(variant)
        assert str(err.value) == message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(variant), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("lft_prob", [0.0, 1.0])
def test_work_does_not_grow_with_agents(monkeypatch, lft_prob):
    # N identical agents cost one agent's parse, one analysis form and one
    # Markov sweep
    sub = randgen.random_subsystem(random.Random(11), 1, lft_prob=lft_prob)
    assert sub.has_free_params == bool(lft_prob)
    agent = cli.serialize_document(NdsModel.unrouted([sub]),
                                   cli.DEFAULT_OPTIONS)["subsystems"][0]
    counts = Counter()

    def counted(label, f):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_parse_matrix", counted("parse", cli._parse_matrix))
    monkeypatch.setattr(model_mod, "analysis_form",
                        counted("form", model_mod.analysis_form))
    monkeypatch.setattr(ratfun, "entry_classes",
                        counted("classes", ratfun.entry_classes))
    per_agents = {}
    for n in (1, 2, 8, 32):
        counts.clear()
        doc = {"subsystems": [dict(agent, name=f"agent{i + 1}") for i in range(n)]}
        model = parse_document(doc)[0]
        ratfun.nds_tfms(model)
        per_agents[n] = dict(counts)
        assert [s.name for s in model.subsystems] == [f"agent{i + 1}" for i in range(n)]
        if lft_prob:
            assert sorted(model.P_pattern.entries.values()) == sorted(
                f"p{i + 1}_0_0" for i in range(n))
    assert per_agents[1]["form"] == per_agents[1]["classes"] == 1
    assert all(counts == per_agents[1] for counts in per_agents.values()), per_agents
