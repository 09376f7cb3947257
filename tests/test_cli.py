import json

import pytest

from netctrl.cli import DocumentError, main, parse_document, serialize_document
from netctrl.data import sec7_path


@pytest.fixture()
def sec7_doc():
    with open(sec7_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def _with_scm(doc, positions):
    doc = json.loads(json.dumps(doc))
    doc["scm"] = {"free": [list(p) for p in positions]}
    return doc


def test_parse_serialize_roundtrip(sec7_doc):
    model, options, warnings = parse_document(sec7_doc)
    doc2 = serialize_document(model, options)
    model2, options2, _ = parse_document(doc2)
    assert serialize_document(model2, options2) == doc2
    assert options2 == options


def test_parse_serialize_roundtrip_with_lft(sec7_doc, tmp_path):
    doc = json.loads(json.dumps(sec7_doc))
    doc["subsystems"][0]["lft"] = {
        "E1": [[1], [0]], "E2": [["1/2"], [0]],
        "F1": [[1, 0]], "F2": [[0, 0]], "F3": [[0]], "H": [[0]],
        "param": {"free": [[1, 1]]},
    }
    doc["scm"] = {"free": [[1, 1]]}
    model, options, warnings = parse_document(doc)
    assert model.subsystems[0].has_free_params
    assert model.analysis[0].m_v == 3
    doc2 = serialize_document(model, options)
    model2, _, _ = parse_document(doc2)
    assert serialize_document(model2, options) == doc2


def test_parse_float_entries_warn(sec7_doc):
    doc = json.loads(json.dumps(sec7_doc))
    doc["subsystems"][0]["A_xx"][0][0] = 0.5
    model, _, warnings = parse_document(doc)
    assert any("float" in w for w in warnings)
    from fractions import Fraction
    assert model.subsystems[0].A_xx0[0][0] == Fraction(1, 2)


def test_parse_scm_full(sec7_doc):
    doc = json.loads(json.dumps(sec7_doc))
    doc["scm"] = "full"
    model, _, _ = parse_document(doc)
    assert model.scm.num_free == 30


def test_parse_errors(sec7_doc):
    bad = json.loads(json.dumps(sec7_doc))
    bad["subsystems"][0]["A_xx"] = [[0, 0], [0]]
    with pytest.raises(DocumentError, match="differing lengths"):
        parse_document(bad)
    bad2 = json.loads(json.dumps(sec7_doc))
    bad2["scm"] = {"free": [[7, 1]]}
    with pytest.raises(DocumentError, match="outside"):
        parse_document(bad2)
    bad3 = json.loads(json.dumps(sec7_doc))
    bad3["subsystems"][0].pop("A_zx")
    with pytest.raises(DocumentError, match="missing matrix"):
        parse_document(bad3)
    bad4 = json.loads(json.dumps(sec7_doc))
    bad4["subsystems"][0]["A_xx"][0][0] = "1/0"
    with pytest.raises(DocumentError, match="bad rational"):
        parse_document(bad4)


@pytest.mark.parametrize("field, value, where", [
    ("options", {"rank_tol": "abc"}, "options.rank_tol"),
    ("options", {"seed": "x"}, "options.seed"),
    ("options", {"eig_tol": "nan"}, "options.eig_tol"),
    ("scm", {"free": 5}, "scm.free"),
    ("lft", {"E1": [[1], [0]], "E2": [[0], [0]], "F1": [[1, 0]], "F2": [[0, 0]],
             "F3": [[0]], "H": [[0]], "param": {"free": 5}},
     "subsystems[1].lft.param.free"),
    ("options", {"seed": 1.7}, "options.seed"),
    ("options", {"seed": True}, "options.seed"),
    ("options", {"rank_tol": True}, "options.rank_tol"),
    ("options", {"eig_tol": False}, "options.eig_tol"),
    ("C_yx", [[1, 0]], "subsystems[1].C_yx"),
    ("C_yv", [[0, 0]], "subsystems[1].C_yv"),
    ("D_yu", [[1]], "subsystems[1].D_yu"),
    ("lft", {"E1": [[1], [0]], "E2": [[0], [0]], "E3": [[1]], "F1": [[1, 0]],
             "F2": [[0, 0]], "F3": [[0]], "H": [[0]], "param": {"free": [[1, 1]]}},
     "subsystems[1].lft.E3"),
    ("scm", {"free": [[True, 1]]}, "scm.free"),
    ("scm", {"free": [[1, False]]}, "scm.free"),
    ("scm", {"rows": True, "free": []}, "scm.rows"),
    ("scm", {"cols": False, "free": []}, "scm.cols"),
    ("lft", {"E1": [[1], [0]], "E2": [[0], [0]], "F1": [[1, 0]], "F2": [[0, 0]],
             "F3": [[0]], "H": [[0]], "param": {"free": [[True, True]]}},
     "subsystems[1].lft.param.free"),
])
def test_malformed_values_exit_2(sec7_doc, tmp_path, capsys, field, value, where):
    doc = json.loads(json.dumps(sec7_doc))
    if where.startswith("subsystems[1]"):
        doc["subsystems"][0][field] = value
    else:
        doc[field] = value
    assert main(["check", _write(tmp_path, doc)]) == 2
    assert f"error: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("options, seed, rank_tol", [
    ({"seed": 3.0}, 3, 1e-9), ({"seed": "4"}, 4, 1e-9),
    ({"rank_tol": 1}, 0, 1.0), ({"rank_tol": "1e-8"}, 0, 1e-8),
])
def test_numeric_option_forms_accepted(sec7_doc, options, seed, rank_tol):
    doc = json.loads(json.dumps(sec7_doc))
    doc["options"] = options
    _, parsed, _ = parse_document(doc)
    assert parsed["seed"] == seed and parsed["rank_tol"] == rank_tol


def test_cmd_check_exit_codes(sec7_doc, tmp_path, capsys):
    given = _write(tmp_path, sec7_doc, "given.json")
    assert main(["check", given, "--out", str(tmp_path / "r1.json")]) == 1
    designed = _write(tmp_path, _with_scm(sec7_doc, [(5, 2), (1, 4), (3, 4)]),
                      "designed.json")
    assert main(["check", designed, "--out", str(tmp_path / "r2.json")]) == 0
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["result"]["pdum_witness"] == ["v12", "z11", "v32", "z32",
                                                "v21", "z21"]
    assert report["command"] == "check"


def test_cmd_check_malformed_exits_2(sec7_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(sec7_doc))
    doc["subsystems"][0]["A_xx"] = [[1, 2], [3]]
    path = _write(tmp_path, doc)
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_reports_byte_identical(sec7_doc, tmp_path):
    # two calls in one process: nothing the first computes may change the second
    path = _write(tmp_path, sec7_doc)
    for argv, code in ((["check", "--seed", "5"], 1), (["design", "--modes", "all"], 0),
                       (["feasible"], 0), (["realize", "--seed", "3"], 1)):
        out1, out2 = tmp_path / f"{argv[0]}1.json", tmp_path / f"{argv[0]}2.json"
        assert main([argv[0], path, *argv[1:], "--out", str(out1)]) == code
        assert main([argv[0], path, *argv[1:], "--out", str(out2)]) == code
        assert out1.read_bytes() == out2.read_bytes()


def test_cmd_design_reports(sec7_doc, tmp_path):
    path = _write(tmp_path, sec7_doc)
    out = str(tmp_path / "design.json")
    assert main(["design", path, "--modes", "unstable", "--out", out]) == 0
    rep = json.loads((tmp_path / "design.json").read_text())
    assert rep["result"]["phi_positions"] == [[3, 4], [5, 2]]
    assert rep["result"]["j_grd"] == [3, 5]
    assert rep["result"]["cover_sets"] == [[3, 5, 7, 11], [3, 5, 7, 9, 11]]
    assert main(["design", path, "--modes", "all", "--out", out]) == 0
    rep = json.loads((tmp_path / "design.json").read_text())
    assert rep["result"]["phi_positions"] == [[1, 4], [3, 4], [5, 2]]
    assert rep["result"]["phi_grid"] == [
        "000*0", "00000", "000*0", "00000", "0*000", "00000"]


def test_cmd_design_infeasible(tmp_path):
    doc = {"subsystems": [{
        "A_xx": [[1]], "A_xv": [[0]], "B_xu": [[0]],
        "A_zx": [[1]], "A_zv": [[0]], "B_zu": [[0]]}],
        "scm": {"free": []}}
    path = _write(tmp_path, doc)
    out = str(tmp_path / "r.json")
    assert main(["design", path, "--out", out]) == 1
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["result"]["infeasible"] is True


def test_cmd_realize(sec7_doc, tmp_path):
    designed = _write(tmp_path, _with_scm(sec7_doc, [(5, 2), (1, 4), (3, 4)]))
    out = str(tmp_path / "r.json")
    assert main(["realize", designed, "--seed", "7", "--out", out]) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["result"]["controllable_witness"] is True
    assert rep["result"]["witness_values"]
    given = _write(tmp_path, sec7_doc, "given.json")
    assert main(["realize", given, "--seed", "7", "--trials", "4",
                 "--out", str(tmp_path / "r2.json")]) == 1


def test_static_subsystem_drives_an_oscillator(tmp_path, capsys):
    # a subsystem without states (z = u) still has ports: its input and
    # internal-input counts come from its output rows
    doc = {"subsystems": [
        {"A_xx": [[0, 1], [-1, 0]], "A_xv": [[0], [1]], "B_xu": [[], []],
         "A_zx": [], "A_zv": [], "B_zu": []},
        {"A_xx": [], "A_xv": [], "B_xu": [],
         "A_zx": [[]], "A_zv": [[0]], "B_zu": [[1]]}],
        "scm": {"free": [[1, 1]]}}
    path = _write(tmp_path, doc)
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["realize", path]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["controllable_witness"] is True
    assert main(["graph", path]) == 0
    assert '"u21" -> "z21";' in capsys.readouterr().out


def test_cmd_feasible(sec7_doc, tmp_path):
    path = _write(tmp_path, sec7_doc)
    assert main(["feasible", path, "--out", str(tmp_path / "f.json")]) == 0
    rep = json.loads((tmp_path / "f.json").read_text())
    assert rep["result"]["feasible"] is True


def test_cmd_graph(sec7_doc, tmp_path):
    path = _write(tmp_path, sec7_doc)
    out = str(tmp_path / "g.dot")
    assert main(["graph", path, "--out", out]) == 0
    dot = (tmp_path / "g.dot").read_text()
    assert dot.count("style=bold") == 5
    assert "style=dashed" in dot
    # disconnected: no bold edges
    empty = _write(tmp_path, _with_scm(sec7_doc, []), "empty.json")
    out2 = str(tmp_path / "g2.dot")
    assert main(["graph", empty, "--out", out2]) == 0
    assert "style=bold" not in (tmp_path / "g2.dot").read_text()


def test_text_format(sec7_doc, tmp_path, capsys):
    path = _write(tmp_path, sec7_doc)
    assert main(["check", path, "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "structurally_controllable: false" in out
    assert "# wall time:" in out


def test_missing_file_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["graph", "--seed", "1"], ["graph", "--tol", "1e-9"], ["graph", "--format", "text"],
    ["feasible", "--seed", "1"], ["realize", "--tol", "1e-9"],
    ["realize", "--eig-tol", "1e-6"], ["check", "--jobs", "2"],
    ["realize", "--method", "pbh"],
])
def test_unread_flags_are_usage_errors(sec7_doc, tmp_path, capsys, argv):
    path = _write(tmp_path, sec7_doc)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["realize", "--trials", "0"], ["realize", "--trials", "-3"],
    ["check", "--tol", "nan"], ["design", "--eig-tol", "-1"],
])
def test_bad_flag_values_are_usage_errors(sec7_doc, tmp_path, capsys, argv):
    path = _write(tmp_path, sec7_doc)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path] + argv[1:])
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("check", "[--seed SEED] [--tol TOL] [--eig-tol EIG_TOL] [--format {json,text}]"),
    ("design", "[--modes {all,unstable}] [--seed SEED] [--tol TOL] [--eig-tol EIG_TOL] "
               "[--format {json,text}]"),
    ("realize", "[--seed SEED] [--trials TRIALS] [--format {json,text}]"),
    ("feasible", "[--modes {all,unstable}] [--tol TOL] [--eig-tol EIG_TOL] "
                 "[--format {json,text}]"),
    ("graph", ""),
], ids=["check", "design", "realize", "feasible", "graph"])
def test_usage_line_per_command(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    usage = err[:err.index(f"netctrl {command}: error:")]  # wrapped to the terminal
    assert usage.split() == f"usage: netctrl {command} [-h] {flags} [--out OUT] file".split()


def test_realize_echoes_only_used_settings(sec7_doc, tmp_path):
    path = _write(tmp_path, sec7_doc)
    out = tmp_path / "r.json"
    main(["realize", path, "--trials", "1", "--out", str(out)])
    args = json.loads(out.read_text())["arguments"]
    assert sorted(args) == ["seed", "trials"]


@pytest.mark.parametrize("command", ["design", "feasible", "realize", "graph"])
def test_float_warning_on_every_command(sec7_doc, tmp_path, capsys, command):
    doc = json.loads(json.dumps(sec7_doc))
    doc["subsystems"][0]["A_xx"][0][0] = 0.5
    path = _write(tmp_path, doc)
    main([command, path, "--out", str(tmp_path / "out")])
    assert "warning:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "design", "realize", "feasible", "graph"])
def test_unwritable_out_exits_2(sec7_doc, tmp_path, capsys, command):
    path = _write(tmp_path, sec7_doc)
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main([command, path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
