"""The system document: exact parse errors and warnings, and the digest.

The error texts are pinned verbatim, and so is which error wins when a
field breaks several rules: the first rule in the order given above each
table wins, then the first entry or position in document order.
"""

import copy
import hashlib
import json
import random

import pytest

from netctrl.cli import (DocumentError, load_document, main, parse_document,
                         serialize_document)
from netctrl.data import sec7_path

# One subsystem with a free 1x1 parameter block and a 1x1 routing pattern.
BASE = {
    "subsystems": [{
        "A_xx": [[1, 0], [0, 2]], "A_xv": [[1], [0]], "B_xu": [[0], [1]],
        "A_zx": [[1, 0]], "A_zv": [[0]], "B_zu": [[0]],
        "lft": {"E1": [[1], [0]], "E2": [[0]], "F1": [[1, 0]], "F2": [[0]],
                "F3": [[0]], "H": [[0]], "param": {"free": [[1, 1]]}},
    }],
    "scm": {"free": [[1, 1]]},
}

A_XX = "subsystems[1].A_xx"

# A_xx -> the exact error. Rules in order: the matrix is a list and so is
# every row; the rows have one length; then each entry in row-major order.
MATRIX_ERRORS = [
    (5, f"{A_XX}: expected a list of rows"),
    (None, f"{A_XX}: expected a list of rows"),
    ("ab", f"{A_XX}: expected a list of rows"),
    ({"a": 1}, f"{A_XX}: expected a list of rows"),
    ([[1, 0], 3], f"{A_XX}: expected a list of rows"),
    ([5, [1, 2]], f"{A_XX}: expected a list of rows"),
    ([[1, 0], (0, 1)], f"{A_XX}: expected a list of rows"),
    # a non-list row after a ragged one still names the rows, not the lengths
    ([[1, 0], [0], 7], f"{A_XX}: expected a list of rows"),
    ([[1, 0], [0], "x"], f"{A_XX}: expected a list of rows"),
    ([[1, 0], [0], None], f"{A_XX}: expected a list of rows"),
    ([[1, 0], [0]], f"{A_XX}: rows have differing lengths [1, 2]"),
    ([[0], [1, 0]], f"{A_XX}: rows have differing lengths [1, 2]"),
    ([[1, 0], [0], [1, 2, 3]], f"{A_XX}: rows have differing lengths [1, 2, 3]"),
    ([[1, True], [0]], f"{A_XX}: rows have differing lengths [1, 2]"),
    ([["x", 0], [0]], f"{A_XX}: rows have differing lengths [1, 2]"),
    ([[0.5, 0], [0]], f"{A_XX}: rows have differing lengths [1, 2]"),
    ([[1, 0], [0, True]], f"{A_XX}[2][2]: boolean is not a matrix entry"),
    ([[False, 0], [0, 1]], f"{A_XX}[1][1]: boolean is not a matrix entry"),
    ([["1/2", False], [0, 1]], f"{A_XX}[1][2]: boolean is not a matrix entry"),
    ([[True, 0.5], [0, 1]], f"{A_XX}[1][1]: boolean is not a matrix entry"),
    ([[0.5, 0], [True, 1]], f"{A_XX}[2][1]: boolean is not a matrix entry"),
    ([["x", True], [0, 1]],
     f"{A_XX}[1][1]: bad rational literal 'x' (Invalid literal for Fraction: 'x')"),
    ([["1/0", 0], [0, 1]], f"{A_XX}[1][1]: bad rational literal '1/0' (Fraction(1, 0))"),
    ([[1, 0], [0, "abc"]],
     f"{A_XX}[2][2]: bad rational literal 'abc' (Invalid literal for Fraction: 'abc')"),
    ([[0.5, 0], [0, "y"]],
     f"{A_XX}[2][2]: bad rational literal 'y' (Invalid literal for Fraction: 'y')"),
    ([[None, 0], [0, 1]], f"{A_XX}[1][1]: unsupported entry None"),
    ([[1, 0], [[1], 1]], f"{A_XX}[2][1]: unsupported entry [1]"),
]

# A list of positions -> the error after its field name. Rules in order: a
# list; each item in order is a pair of non-boolean integers inside the
# block; then no position repeats.
POSITION_ERRORS = [
    (5, "expected a list of [row, col] pairs"),
    ({"r": 1}, "expected a list of [row, col] pairs"),
    ([[1]], "positions must be [row, col] integer pairs"),
    ([[1, 1, 1]], "positions must be [row, col] integer pairs"),
    ([1], "positions must be [row, col] integer pairs"),
    ([(1, 1)], "positions must be [row, col] integer pairs"),
    ([["1", 1]], "positions must be [row, col] integer pairs"),
    ([[1.0, 1]], "positions must be [row, col] integer pairs"),
    ([[True, 1]], "positions must be [row, col] integer pairs"),
    ([[1, False]], "positions must be [row, col] integer pairs"),
    ([[True, True]], "positions must be [row, col] integer pairs"),
    ([[0, 1]], "position [0, 1] outside 1x1"),
    ([[2, 1]], "position [2, 1] outside 1x1"),
    ([[1, 2]], "position [1, 2] outside 1x1"),
    ([[1, -1]], "position [1, -1] outside 1x1"),
    ([[2, 1], [1]], "position [2, 1] outside 1x1"),
    ([[1, 1], [1, 1]], "duplicate positions"),
    ([[1, 1], [1, 1], [2, 1]], "position [2, 1] outside 1x1"),
    ([[1, 1], [1, 1], [1]], "positions must be [row, col] integer pairs"),
    ([[1, 1], [1, 1], 5], "positions must be [row, col] integer pairs"),
]


def _parse_error(doc) -> str:
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    return str(exc.value)


@pytest.mark.parametrize("matrix, message", MATRIX_ERRORS)
def test_matrix_error_text(matrix, message):
    doc = copy.deepcopy(BASE)
    doc["subsystems"][0]["A_xx"] = matrix
    assert _parse_error(doc) == message


@pytest.mark.parametrize("field, where", [
    (("lft", "E1"), "subsystems[1].lft.E1"),
    (("lft", "param", "fixed"), "subsystems[1].lft.param.fixed"),
])
def test_matrix_errors_name_their_field(field, where):
    for matrix, message in ((7, ": expected a list of rows"),
                            ([[1], [0, 1], 2], ": expected a list of rows"),
                            ([[1], [0, 1]], ": rows have differing lengths [1, 2]"),
                            ([[1], [True]], "[2][1]: boolean is not a matrix entry")):
        doc = copy.deepcopy(BASE)
        holder = doc["subsystems"][0]
        for key in field[:-1]:
            holder = holder[key]
        if field[-1] == "fixed":
            holder.pop("free")
        holder[field[-1]] = matrix
        assert _parse_error(doc) == where + message


def test_earlier_matrix_error_wins():
    # matrices are read in document-format order: A_xx before A_zx
    doc = copy.deepcopy(BASE)
    doc["subsystems"][0]["A_zx"] = [[True, 0]]
    doc["subsystems"][0]["B_xu"] = [[0], 5]
    assert _parse_error(doc) == "subsystems[1].B_xu: expected a list of rows"
    doc["subsystems"][0].pop("B_xu")
    assert _parse_error(doc) == "subsystems[1]: missing matrix B_xu"


@pytest.mark.parametrize("free, message", POSITION_ERRORS)
def test_position_error_text(free, message):
    scm = copy.deepcopy(BASE)
    scm["scm"]["free"] = free
    assert _parse_error(scm) == f"scm.free: {message}"
    block = copy.deepcopy(BASE)
    block["subsystems"][0]["lft"]["param"]["free"] = free
    assert _parse_error(block) == f"subsystems[1].lft.param.free: {message}"


def test_float_entries_warn_in_document_order():
    doc = copy.deepcopy(BASE)
    doc["subsystems"][0]["A_xx"] = [[0.5, "2/4"], [-0.0, 1e300]]
    doc["subsystems"][0]["lft"]["E1"] = [[0.1], [1]]
    model, _, warnings = parse_document(doc)
    assert warnings == [
        f"{A_XX}[1][1]: float 0.5 converted to an exact rational",
        f"{A_XX}[2][1]: float -0.0 converted to an exact rational",
        f"{A_XX}[2][2]: float 1e+300 converted to an exact rational",
        "subsystems[1].lft.E1[1][1]: float 0.1 converted to an exact rational",
    ]
    sub = model.subsystems[0]
    assert sub.A_xx0 == [[0.5, 0.5], [0, 10 ** 300]]
    assert str(sub.E1[0][0]) == "1/10"


def test_float_before_an_error_still_raises():
    doc = copy.deepcopy(BASE)
    doc["subsystems"][0]["A_xx"] = [[0.5, 0], [0, "y"]]
    assert _parse_error(doc) == (f"{A_XX}[2][2]: bad rational literal 'y' "
                                 "(Invalid literal for Fraction: 'y')")


def _reference_digest(doc) -> str:
    model, options, _ = parse_document(doc)
    canonical = json.dumps(serialize_document(model, options), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _lft(param, e1=((1,), (0,))):
    return {"E1": [list(r) for r in e1], "E2": [[0]], "F1": [["1/2", 0]], "F2": [[0]],
            "F3": [[0]], "H": [[0]], "param": param}


def _sub(**overrides):
    sub = {"A_xx": [[1, 0], [0, 2]], "A_xv": [[1], [0]], "B_xu": [[0], [1]],
           "A_zx": [[1, 0]], "A_zv": [[0]], "B_zu": [[0]]}
    sub.update(overrides)
    return sub


# Documents whose own bytes are not canonical: each must hash to the digest
# of its serialized model.
DIGEST_DOCS = {
    "fractions": {"subsystems": [_sub(A_xx=[["2/4", "-0"], ["6/3", " 3 "]])]},
    "floats": {"subsystems": [_sub(A_xx=[[1.0, 0.1], [-2.5, 1e-3]])]},
    "mixed-int-and-string-rows": {"subsystems": [_sub(A_xx=[[1, 0], ["0", "-4/2"]])]},
    "scm-full": {"subsystems": [_sub(), _sub(A_xv=[[1, 0], [0, 1]], A_zv=[[0, 0]])],
                 "scm": "full"},
    "scm-out-of-order": {"subsystems": [_sub(), _sub()],
                         "scm": {"free": [[2, 1], [1, 2], [1, 1]]}},
    "scm-declared-size": {"subsystems": [_sub()],
                          "scm": {"rows": 1, "cols": 1, "free": [[1, 1]]}},
    "names": {"subsystems": [_sub(), _sub(name=""), _sub(name="b"), _sub(name=7)]},
    "name-null": {"subsystems": [_sub(name=None)]},
    "free-block": {"subsystems": [_sub(lft=_lft({"free": [[1, 1]]}))]},
    "free-block-empty": {"subsystems": [_sub(lft=_lft({"free": []}))]},
    "fixed-block": {"subsystems": [_sub(lft=_lft({"fixed": [["3/6"]]}))]},
    "fixed-block-float": {"subsystems": [_sub(lft=_lft({"fixed": [[0.25]]}))]},
    "fixed-and-free-blocks": {"subsystems": [
        _sub(lft=_lft({"fixed": [[2]]}), name="f"),
        _sub(lft=_lft({"free": [[1, 1]]}, e1=(("1.5",), (0,)))), _sub()],
        "scm": {"free": [[3, 1], [1, 3]]}},
    "free-block-positions-out-of-order": {"subsystems": [_sub(
        lft={"E1": [[1, 0], [0, 1]], "E2": [[0, 0]], "F1": [[1, 0], [0, 1]],
             "F2": [[0], [0]], "F3": [[0], [0]], "H": [[0, 0], [0, 0]],
             "param": {"free": [[2, 2], [1, 2], [2, 1]]}})]},
    "zero-rows-and-columns": {"subsystems": [
        {"A_xx": [[0, 1], [-1, 0]], "A_xv": [[0], [1]], "B_xu": [[], []],
         "A_zx": [], "A_zv": [], "B_zu": []},
        {"A_xx": [], "A_xv": [], "B_xu": [], "A_zx": [[]], "A_zv": [[0]],
         "B_zu": [[1]]}], "scm": {"free": [[1, 1]]}},
    "options-as-strings": {"subsystems": [_sub()],
                           "options": {"seed": "4", "rank_tol": "1e-8", "eig_tol": 1}},
    "options-partial": {"subsystems": [_sub()], "options": {"seed": 3.0}},
    "extra-keys": {"subsystems": [dict(_sub(), note="x")], "format_version": 9,
                   "comment": "not canonical"},
}


@pytest.mark.parametrize("name", DIGEST_DOCS)
def test_digest_hashes_the_serialized_model(tmp_path, name):
    doc = DIGEST_DOCS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_document(str(path))[3] == _reference_digest(doc)


def test_digest_of_sec7_and_its_variants(tmp_path):
    # the digest recorded for sec7 since the benchmark began: the bytes hashed
    # have not changed
    with open(sec7_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert load_document(sec7_path())[3] == _reference_digest(doc) == "60e2e3e8dfb5a139"
    doc["scm"]["free"] = list(reversed(doc["scm"]["free"]))
    doc["subsystems"][0]["A_xx"][0][0] = "4/2"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_document(str(path))[3] == _reference_digest(doc)


def test_equal_models_share_a_digest(tmp_path):
    # non-canonical spellings of one model hash alike
    one = {"subsystems": [_sub(A_xx=[[1, 0], [0, 2]], name="subsystem1")],
           "scm": {"free": []}}
    two = {"subsystems": [_sub(A_xx=[["2/2", 0.0], ["-0", 2.0]])],
           "options": {"seed": "0"}}
    digests = []
    for i, doc in enumerate((one, two)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        digests.append(load_document(str(path))[3])
    assert digests[0] == digests[1]


def test_report_carries_the_load_digest(tmp_path, capsys):
    doc = DIGEST_DOCS["fixed-and-free-blocks"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    main(["check", str(path)])
    assert json.loads(capsys.readouterr().out)["model_digest"] == _reference_digest(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field, where", [
    (("A_xx",), A_XX),
    (("lft", "E1"), "subsystems[1].lft.E1"),
    (("lft", "param", "fixed"), "subsystems[1].lft.param.fixed"),
])
def test_non_finite_entries_are_positioned_errors(tmp_path, capsys, literal, field, where):
    # Python's json reads NaN, Infinity and -Infinity as floats
    doc = copy.deepcopy(BASE)
    holder = doc["subsystems"][0]
    for key in field[:-1]:
        holder = holder[key]
    if field[-1] == "fixed":
        holder.pop("free")
        holder["fixed"] = [[0]]
    holder[field[-1]][0][0] = float(literal)
    text = json.dumps(doc)
    assert literal in text
    message = f"{where}[1][1]: non-finite number {float(literal)!r} is not a matrix entry"
    assert _parse_error(json.loads(text)) == message
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _shuffled_positions(doc, rng):
    """doc with every free position list in another order."""
    doc = copy.deepcopy(doc)
    lists = [doc["scm"]["free"]] + [s["lft"]["param"]["free"] for s in doc["subsystems"]
                                    if "free" in s.get("lft", {}).get("param", {})]
    for positions in lists:
        before = list(positions)
        while len(positions) > 1 and positions == before:
            rng.shuffle(positions)
    return doc


def test_position_order_does_not_change_reports(tmp_path, capsys):
    # the draw order follows the sorted positions, so a document that lists
    # the same positions in another order gets the same bytes on every report
    with open(sec7_path(), encoding="utf-8") as fh:
        sec7 = json.load(fh)
    blocks = copy.deepcopy(DIGEST_DOCS["free-block-positions-out-of-order"])
    blocks["subsystems"].append(copy.deepcopy(blocks["subsystems"][0]))
    blocks["scm"] = {"free": [[2, 3], [1, 1], [2, 1], [1, 2]]}
    rng = random.Random(3)
    path = tmp_path / "doc.json"
    for doc in (sec7, blocks):
        variants = [doc] + [_shuffled_positions(doc, rng) for _ in range(3)]
        outputs = []
        for variant in variants:
            path.write_text(json.dumps(variant), encoding="utf-8")
            outputs.append([(main([command, str(path), *flags]), capsys.readouterr())
                            for command, *flags in (["check"], ["realize"],
                                                    ["realize", "--seed", "1"])])
        assert all(out == outputs[0] for out in outputs[1:])
    # sec7 with its routing positions reversed keeps its realize report
    sec7["scm"]["free"].reverse()
    path.write_text(json.dumps(sec7), encoding="utf-8")
    assert main(["realize", str(path)]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["last_uncontrollable_modes"] == ["0.0", "-4.990627601364637e-07"]
