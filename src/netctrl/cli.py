"""Command-line front end and the on-disk document format.

A system document is JSON: a list of subsystems with named rational
matrices (numbers or "p/q" strings; floats are accepted with a warning and
read as decimal literals), an optional LFT block per subsystem, the routing
pattern as 1-based free positions (or "full"), and options. A load reads
each matrix once, and a subsystem that repeats the one before it not at
all: the parse returns the model together with its canonical document
(`serialize_document`), and the report's `model_digest` hashes that
document, so equal models share a digest however they are written.
Reports are JSON with sorted keys so identical inputs, flags and seeds
produce byte-identical output; exit codes are 0 for a positive verdict, 1
for a negative one, 2 for usage or model errors and for an unwritable --out
file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from . import design as design_mod
from . import exactla as ex
from . import ratfun, structgraph, verify
from .model import (ModelError, NdsModel, StructuredPattern, SubsystemModel)

DEFAULT_OPTIONS = {"eig_tol": ratfun.EIG_TOL, "rank_tol": ratfun.RANK_TOL, "seed": 0}

# Matrix keys of a subsystem object (SubsystemModel field: key + "0") and of
# its "lft" object (field: key), in document order.
MATRIX_KEYS = ("A_xx", "A_xv", "B_xu", "A_zx", "A_zv", "B_zu")
LFT_KEYS = ("E1", "E2", "F1", "F2", "F3", "H")


class DocumentError(ValueError):
    """Malformed system document."""


class OutputError(RuntimeError):
    """The --out file could not be written."""


def _parse_entry(x, where: str, warnings: list[str]) -> Fraction:
    if isinstance(x, bool):
        raise DocumentError(f"{where}: boolean is not a matrix entry")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DocumentError(f"{where}: non-finite number {x!r} is not a matrix entry")
        warnings.append(f"{where}: float {x!r} converted to an exact rational")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"{where}: bad rational literal {x!r} ({e})") from None
    raise DocumentError(f"{where}: unsupported entry {x!r}")


class _IntFractions(dict):
    """One document's int -> Fraction table: each distinct int is made a
    Fraction once, and equal entries share it."""

    def __missing__(self, x: int) -> Fraction:
        self[x] = value = Fraction(x)
        return value


def _rows_error(obj: list, where: str) -> DocumentError:
    """The error of a matrix whose rows are not all lists of one length: a
    row that is not a list wins over ragged rows."""
    if any(not isinstance(r, list) for r in obj):
        return DocumentError(f"{where}: expected a list of rows")
    return DocumentError(f"{where}: rows have differing lengths "
                         f"{sorted({len(r) for r in obj})}")


_INT = frozenset({int})


def _parse_matrix(obj, where: str, warnings: list[str],
                  ints: _IntFractions) -> tuple[ex.Mat, list]:
    """A matrix and its canonical JSON rows, checked and read in one pass
    over the rows.

    Rows of plain ints (JSON true/false are bools) read them through the
    document's table `ints`; a matrix of such rows is its own canonical
    rows. From its first other row on, a matrix is read entry by entry,
    with a warning or an error positioned at the entry, after the shape of
    every row is checked; its canonical rows are written from its Fractions.
    """
    if not isinstance(obj, list):
        raise DocumentError(f"{where}: expected a list of rows")
    width = len(obj[0]) if obj and isinstance(obj[0], list) else None
    read = ints.__getitem__
    mat = []
    plain = True
    for row in obj:
        if not (isinstance(row, list) and len(row) == width):
            raise _rows_error(obj, where)
        if plain:
            if _INT.issuperset(map(type, row)):
                mat.append(list(map(read, row)))
            else:
                plain = False
    if plain:
        return mat, obj
    start = len(mat)
    mat += [[_parse_entry(x, f"{where}[{i + 1}][{j + 1}]", warnings)
             for j, x in enumerate(row)] for i, row in enumerate(obj[start:], start)]
    return mat, _mat_obj(mat)


def _is_int(x) -> bool:
    """An integer that is not a boolean (JSON true/false read as 1/0)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_positions(obj, rows: int, cols: int, where: str) -> list[tuple[int, int]]:
    """0-based positions, checked in one pass and returned sorted, so the
    parameter draw order follows the positions, not the document's listing;
    a repeated position is reported only after every item is checked."""
    if not isinstance(obj, list):
        raise DocumentError(f"{where}: expected a list of [row, col] pairs")
    out = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 2
                and _is_int(item[0]) and _is_int(item[1])):
            raise DocumentError(f"{where}: positions must be [row, col] integer pairs")
        r, c = item
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise DocumentError(f"{where}: position [{r}, {c}] outside {rows}x{cols}")
        out.append((r - 1, c - 1))
    if len(set(out)) != len(out):
        raise DocumentError(f"{where}: duplicate positions")
    return sorted(out)


def _tolerance(x) -> float:
    """A tolerance from a document or a flag: a finite number >= 0."""
    if isinstance(x, bool):
        raise TypeError("a boolean is not a tolerance")
    value = float(x)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"expected a finite number >= 0, got {x!r}")
    return value


def _seed(x) -> int:
    """A seed from a document: an integer, an integral number or a numeric string."""
    if isinstance(x, bool):
        raise TypeError("a boolean is not a seed")
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _reject_output_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    for key in keys:
        if key in obj:
            raise DocumentError(f"{where}.{key}: external outputs do not enter "
                                "controllability; remove the key")


_EXACT = frozenset({int, str})


def _exact_entries(sraw: dict) -> bool:
    """Whether every matrix entry and free position the parse reads from a
    subsystem object is an int or a string.

    JSON's 1, 1.0 and true compare equal; an int or a string equals no
    value of another type. So an object of ints and strings that equals one
    whose parse gave no warning (which holds neither floats nor booleans)
    holds the same entries, of the same types, and reads the same.
    """
    mats = [sraw[key] for key in MATRIX_KEYS]
    lft = sraw.get("lft")
    if lft is not None:
        param = lft["param"]
        mats += [lft[key] for key in LFT_KEYS]
        mats.append(param["fixed"] if "fixed" in param else param["free"])
    return _EXACT.issuperset(map(type, chain.from_iterable(chain.from_iterable(mats))))


def _read_subsystem(sraw: dict, i: int, name: str, warnings: list[str],
                    ints: _IntFractions) -> tuple[SubsystemModel, tuple]:
    """Subsystem i (0-based) and its canonical part (name, rows, lft), see
    _canonical_document."""
    where = f"subsystems[{i + 1}]"
    mats, sub_rows = {}, {}
    for key in MATRIX_KEYS:
        if key not in sraw:
            raise DocumentError(f"{where}: missing matrix {key}")
        mats[f"{key}0"], sub_rows[key] = _parse_matrix(sraw[key], f"{where}.{key}",
                                                       warnings, ints)
    _reject_output_keys(sraw, ("C_yx", "C_yv", "D_yu"), where)
    lft = sraw.get("lft")
    param = canonical_lft = None
    if lft is not None:
        if not isinstance(lft, dict):
            raise DocumentError(f"{where}.lft: expected an object")
        lft_rows = {}
        for key in LFT_KEYS:
            if key not in lft:
                raise DocumentError(f"{where}.lft: missing matrix {key}")
            mats[key], lft_rows[key] = _parse_matrix(lft[key], f"{where}.lft.{key}",
                                                     warnings, ints)
        _reject_output_keys(lft, ("E3",), f"{where}.lft")
        praw = lft.get("param")
        if not isinstance(praw, dict):
            raise DocumentError(f"{where}.lft.param: required object")
        pr = len(mats["H"][0]) if mats["H"] else 0
        pc = len(mats["H"])
        if "fixed" in praw:
            param, param_rows = _parse_matrix(praw["fixed"], f"{where}.lft.param.fixed",
                                              warnings, ints)
            canonical_lft = (lft_rows, param_rows)
        elif "free" in praw:
            pos = _parse_positions(praw["free"], pr, pc, f"{where}.lft.param.free")
            param = StructuredPattern.from_positions(pr, pc, pos, f"p{i + 1}")
            canonical_lft = (lft_rows, param)
        else:
            raise DocumentError(f"{where}.lft.param: needs 'fixed' or 'free'")
    try:
        sub = SubsystemModel(**mats, param_block=param, name=name)
    except ModelError as e:
        raise DocumentError(f"{where}: {e}") from None
    return sub, (name, sub_rows, canonical_lft)


def _read_document(data: dict) -> tuple[NdsModel, dict, list[str], dict]:
    """`parse_document`'s (model, options, warnings), and the model's
    canonical document, assembled from the canonical rows the parse read.

    A subsystem whose object equals the previous one's but for its name,
    and holds only ints and strings (`_exact_entries`), repeats it when that
    one's parse gave no warning: it is read once, and the repeat
    (`SubsystemModel.repeat`) shares its matrices, canonical rows and
    analysis form, under its own name and free-block parameter ids.
    """
    warnings: list[str] = []
    ints = _IntFractions()
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    subs_raw = data.get("subsystems")
    if not isinstance(subs_raw, list) or not subs_raw:
        raise DocumentError("'subsystems' must be a non-empty list")
    subsystems = []
    parts = []  # per subsystem: (name, rows, lft), see _canonical_document
    last = None  # (object without name, subsystem, part) of a repeatable subsystem
    for i, sraw in enumerate(subs_raw):
        if not isinstance(sraw, dict):
            raise DocumentError(f"subsystems[{i + 1}]: expected an object")
        name = str(sraw.get("name", f"subsystem{i + 1}"))
        body = {k: v for k, v in sraw.items() if k != "name"}
        if last is not None and body == last[0] and _exact_entries(sraw):
            sub = last[1].repeat(name, f"p{i + 1}")
            _, rows, lft = last[2]
            if sub.has_free_params:
                lft = (lft[0], sub.param_block)
            part = (name, rows, lft)
        else:
            warned = len(warnings)
            sub, part = _read_subsystem(sraw, i, name, warnings, ints)
            last = (body, sub, part) if len(warnings) == warned else None
        subsystems.append(sub)
        parts.append(part)
    mv = sum(s.m_v0 for s in subsystems)
    mz = sum(s.m_z0 for s in subsystems)
    scm_raw = data.get("scm", {"free": []})
    if scm_raw == "full":
        positions = [(r, c) for r in range(mv) for c in range(mz)]
    elif isinstance(scm_raw, dict):
        rows = scm_raw.get("rows", mv)
        cols = scm_raw.get("cols", mz)
        for key, value in (("rows", rows), ("cols", cols)):
            if not _is_int(value):
                raise DocumentError(f"scm.{key}: expected an integer, got {value!r}")
        if (rows, cols) != (mv, mz):
            raise DocumentError(f"scm: declared {rows}x{cols}, ports give {mv}x{mz}")
        if "fixed" in scm_raw:
            raise DocumentError("scm: fixed nonzero routing weights are unsupported; "
                                "entries are zero or free")
        positions = _parse_positions(scm_raw.get("free", []), mv, mz, "scm.free")
    else:
        raise DocumentError("scm: expected an object or \"full\"")
    scm = StructuredPattern(mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in positions})
    options = dict(DEFAULT_OPTIONS)
    oraw = data.get("options", {})
    if not isinstance(oraw, dict):
        raise DocumentError("options: expected an object")
    for key, kind in (("eig_tol", _tolerance), ("rank_tol", _tolerance), ("seed", _seed)):
        if key in oraw:
            try:
                options[key] = kind(oraw[key])
            except (TypeError, ValueError, OverflowError) as e:
                raise DocumentError(f"options.{key}: bad value {oraw[key]!r} ({e})") from None
    try:
        model = NdsModel(subsystems, scm)
    except ModelError as e:
        raise DocumentError(str(e)) from None
    return model, options, warnings, _canonical_document(parts, scm, options)


def parse_document(data: dict) -> tuple[NdsModel, dict, list[str]]:
    """Build the model from a parsed JSON document.

    Returns (model, options, warnings). Raises DocumentError with a
    positioned message on any malformed field.
    """
    return _read_document(data)[:3]


def _mat_obj(m: ex.Mat) -> list:
    """Canonical JSON rows: each entry an int, or a "p/q" string in lowest terms."""
    return [[x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
             for x in row] for row in m]


def _canonical_document(parts: list[tuple], scm: StructuredPattern, options: dict) -> dict:
    """The one writer of the canonical document.

    `parts` holds per subsystem (name, rows, lft): `rows` maps each key of
    MATRIX_KEYS, in order, to its canonical JSON rows, and lft is None or
    (rows of LFT_KEYS, param), param being the free block's pattern or the
    fixed block's canonical rows. An empty name becomes subsystem<i>, free
    positions are written sorted and 1-based, and options sorted by key.
    """
    def one_based(pattern: StructuredPattern) -> list:
        return [[r + 1, c + 1] for r, c in pattern.positions()]

    subs = []
    for i, (name, rows, lft) in enumerate(parts):
        obj = {"name": name or f"subsystem{i + 1}", **rows}
        if lft is not None:
            lft_rows, param = lft
            obj["lft"] = {**lft_rows, "param": (
                {"free": one_based(param)} if isinstance(param, StructuredPattern)
                else {"fixed": param})}
        subs.append(obj)
    return {
        "format_version": 1,
        "subsystems": subs,
        "scm": {"rows": scm.rows, "cols": scm.cols, "free": one_based(scm)},
        "options": {k: options[k] for k in sorted(options)},
    }


def serialize_document(model: NdsModel, options: dict) -> dict:
    """Canonical document for the model; parse(serialize(.)) is the identity."""
    parts = []
    for s in model.subsystems:
        lft = None
        if s.param_block is not None:
            lft = ({k: _mat_obj(getattr(s, k)) for k in LFT_KEYS},
                   s.param_block if s.has_free_params else _mat_obj(s.param_block))
        parts.append((s.name, {k: _mat_obj(getattr(s, f"{k}0")) for k in MATRIX_KEYS}, lft))
    return _canonical_document(parts, model.scm, options)


def load_document(path: str) -> tuple[NdsModel, dict, list[str], str]:
    """Parse a document file; returns (model, options, warnings, digest).

    The digest is the first 16 hex digits of the SHA-256 of the model's
    canonical document (`serialize_document`) as sorted-key JSON. The parse
    assembles that document from the canonical rows it read, so the model
    is not serialized a second time.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: invalid JSON ({e})") from None
    model, options, warnings, canonical = _read_document(data)
    # the parse builds the canonical tree acyclic: no circular check needed
    digest = hashlib.sha256(json.dumps(canonical, sort_keys=True,
                                       check_circular=False).encode()).hexdigest()[:16]
    return model, options, warnings, digest


def _report(command: str, digest: str, arguments: dict, payload: dict) -> dict:
    return {
        "command": command,
        "arguments": {k: arguments[k] for k in sorted(arguments)},
        "model_digest": digest,
        "result": payload,
    }


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, fmt: str, out: Optional[str], wall_ms: float) -> None:
    if fmt == "json":
        # `to_dict` builds the report acyclic: no circular check needed
        text = json.dumps(report, indent=2, sort_keys=True, check_circular=False) + "\n"
    else:
        text = "\n".join(_render_text(report)) + f"\n# wall time: {wall_ms:.1f} ms\n"
    _write_output(text, out)


def _write_output(text: str, out: Optional[str]) -> None:
    """Write to the --out file when one is given, else to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OutputError(f"cannot write {out}: {e.strerror or e}") from None


def _reported(result, verdict: str) -> tuple[dict, bool]:
    """A library result's report payload and its positive-verdict field."""
    return result.to_dict(), getattr(result, verdict)


def _design(model: NdsModel, settings: dict) -> tuple[dict, bool]:
    try:
        result = design_mod.design_topology(
            model.subsystems, mode_filter=settings["modes"], rank_tol=settings["rank_tol"],
            eig_tol=settings["eig_tol"])
    except design_mod.InfeasibleDesignError as e:
        return {"infeasible": True, "reason": str(e),
                "feasibility": e.report.to_dict() if e.report else None}, False
    return result.to_dict(), True


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


# Optional flags by destination. --seed, --tol and --eig-tol default to the
# document's options; a report echoes every flag its command reads.
_FLAGS = {
    "modes": ("--modes", dict(choices=("all", "unstable"), default="all")),
    "seed": ("--seed", dict(type=int, default=None)),
    "rank_tol": ("--tol", dict(type=_tolerance, default=None, metavar="TOL",
                               help="rank tolerance (relative)")),
    "eig_tol": ("--eig-tol", dict(type=_tolerance, default=None,
                                  help="eigenvalue clustering tolerance")),
    "trials": ("--trials", dict(type=_positive_int, default=5)),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, the flags it reads (keys of `_FLAGS`,
    in usage order) and its library call, run(model, settings) ->
    (payload, positive verdict). A reporting command takes --format and
    wraps its payload in a report; any other writes its text payload as is.
    """

    help: str
    flags: tuple[str, ...]
    run: Callable[[NdsModel, dict], tuple[object, bool]]
    report: bool = True


COMMANDS = {
    "check": Command(
        "structural controllability verdict", ("rank_tol", "eig_tol"),
        lambda model, s: _reported(verify.check_structural_controllability(model, **s),
                                   "structurally_controllable")),
    "design": Command("two-stage minimal-link design",
                      ("modes", "rank_tol", "eig_tol"), _design),
    "realize": Command(
        "randomized realization witness", ("seed", "trials"),
        lambda model, s: _reported(verify.randomized_realization_check(model, **s),
                                   "controllable_witness")),
    "feasible": Command(
        "design feasibility conditions", ("modes", "rank_tol", "eig_tol"),
        lambda model, s: _reported(verify.check_feasibility(
            model.subsystems, mode_filter=s["modes"], rank_tol=s["rank_tol"],
            eig_tol=s["eig_tol"]), "feasible")),
    "graph": Command(
        "export the networked connection graph as DOT", (),
        lambda model, s: (structgraph.to_dot(
            structgraph.build_nacg(model, ratfun.nds_tfms(model))), True),
        report=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The netctrl parser, built once per process. argparse reads the
    terminal width (COLUMNS) each time it formats usage or help."""
    p = argparse.ArgumentParser(
        prog="netctrl",
        description="Structural controllability analysis and interconnection design "
                    "for networked LTI systems")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("file", help="system document (JSON)")
        for dest in command.flags:
            option, kwargs = _FLAGS[dest]
            sp.add_argument(option, dest=dest, **kwargs)
        if command.report:
            sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write output to a file")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    command = COMMANDS[args.command]
    try:
        model, options, warnings, digest = load_document(args.file)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        settings = {dest: getattr(args, dest) for dest in command.flags}
        for dest, value in settings.items():
            if value is None:
                settings[dest] = options[dest]
        t0 = time.perf_counter()
        payload, ok = command.run(model, settings)
        wall = (time.perf_counter() - t0) * 1e3
        if command.report:
            _emit(_report(args.command, digest, settings, payload), args.format, args.out,
                  wall)
        else:
            _write_output(payload, args.out)
    except (DocumentError, ModelError, OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
