"""Command-line front end and the on-disk document format.

A system document is JSON: a list of subsystems with named rational
matrices (numbers or "p/q" strings; floats are accepted with a warning and
read as decimal literals), an optional LFT block per subsystem, the routing
pattern as 1-based free positions (or "full"), and options. Reports are
JSON with sorted keys so identical inputs, flags and seeds produce
byte-identical output; exit codes are 0 for a positive verdict, 1 for a
negative one, 2 for usage or model errors and for an unwritable --out file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
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
        warnings.append(f"{where}: float {x!r} converted to an exact rational")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"{where}: bad rational literal {x!r} ({e})") from None
    raise DocumentError(f"{where}: unsupported entry {x!r}")


def _parse_matrix(obj, where: str, warnings: list[str]) -> ex.Mat:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise DocumentError(f"{where}: expected a list of rows")
    widths = {len(r) for r in obj}
    if len(widths) > 1:
        raise DocumentError(f"{where}: rows have differing lengths {sorted(widths)}")
    return [[_parse_entry(x, f"{where}[{i + 1}][{j + 1}]", warnings)
             for j, x in enumerate(row)] for i, row in enumerate(obj)]


def _is_int(x) -> bool:
    """An integer that is not a boolean (JSON true/false read as 1/0)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_positions(obj, rows: int, cols: int, where: str) -> list[tuple[int, int]]:
    if not isinstance(obj, list):
        raise DocumentError(f"{where}: expected a list of [row, col] pairs")
    out = []
    for item in obj:
        if (not isinstance(item, list) or len(item) != 2
                or not all(_is_int(v) for v in item)):
            raise DocumentError(f"{where}: positions must be [row, col] integer pairs")
        r, c = item
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise DocumentError(f"{where}: position [{r}, {c}] outside {rows}x{cols}")
        out.append((r - 1, c - 1))
    if len(set(out)) != len(out):
        raise DocumentError(f"{where}: duplicate positions")
    return out


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


def parse_document(data: dict) -> tuple[NdsModel, dict, list[str]]:
    """Build the model from a parsed JSON document.

    Returns (model, options, warnings). Raises DocumentError with a
    positioned message on any malformed field.
    """
    warnings: list[str] = []
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    subs_raw = data.get("subsystems")
    if not isinstance(subs_raw, list) or not subs_raw:
        raise DocumentError("'subsystems' must be a non-empty list")
    subsystems = []
    for i, sraw in enumerate(subs_raw):
        where = f"subsystems[{i + 1}]"
        if not isinstance(sraw, dict):
            raise DocumentError(f"{where}: expected an object")
        mats = {}
        for key in MATRIX_KEYS:
            if key not in sraw:
                raise DocumentError(f"{where}: missing matrix {key}")
            mats[f"{key}0"] = _parse_matrix(sraw[key], f"{where}.{key}", warnings)
        _reject_output_keys(sraw, ("C_yx", "C_yv", "D_yu"), where)
        lft = sraw.get("lft")
        lft_mats = {}
        param = None
        if lft is not None:
            if not isinstance(lft, dict):
                raise DocumentError(f"{where}.lft: expected an object")
            for key in LFT_KEYS:
                if key not in lft:
                    raise DocumentError(f"{where}.lft: missing matrix {key}")
                lft_mats[key] = _parse_matrix(lft[key], f"{where}.lft.{key}", warnings)
            _reject_output_keys(lft, ("E3",), f"{where}.lft")
            praw = lft.get("param")
            if not isinstance(praw, dict):
                raise DocumentError(f"{where}.lft.param: required object")
            pr = len(lft_mats["H"][0]) if lft_mats["H"] else 0
            pc = len(lft_mats["H"])
            if "fixed" in praw:
                param = _parse_matrix(praw["fixed"], f"{where}.lft.param.fixed", warnings)
            elif "free" in praw:
                pos = _parse_positions(praw["free"], pr, pc, f"{where}.lft.param.free")
                param = StructuredPattern(
                    pr, pc, {(r, c): f"p{i + 1}_{r}_{c}" for r, c in pos})
            else:
                raise DocumentError(f"{where}.lft.param: needs 'fixed' or 'free'")
        try:
            subsystems.append(SubsystemModel(
                **mats, **lft_mats, param_block=param,
                name=str(sraw.get("name", f"subsystem{i + 1}"))))
        except ModelError as e:
            raise DocumentError(f"{where}: {e}") from None
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
    return model, options, warnings


def _fmt_frac(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _mat_obj(m: ex.Mat):
    return [[_fmt_frac(x) for x in row] for row in m]


def serialize_document(model: NdsModel, options: dict) -> dict:
    """Canonical document for the model; parse(serialize(.)) is the identity."""
    subs = []
    for i, s in enumerate(model.subsystems):
        obj = {"name": s.name or f"subsystem{i + 1}"}
        obj.update((k, _mat_obj(getattr(s, f"{k}0"))) for k in MATRIX_KEYS)
        if s.param_block is not None:
            lft = {k: _mat_obj(getattr(s, k)) for k in LFT_KEYS}
            if s.has_free_params:
                lft["param"] = {"free": [[r + 1, c + 1]
                                         for r, c in s.param_block.positions()]}
            else:
                lft["param"] = {"fixed": _mat_obj(s.param_block)}
            obj["lft"] = lft
        subs.append(obj)
    return {
        "format_version": 1,
        "subsystems": subs,
        "scm": {"rows": model.scm.rows, "cols": model.scm.cols,
                "free": [[r + 1, c + 1] for r, c in model.scm.positions()]},
        "options": {k: options[k] for k in sorted(options)},
    }


def load_document(path: str) -> tuple[NdsModel, dict, list[str], str]:
    """Parse a document file; returns (model, options, warnings, digest)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: invalid JSON ({e})") from None
    model, options, warnings = parse_document(data)
    canonical = json.dumps(serialize_document(model, options), sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
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
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
            eig_tol=settings["eig_tol"], seed=settings["seed"])
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
        "structural controllability verdict", ("seed", "rank_tol", "eig_tol"),
        lambda model, s: _reported(verify.check_structural_controllability(model, **s),
                                   "structurally_controllable")),
    "design": Command("two-stage minimal-link design",
                      ("modes", "seed", "rank_tol", "eig_tol"), _design),
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


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
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
    except (DocumentError, ModelError, OutputError, verify.IllPosedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
