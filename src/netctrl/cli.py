"""Command-line front end and the on-disk document format.

A system document is JSON: a list of subsystems with named rational
matrices (numbers or "p/q" strings; floats are accepted with a warning and
read as decimal literals), an optional LFT block per subsystem, the routing
pattern as 1-based free positions (or "full"), and options. Reports are
JSON with sorted keys so identical inputs, flags and seeds produce
byte-identical output; exit codes are 0 for a positive verdict, 1 for a
negative one, 2 for usage or model errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from . import design as design_mod
from . import exactla as ex
from . import ratfun, structgraph, verify
from .model import (ModelError, NdsModel, StructuredPattern, SubsystemModel)

DEFAULT_OPTIONS = {"eig_tol": ratfun.EIG_TOL, "rank_tol": ratfun.RANK_TOL, "seed": 0}


class DocumentError(ValueError):
    """Malformed system document."""


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


def _parse_positions(obj, rows: int, cols: int, where: str) -> list[tuple[int, int]]:
    if not isinstance(obj, list):
        raise DocumentError(f"{where}: expected a list of [row, col] pairs")
    out = []
    for item in obj:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(v, int) for v in item)):
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
    value = float(x)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"expected a finite number >= 0, got {x!r}")
    return value


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
        need = ["A_xx", "A_xv", "B_xu", "A_zx", "A_zv", "B_zu"]
        mats = {}
        for key in need:
            if key not in sraw:
                raise DocumentError(f"{where}: missing matrix {key}")
            mats[key] = _parse_matrix(sraw[key], f"{where}.{key}", warnings)
        opt = {key: _parse_matrix(sraw[key], f"{where}.{key}", warnings)
               for key in ("C_yx", "C_yv", "D_yu") if key in sraw}
        lft = sraw.get("lft")
        lft_mats = {}
        param = None
        if lft is not None:
            if not isinstance(lft, dict):
                raise DocumentError(f"{where}.lft: expected an object")
            for key in ("E1", "E2", "F1", "F2", "F3", "H"):
                if key not in lft:
                    raise DocumentError(f"{where}.lft: missing matrix {key}")
                lft_mats[key] = _parse_matrix(lft[key], f"{where}.lft.{key}", warnings)
            if "E3" in lft:
                lft_mats["E3"] = _parse_matrix(lft["E3"], f"{where}.lft.E3", warnings)
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
                A_xx0=mats["A_xx"], A_xv0=mats["A_xv"], B_xu0=mats["B_xu"],
                A_zx0=mats["A_zx"], A_zv0=mats["A_zv"], B_zu0=mats["B_zu"],
                C_yx0=opt.get("C_yx", []), C_yv0=opt.get("C_yv", []),
                D_yu0=opt.get("D_yu", []),
                E1=lft_mats.get("E1", []), E2=lft_mats.get("E2", []),
                E3=lft_mats.get("E3", []),
                F1=lft_mats.get("F1", []), F2=lft_mats.get("F2", []),
                F3=lft_mats.get("F3", []), H=lft_mats.get("H", []),
                param_block=param,
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
    for key, kind in (("eig_tol", _tolerance), ("rank_tol", _tolerance), ("seed", int)):
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
        obj = {
            "name": s.name or f"subsystem{i + 1}",
            "A_xx": _mat_obj(s.A_xx0), "A_xv": _mat_obj(s.A_xv0),
            "B_xu": _mat_obj(s.B_xu0), "A_zx": _mat_obj(s.A_zx0),
            "A_zv": _mat_obj(s.A_zv0), "B_zu": _mat_obj(s.B_zu0),
        }
        if s.C_yx0:
            obj["C_yx"] = _mat_obj(s.C_yx0)
        if s.C_yv0:
            obj["C_yv"] = _mat_obj(s.C_yv0)
        if s.D_yu0:
            obj["D_yu"] = _mat_obj(s.D_yu0)
        if s.param_block is not None:
            lft = {k: _mat_obj(getattr(s, k)) for k in ("E1", "E2", "F1", "F2", "F3", "H")}
            if s.E3:
                lft["E3"] = _mat_obj(s.E3)
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
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> tuple[NdsModel, dict, str]:
    """Load the document, print its warnings, and let flags override its options.

    Returns (model, options, digest); options holds rank_tol, eig_tol and
    seed, each from the command's flag when the command has one and it is set.
    """
    model, options, warnings, digest = load_document(args.file)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for key, flag in (("rank_tol", "tol"), ("eig_tol", "eig_tol"), ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None:
            options[key] = value
    return model, options, digest


def cmd_check(args) -> int:
    model, options, digest = _load(args)
    settings = {k: options[k] for k in ("seed", "rank_tol", "eig_tol")}
    t0 = time.perf_counter()
    verdict = verify.check_structural_controllability(model, **settings)
    wall = (time.perf_counter() - t0) * 1e3
    _emit(_report("check", digest, settings, verdict.to_dict()), args.format, args.out, wall)
    return 0 if verdict.structurally_controllable else 1


def cmd_feasible(args) -> int:
    model, options, digest = _load(args)
    settings = {k: options[k] for k in ("rank_tol", "eig_tol")}
    t0 = time.perf_counter()
    rep = verify.check_feasibility(model.subsystems, args.modes, **settings)
    wall = (time.perf_counter() - t0) * 1e3
    _emit(_report("feasible", digest, dict(settings, modes=args.modes), rep.to_dict()),
          args.format, args.out, wall)
    return 0 if rep.feasible else 1


def cmd_design(args) -> int:
    model, options, digest = _load(args)
    settings = {k: options[k] for k in ("seed", "rank_tol", "eig_tol")}
    t0 = time.perf_counter()
    try:
        result = design_mod.design_topology(model.subsystems, args.modes, **settings)
        payload, code = result.to_dict(), 0
    except design_mod.InfeasibleDesignError as e:
        payload = {"infeasible": True, "reason": str(e),
                   "feasibility": e.report.to_dict() if e.report else None}
        code = 1
    wall = (time.perf_counter() - t0) * 1e3
    _emit(_report("design", digest, dict(settings, modes=args.modes), payload),
          args.format, args.out, wall)
    return code


def cmd_realize(args) -> int:
    model, options, digest = _load(args)
    seed = options["seed"]
    t0 = time.perf_counter()
    res = verify.randomized_realization_check(model, seed=seed, trials=args.trials,
                                              method=args.method)
    wall = (time.perf_counter() - t0) * 1e3
    _emit(_report("realize", digest,
                  {"seed": seed, "trials": args.trials, "method": args.method},
                  res.to_dict()),
          args.format, args.out, wall)
    return 0 if res.controllable_witness else 1


def cmd_graph(args) -> int:
    model, _, _ = _load(args)
    tfms = ratfun.nds_tfms(model)
    graph = structgraph.build_nacg(model, tfms)
    dot = structgraph.to_dot(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


# Optional flags by name; each subcommand takes only the ones it reads.
_FLAGS = {
    "seed": ("--seed", dict(type=int, default=None)),
    "tol": ("--tol", dict(type=_tolerance, default=None, help="rank tolerance (relative)")),
    "eig-tol": ("--eig-tol", dict(type=_tolerance, default=None,
                                  help="eigenvalue clustering tolerance")),
    "modes": ("--modes", dict(choices=("all", "unstable"), default="all")),
    "trials": ("--trials", dict(type=_positive_int, default=5)),
    "method": ("--method", dict(choices=("pbh", "stacked"), default="pbh")),
    "format": ("--format", dict(choices=("json", "text"), default="json")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netctrl",
        description="Structural controllability analysis and interconnection design "
                    "for networked LTI systems")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *flags: str) -> None:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("file", help="system document (JSON)")
        for flag in flags:
            option, kwargs = _FLAGS[flag]
            sp.add_argument(option, **kwargs)
        sp.add_argument("--out", default=None, help="write output to a file")

    command("check", "structural controllability verdict", "seed", "tol", "eig-tol", "format")
    command("design", "two-stage minimal-link design",
            "modes", "seed", "tol", "eig-tol", "format")
    command("realize", "randomized realization witness", "seed", "trials", "method", "format")
    command("feasible", "design feasibility conditions", "modes", "tol", "eig-tol", "format")
    command("graph", "export the networked connection graph as DOT")
    return p


_HANDLERS = {
    "check": cmd_check,
    "design": cmd_design,
    "realize": cmd_realize,
    "feasible": cmd_feasible,
    "graph": cmd_graph,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (DocumentError, ModelError, verify.IllPosedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
