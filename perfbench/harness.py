"""Process set-up, the CLI call and the output checks of the benchmark.

Importing this module pins BLAS to one thread and puts the repository's
`src` and `tests` directories on the import path, so it must be imported
before numpy or netctrl.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from netctrl import cli  # noqa: E402


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `netctrl.cli.main(argv)` in-process; returns (exit code, stdout).

    Standard error (document warnings, usage errors) is captured and dropped.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _verdict_problem(verdict: dict) -> str | None:
    """Internal consistency of a `check` verdict object."""
    shortfalls = []
    for m in verdict["per_mode"]:
        if m["achieved"] > m["target"]:
            return f"mode {m['lambda']}: achieved {m['achieved']} > target {m['target']}"
        if m["achieved"] < m["target"]:
            shortfalls.append({"lambda": m["lambda"], "target": m["target"],
                               "achieved": m["achieved"],
                               "shortfall": m["target"] - m["achieved"]})
    if verdict["fixed_uncontrollable_modes"] != shortfalls:
        return "FUM list differs from the per-mode shortfalls"
    return None


def check_call(command: str, code: int, out: str, golden: dict) -> tuple[str | None, dict]:
    """Judge one CLI call against its report's own invariants and the golden entry.

    Returns (failure reason or None, facts the metrics need).
    """
    if code not in (0, 1):
        return f"exit code {code}", {}
    try:
        report = json.loads(out)
        result = report["result"]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        return f"report does not parse ({e})", {}
    if report.get("model_digest") != golden["digest"]:
        return "model digest differs from the golden entry", {}
    if command == "check":
        ok = result["structurally_controllable"]
        if ok is not (code == 0):
            return f"exit {code} with structurally_controllable {ok}", {}
        problem = _verdict_problem(result)
        if problem:
            return problem, {}
        if ok is not golden["controllable"]:
            return f"verdict {ok} differs from golden {golden['controllable']}", {}
        return None, {}
    if command == "design":
        if code == 1:
            if result.get("infeasible") is not True:
                return "exit 1 without an infeasibility report", {}
            return None, {"feasible": False}
        if result.get("verified") is not True:
            return "exit 0 without verified: true", {}
        problem = _verdict_problem(result["verdict"])
        if problem:
            return problem, {}
        return None, {"feasible": True,
                      "links": len(result["phi_positions"]),
                      "stage1_links": len(result["stage1_links"]),
                      "stage2_links": len(result["stage2_links"])}
    if command == "realize":
        witness = result["controllable_witness"]
        if witness is not (code == 0):
            return f"exit {code} with controllable_witness {witness}", {}
        if witness and not golden["controllable"]:
            return "witness returned for a golden-uncontrollable instance", {}
        return None, {"witness": witness, "trials_used": result["trials_used"],
                      "redraws": result["redraws"]}
    raise ValueError(f"unknown command {command}")
