"""Rebuild the recorded report files that the report guards compare against.

    PYTHONPATH=src python tests/record_reports.py

writes, from the seed lists below,

* `data/design_reports.json`: `randgen.random_fixed_subsystems` documents
  (fixed subsystems, no routing) under `design`, `design --modes unstable`
  and `feasible` (read by `test_report_guard.py`);
* `data/check_reports.json`: `randgen.random_nds` documents with free
  parameter blocks (`lft_prob=0.5`) under `check`, `realize`,
  `realize --seed 3 --trials 2` and `graph` (read by `test_check_guard.py`).

Each case keeps its document and, per command line, the exit code and the
JSON report (`graph`: its DOT text). Record only from a tree whose reports
are known good: the guards exist to show that a later change left them as
they were.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from netctrl import cli
from netctrl.model import NdsModel

from randgen import random_fixed_subsystems, random_nds

DATA = Path(__file__).parent / "data"

DESIGN_SEEDS = [(1, 4), (2, 8), (3, 4), (4, 8), (6, 8), (22, 8), (24, 8), (5, 8),
                (12, 8), (1, 16), (2, 16), (8, 16)]
DESIGN_RUNS = [["design"], ["design", "--modes", "unstable"], ["feasible"]]

CHECK_SEEDS = [(seed, max_sub) for max_sub in (3, 8, 16) for seed in (1, 2, 3, 4)]
CHECK_RUNS = [["check"], ["realize"], ["realize", "--seed", "3", "--trials", "2"],
              ["graph"]]


def design_document(seed: int, max_sub: int) -> dict:
    nds = NdsModel.unrouted(random_fixed_subsystems(seed, max_sub))
    return cli.serialize_document(nds, dict(cli.DEFAULT_OPTIONS))


def check_document(seed: int, max_sub: int) -> dict:
    nds = random_nds(seed, max_sub, lft_prob=0.5)
    return cli.serialize_document(nds, dict(cli.DEFAULT_OPTIONS))


def run_command(argv: list[str], document: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `netctrl argv[0] DOC argv[1:]`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv[:1] + [str(path)] + argv[1:])
    return code, out.getvalue(), err.getvalue()


def record(seeds, build, runs) -> list[dict]:
    cases = []
    for seed, max_sub in seeds:
        document = build(seed, max_sub)
        recorded = []
        for argv in runs:
            code, out, err = run_command(argv, document)
            if err:
                raise RuntimeError(f"{argv} on seed {seed} max_sub {max_sub}: {err}")
            run = {"argv": argv, "exit": code}
            if argv[0] == "graph":
                run["dot"] = out
            else:
                run["report"] = json.loads(out)
            recorded.append(run)
        cases.append({"document": document, "max_sub": max_sub, "runs": recorded,
                      "seed": seed})
    return cases


def write_cases(path: Path, cases: list[dict]) -> None:
    """One case per line, keys sorted."""
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    path.write_text('{"cases": [\n' + lines + "\n]}\n", encoding="utf-8")


def main() -> int:
    write_cases(DATA / "design_reports.json",
                record(DESIGN_SEEDS, design_document, DESIGN_RUNS))
    write_cases(DATA / "check_reports.json",
                record(CHECK_SEEDS, check_document, CHECK_RUNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
