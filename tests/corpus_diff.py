"""Compare one command's output between two source trees on the benchmark documents.

    python3 tests/corpus_diff.py OLD_TREE NEW_TREE --workload realize --seeds 1 2 3

Builds every distinct document that the benchmark's workload selects at the
given seeds (`perfbench/workloads.select`), plus sec7, and writes them to a
temporary directory. Each tree then runs the workload's command on every
document in its own subprocess, with only that tree's `src` on the import
path. The script lists each call whose exit code, standard output or
standard error differs between the trees, and exits 1 if any does. It reads
`perfbench/` and writes nothing there.

    python3 tests/corpus_diff.py OLD NEW --ignore-key last_uncontrollable_modes

compares each report with those keys removed from its `result` block, and
counts apart the calls that differ only in them.

    python3 tests/corpus_diff.py OLD NEW --workload all --seeds 1 2 3

runs the four workloads one after another, prints one summary line for
each, and exits 1 if any call of any of them differs.

    python3 tests/corpus_diff.py OLD NEW --workload design --command "feasible --modes all"

runs that command line, instead of the workload's own command, on the
workload's documents.

    python3 tests/corpus_diff.py OLD NEW --documents DIR [--command CMD]

runs the command (`check` unless --command is given) on every `*.json`
in DIR, instead of the benchmark's documents; with --workload as well, it
runs them beside the workload's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@cache
def _workloads():
    """The benchmark's `workloads` module, imported from `perfbench/`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    import workloads
    return workloads


def build_documents(workload: str, seeds: list[int],
                    outdir: Path) -> tuple[list, list[str], dict]:
    """Write each distinct document once; returns (document paths, command
    arguments, and the golden verdict of each document that has one)."""
    workloads = _workloads()
    golden = workloads.load_golden()
    command, _, _, with_sec7 = workloads.WORKLOADS[workload]
    entries = {(e["family"], e["rung"], e["seed"]): e
               for seed in seeds for e in workloads.select(workload, seed, golden)}
    docs = [(f"{family}-{rung}-seed{seed}", workloads.build_document(family, rung, seed))
            for family, rung, seed in sorted(entries)]
    verdicts = {f"{family}-{rung}-seed{seed}": e["controllable"]
                for (family, rung, seed), e in entries.items() if "controllable" in e}
    if with_sec7:
        docs.append(("sec7", workloads.sec7_document()))
    paths = []
    for label, doc in docs:
        path = outdir / f"{label}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths, command, verdicts


def run_worker(command: list[str], paths: list[str]) -> None:
    """In the tree under test: run the command on each document, print the results."""
    from netctrl.cli import main

    results = []
    for path in paths:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(command[:1] + [path] + command[1:])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(tree: Path, command: list[str], paths: list[str]) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"], input=json.dumps([command, paths]),
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _summary(stdout: str) -> str:
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return stdout[:80]
    return ", ".join(f"{k}={json.dumps(result[k])}" for k in
                     ("controllable_witness", "trials_used", "structurally_controllable",
                      "verified") if k in result)


def _without(stdout: str, keys: list[str]):
    """The parsed report with `keys` removed from its result block, or the
    raw text when it is not a JSON report."""
    try:
        report = json.loads(stdout)
        for key in keys:
            report["result"].pop(key, None)
    except (ValueError, KeyError, TypeError, AttributeError):
        return stdout
    return report


def compare(old_tree: Path, new_tree: Path, paths: list[str], command: list[str],
            ignore_key: list[str], source: str, verdicts: Optional[dict] = None) -> int:
    """Run the command line in both trees on the documents; print each
    differing call and a summary line naming the documents' `source`;
    returns the number of differing calls."""
    old = run_tree(old_tree.resolve(), command, paths)
    new = run_tree(new_tree.resolve(), command, paths)
    differ = only_ignored = 0
    for path, a, b in zip(paths, old, new):
        fields = [name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
        if (fields == ["stdout"] and ignore_key
                and _without(a[1], ignore_key) == _without(b[1], ignore_key)):
            only_ignored += 1
            continue
        if fields:
            differ += 1
            label = Path(path).stem
            print(f"{label}: {'/'.join(fields)} differ; "
                  f"old exit {a[0]} ({_summary(a[1])}), new exit {b[0]} ({_summary(b[1])}); "
                  f"golden controllable {(verdicts or {}).get(label, 'unknown')}")
    ignored = (f"; {only_ignored} more differ only in {', '.join(ignore_key)}"
               if ignore_key else "")
    print(f"# {' '.join(command)} over {len(paths)} documents ({source}): "
          f"{differ} calls differ{ignored}", flush=True)
    return differ


def compare_workload(old_tree: Path, new_tree: Path, workload: str, seeds: list[int],
                     ignore_key: list[str], command: Optional[list[str]] = None) -> int:
    """`compare` on the documents of one workload at the given seeds, with
    the workload's own command unless a command line is given."""
    with tempfile.TemporaryDirectory() as tmp:
        paths, own, verdicts = build_documents(workload, seeds, Path(tmp))
        sec7 = "in" if paths and Path(paths[-1]).stem == "sec7" else "out"
        return compare(old_tree, new_tree, paths, command or own, ignore_key,
                       f"workload {workload}, seeds {' '.join(map(str, seeds))}, "
                       f"sec7 {sec7}", verdicts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("old", nargs="?", type=Path)
    p.add_argument("new", nargs="?", type=Path)
    p.add_argument("--workload",
                   help="a workload of the benchmark, or all four (default: realize, "
                        "unless --documents is given)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--ignore-key", action="append", default=[], metavar="KEY",
                   help="compare reports without this result key (repeatable)")
    p.add_argument("--command", type=shlex.split, metavar="CMD",
                   help="run this command line (e.g. \"feasible --modes all\") "
                        "instead of the workload's own command")
    p.add_argument("--documents", type=Path, metavar="DIR",
                   help="run the command (default: check) on every *.json in DIR, "
                        "instead of the benchmark's documents or beside --workload's")
    args = p.parse_args(argv)
    if args.worker:
        run_worker(*json.load(sys.stdin))
        return 0
    if args.old is None or args.new is None:
        p.error("OLD_TREE and NEW_TREE are required")
    workload = args.workload or (None if args.documents else "realize")
    names = (list(_workloads().WORKLOADS) if workload == "all"
             else [workload] if workload else [])
    differ = [compare_workload(args.old, args.new, name, args.seeds, args.ignore_key,
                               args.command) for name in names]
    if args.documents:
        paths = sorted(str(path) for path in args.documents.glob("*.json"))
        if not paths:
            p.error(f"no *.json documents in {args.documents}")
        differ.append(compare(args.old, args.new, paths, args.command or ["check"],
                              args.ignore_key, f"documents in {args.documents}"))
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
