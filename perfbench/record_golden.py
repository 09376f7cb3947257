"""Rebuild `golden.json`: dims, digests, verdicts and call times of every pool instance.

    python3 perfbench/record_golden.py

The file is committed. Re-record it only when the pools or the generators
change, never to make a failing benchmark pass: the recorded verdicts are
the reference the benchmark checks later commits against.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import harness
import hostspeed
from netctrl import cli, ratfun
from workloads import GOLDEN_PATH, POOLS, WORKLOADS, build_document, sec7_document

REPEATS = 3

# family -> the commands its workloads run on it
COMMANDS: dict[str, list[list[str]]] = {}
for _command, _family, _, _ in WORKLOADS.values():
    COMMANDS.setdefault(_family, []).append(_command)


def _timed_call(argv: list[str]) -> tuple[dict, float]:
    """Report and the median call time over REPEATS calls, in ms at reference host speed.

    Each call's wall time is scaled by the host-speed kernels run around it
    (`hostspeed`), so the pool's order by cost does not follow the host's load.
    """
    spans = []
    kernels = [hostspeed.kernel()]
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        code, out = harness.call_cli(argv)
        spans.append((t0, time.perf_counter()))
        kernels.append(hostspeed.kernel())
        if code not in (0, 1):
            raise RuntimeError(f"{argv}: exit {code}")
    times = [t * 1e3 for t in hostspeed.scaled(spans, kernels)]
    return json.loads(out), sorted(times)[len(times) // 2]


def record_entry(doc: dict, commands: list[list[str]], path: str) -> dict:
    """Golden entry of one document, from calls of each command.

    `ref_ms` holds each command's scaled call time at the recording commit. It
    only orders the pool into strata (`workloads.strata`); no run is
    compared against it.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    reports, ref_ms = {}, {}
    for command in commands:
        reports[command[0]], ref_ms[command[0]] = _timed_call(command + [path])
    report = reports.get("check") or reports["design"]
    entry = {"digest": report["model_digest"], "ref_ms": ref_ms}
    model = cli.parse_document(doc)[0]
    entry.update(n_sub=model.n_sub, M_x=model.M_x, M_v=model.M_v, M_z=model.M_z)
    if "check" in ref_ms:
        per_mode = report["result"]["per_mode"]
        entry.update(modes=len(per_mode),
                     max_M_r=max((m["target"] for m in per_mode), default=0),
                     controllable=report["result"]["structurally_controllable"])
    else:
        lams = ratfun.spectrum(model).values
        entry.update(modes=len(lams),
                     max_M_r=max((ratfun.mode_data(model, lam).M_r for lam in lams),
                                 default=0))
    return entry


def main() -> int:
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as workdir:
        path = os.path.join(workdir, "doc.json")
        golden: dict = {"sec7": record_entry(sec7_document(), COMMANDS["hetero"], path)}
        for family, rungs in POOLS.items():
            golden[family] = {}
            for rung, size in rungs.items():
                golden[family][str(rung)] = [
                    dict(record_entry(build_document(family, rung, s), COMMANDS[family],
                                      path), seed=s)
                    for s in range(size)]
                print(f"{family} rung {rung}: {size} instances", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
