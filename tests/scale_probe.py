"""Time the fixed-mode test, realization and the design on the size-table networks.

    PYTHONPATH=src python3 tests/scale_probe.py 128 256 [--repeat 3]

For each N, builds `randgen.check_network(N)` and runs
`verify.check_fum_networked` on it once, which warms the subsystems'
records and counts the work of the exact intersections: how many ran, and
how many times they bound their first oracle (`exchanges`), which is once
per augmentation and once more per intersection. It then times --repeat
more runs and prints their median, in seconds, with the records warm.
Every run must give the same mode checks.

It then runs `verify.randomized_realization_check` on the same network
once more, to warm it, and prints the median of --repeat more timed runs,
in seconds. Every run must give the same report (`to_dict()`).

It also times --repeat runs of `design.design_topology` on
`randgen.design_network(N)`, each on freshly built subsystems, so with
cold records as in a CLI call, and the `design.greedy_color` call inside
each. It prints both medians, in seconds. Every run must design the same
routing positions.

This is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

from netctrl import design, verify  # noqa: E402

from randgen import check_network, design_network  # noqa: E402


def _counted(nds) -> tuple[list, int, int]:
    """check_fum_networked's mode checks, its intersections and its bindings."""
    exact = verify.matroid_intersection_rank
    work = {"intersections": 0, "bindings": 0}

    def counting(o1, *args):
        exchanges = o1.exchanges

        def bind(current):
            work["bindings"] += 1
            return exchanges(current)

        work["intersections"] += 1
        o1.exchanges = bind
        try:
            return exact(o1, *args)
        finally:
            del o1.exchanges

    verify.matroid_intersection_rank = counting
    try:
        checks = verify.check_fum_networked(nds)
    finally:
        verify.matroid_intersection_rank = exact
    return checks, work["intersections"], work["bindings"]


def _timed_design(n: int) -> tuple[float, float, list]:
    """design_topology's time on a fresh design_network(n), the time of the
    greedy_color call inside it, and the routing positions it designed."""
    subs = design_network(n)
    color = design.greedy_color
    spent = []

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return color(*args)
        finally:
            spent.append(time.perf_counter() - t0)

    design.greedy_color = timed
    try:
        t0 = time.perf_counter()
        result = design.design_topology(subs)
        total = time.perf_counter() - t0
    finally:
        design.greedy_color = color
    return total, sum(spent), result.positions


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sizes", type=int, nargs="+", metavar="N")
    p.add_argument("--repeat", type=int, default=1, help="timed runs per N (default 1)")
    args = p.parse_args(argv)
    print("N\tM_x\tintersections\tbindings\tcheck_fum_networked_s"
          "\trealize_s\tdesign_topology_s\tgreedy_color_s")
    for n in args.sizes:
        nds = check_network(n)
        checks, intersections, bindings = _counted(nds)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            again = verify.check_fum_networked(nds)
            times.append(time.perf_counter() - t0)
            if again != checks:
                raise RuntimeError(f"N = {n}: a timed run gave other mode checks")
        realized = verify.randomized_realization_check(nds).to_dict()
        realize_times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            again = verify.randomized_realization_check(nds).to_dict()
            realize_times.append(time.perf_counter() - t0)
            if again != realized:
                raise RuntimeError(f"N = {n}: a timed run gave another realization")
        designs = [_timed_design(n) for _ in range(args.repeat)]
        if any(positions != designs[0][2] for _, _, positions in designs):
            raise RuntimeError(f"N = {n}: the design runs designed other positions")
        design_s = statistics.median(t for t, _, _ in designs)
        color_s = statistics.median(t for _, t, _ in designs)
        print(f"{n}\t{nds.M_x}\t{intersections}\t{bindings}\t{statistics.median(times):.3f}"
              f"\t{statistics.median(realize_times):.3f}\t{design_s:.3f}\t{color_s:.3f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
