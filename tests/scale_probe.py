"""Time the fixed-mode test on the size-table networks.

    PYTHONPATH=src python3 tests/scale_probe.py 128 256 [--repeat 3]

For each N, builds `randgen.check_network(N)` and runs
`verify.check_fum_networked` on it once, which warms the subsystems'
records and counts the work of the exact intersections: how many ran, and
how many times they bound their first oracle (`exchanges`), which is once
per augmentation and once more per intersection. It then times --repeat
more runs and prints their median, in seconds, with the records warm.
Every run must give the same mode checks.

This is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

from netctrl import verify  # noqa: E402

from randgen import check_network  # noqa: E402


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sizes", type=int, nargs="+", metavar="N")
    p.add_argument("--repeat", type=int, default=1, help="timed runs per N (default 1)")
    args = p.parse_args(argv)
    print("N\tM_x\tintersections\tbindings\tcheck_fum_networked_s")
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
        print(f"{n}\t{nds.M_x}\t{intersections}\t{bindings}\t{statistics.median(times):.3f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
