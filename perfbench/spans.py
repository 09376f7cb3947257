"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: `Recorder.install` replaces
each traced public function at the attribute its callers look up (a name
imported with `from ... import` is patched in the importing module, a
method on its class) with a wrapper that records (name, parent, call,
start, end). Spans stay in memory in flat arrays and are written out once
the run ends. A layer is the module prefix of a span name.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

from netctrl import cli, design, exactla, matroid, model, ratfun, structgraph, verify

# (owner object, attribute, span name). Every place a caller resolves the
# name is listed, so no call escapes its span.
TRACED = [
    (cli, "load_document", "cli.load_document"),
    (verify, "check_structural_controllability", "verify.check_structural_controllability"),
    (verify, "check_fum_networked", "verify.check_fum_networked"),
    (verify, "check_feasibility", "verify.check_feasibility"),
    (verify, "randomized_realization_check", "verify.randomized_realization_check"),
    (verify, "realize_numeric", "verify.realize_numeric"),
    (verify, "uncontrollable_modes", "verify.uncontrollable_modes"),
    (verify, "check_well_posedness", "model.check_well_posedness"),
    (model, "assemble_lumped", "model.assemble_lumped"),
    (verify, "assemble_lumped", "model.assemble_lumped"),
    (structgraph, "assemble_lumped", "model.assemble_lumped"),
    (exactla, "exact_det", "exactla.exact_det"),
    (exactla, "exact_solve", "exactla.exact_solve"),
    (exactla, "exact_rank", "exactla.exact_rank"),
    (exactla, "mmul", "exactla.mmul"),
    (ratfun, "nds_tfms", "ratfun.nds_tfms"),
    (ratfun, "spectrum", "ratfun.spectrum"),
    (ratfun, "mode_data", "ratfun.mode_data"),
    (structgraph, "build_nacg", "structgraph.build_nacg"),
    (structgraph, "scc_decompose", "structgraph.scc_decompose"),
    (structgraph, "find_input_unreachable_lambda_edge",
     "structgraph.find_input_unreachable_lambda_edge"),
    (structgraph, "find_input_unreachable_lambda_cycle",
     "structgraph.find_input_unreachable_lambda_cycle"),
    (verify, "matroid_intersection_rank", "matroid.intersection"),
    (design, "matroid_intersection_rank", "matroid.intersection"),
    (matroid.NumericColumns, "independent", "matroid.numeric_oracle"),
    (matroid.GenericPattern, "independent", "matroid.generic_oracle"),
    (design, "design_topology", "design.design_topology"),
    (design, "greedy_link_rows", "design.greedy_link_rows"),
    (design, "extract_cover_sets", "design.extract_cover_sets"),
    (design, "greedy_color", "design.greedy_color"),
    (design, "eliminate_pdums", "design.eliminate_pdums"),
    (design, "g_value", "design.g_value"),
]

ROOT = "cli.main"


def _count_augmentations(counters, result) -> None:
    counters["matroid.augmentations"] += result.certified_rank


def _count_trials(counters, result) -> None:
    counters["verify.realize.trials_used"] += result.trials_used
    counters["verify.realize.redraws"] += result.redraws


# Counters read off the results of traced calls, by span name.
RESULT_COUNTERS = {
    "matroid.intersection": _count_augmentations,
    "verify.randomized_realization_check": _count_trials,
}


class Recorder:
    """Flat in-memory span store plus counters read off traced results."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple] = []

    def _open(self, name_id: int, t0: float) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call)
        self.start.append(t0)
        self.end.append(t0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t1: float) -> None:
        self.end[idx] = t1
        self._stack.pop()

    def open_call(self, call_id: int, t0: float) -> int:
        """Open the root span of one CLI call; the caller times the call."""
        self._call = call_id
        return self._open(0, t0)

    def close_call(self, idx: int, t1: float) -> None:
        self._close(idx, t1)

    def _wrap(self, fn, span: str):
        name_id = self._ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        on_result = RESULT_COUNTERS.get(span)
        counters = self.counters
        clock = time.perf_counter
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, clock())
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, span in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, span count), each keyed by span name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i in range(n):
            key = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            total[key] += dur
            own[key] += dur - child[i]
            count[key] += 1
        return total, own, count

    def direct_child_time(self, parent_name: str, child_names: set) -> float:
        """Seconds spent in spans named `child_names` directly under `parent_name`."""
        pid = self._ids[parent_name]
        kids = {self._ids[c] for c in child_names if c in self._ids}
        return sum(self.end[i] - self.start[i] for i in range(len(self.name))
                   if self.name[i] in kids and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)

    def dump(self, path, extra: dict) -> None:
        """Write every span (times in microseconds from the first span) as JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = {
            "name": list(self.name),
            "parent": list(self.parent),
            "call": list(self.call),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, names=self.names, spans=spans), fh)
