"""Linear-matroid oracles, intersection, and union rank.

Ground elements are column indices. Numeric column matroids test rank
either exactly (rational matrices) or through singular values (floating
inputs produced by null-space routines); which path ran is recorded on the
oracle. Generic pattern matroids answer independence by maximum bipartite
matching, which is exact when every free entry is an independent unknown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import exactla as ex
from .exactla import RANK_TOL
from .model import StructuredPattern


class NumericColumns:
    """Independence = the chosen columns have full column rank."""

    def __init__(self, matrix, tol: float = RANK_TOL):
        self.exact = isinstance(matrix, list)
        self.matrix = matrix
        self.tol = tol
        if self.exact:
            self.rows, self.ground_size = ex.shape(matrix)
        else:
            self.matrix = np.asarray(matrix)
            self.rows, self.ground_size = self.matrix.shape
        self.path = "exact" if self.exact else "svd"
        self._rank_cache: dict[frozenset, int] = {}

    def rank_of(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        cols = sorted(key)
        if not cols:
            rank = 0
        elif self.exact:
            rank = ex.exact_rank(ex.submatrix(self.matrix, None, cols))
        else:
            rank = ex.float_rank(self.matrix[:, cols], self.tol)
        self._rank_cache[key] = rank
        return rank

    def independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        return self.rank_of(key) == len(key)


class GenericPattern:
    """Independence of structured columns via bipartite matching.

    Valid when the free entries are algebraically independent: a column
    subset is generically independent iff the nonzero-position bipartite
    graph has a matching saturating it.
    """

    def __init__(self, pattern: StructuredPattern):
        self.pattern = pattern
        self.ground_size = pattern.cols
        self.rows = pattern.rows
        self._col_rows: list[tuple[int, ...]] = [() for _ in range(pattern.cols)]
        by_col: dict[int, list[int]] = {}
        for (r, c) in pattern.entries:
            by_col.setdefault(c, []).append(r)
        for c, rows in by_col.items():
            self._col_rows[c] = tuple(sorted(rows))
        self.path = "matching"

    def rank_of(self, subset: Iterable[int]) -> int:
        cols = sorted(set(subset))
        return _hopcroft_karp({c: self._col_rows[c] for c in cols})

    def independent(self, subset: Iterable[int]) -> bool:
        cols = sorted(set(subset))
        return _hopcroft_karp({c: self._col_rows[c] for c in cols}) == len(cols)


def _hopcroft_karp(adj: dict) -> int:
    """Maximum matching size of a bipartite graph given as left -> rights."""
    INF = float("inf")
    match_l: dict = {}
    match_r: dict = {}
    lefts = sorted(adj)

    def bfs() -> bool:
        dist = {}
        queue = []
        for l in lefts:
            if l not in match_l:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = INF
        found = INF
        qi = 0
        while qi < len(queue):
            l = queue[qi]
            qi += 1
            if dist[l] >= found:
                continue
            for r in adj[l]:
                nxt = match_r.get(r)
                if nxt is None:
                    found = min(found, dist[l] + 1)
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[l] + 1
                    queue.append(nxt)
        bfs.dist = dist
        return found != INF

    def dfs(l) -> bool:
        for r in adj[l]:
            nxt = match_r.get(r)
            if nxt is None or (bfs.dist.get(nxt) == bfs.dist[l] + 1 and dfs(nxt)):
                match_l[l] = r
                match_r[r] = l
                return True
        bfs.dist[l] = float("inf")
        return False

    size = 0
    while bfs():
        for l in lefts:
            if l not in match_l and dfs(l):
                size += 1
    return size


@dataclass(frozen=True)
class CommonIndependentSet:
    indices: frozenset
    certified_rank: int


def matroid_intersection_rank(o1, o2) -> CommonIndependentSet:
    """Largest common independent set by shortest augmenting paths.

    The exchange digraph has arcs x->y (x inside, y outside, swap keeps the
    first matroid independent) and y->x (swap keeps the second independent);
    augmenting along a shortest path from the first-matroid-free elements to
    the second-matroid-free elements grows the set by one until optimal.
    """
    n = o1.ground_size
    if o2.ground_size != n:
        raise ValueError("oracles must share one ground set")
    current: set[int] = set()
    while True:
        outside = [y for y in range(n) if y not in current]
        sources = [y for y in outside if o1.independent(current | {y})]
        sinks = {y for y in outside if o2.independent(current | {y})}
        if not sources or not sinks:
            break
        prev: dict[int, Optional[int]] = {y: None for y in sources}
        found = next((y for y in sources if y in sinks), None)
        frontier = [y for y in sources if y not in sinks]
        while found is None and frontier:
            nxt = []
            for v in frontier:
                if v in current:
                    cands = [y for y in outside
                             if y not in prev and o1.independent(current - {v} | {y})]
                else:
                    cands = [x for x in sorted(current)
                             if x not in prev and o2.independent(current - {x} | {v})]
                for w in cands:
                    prev[w] = v
                    if w not in current and w in sinks:
                        found = w
                        break
                    nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            break
        path = [found]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        current ^= set(path)
    return CommonIndependentSet(frozenset(current), len(current))


def matroid_union_rank(numeric_part, generic_pattern: StructuredPattern,
                       seed: int = 0, trials: int = 3, tol: float = RANK_TOL) -> int:
    """Union rank by randomized stacked rank.

    Stacking the numeric rows over a random realization of the generic rows
    represents the union matroid; a substituted rank can only fall below the
    generic one, so the maximum over independent draws is reported and extra
    draws are spent whenever trials disagree.
    """
    rng = random.Random(seed)
    if isinstance(numeric_part, list):
        n_cols = ex.shape(numeric_part)[1]
        exact = True
    else:
        numeric_part = np.asarray(numeric_part)
        n_cols = numeric_part.shape[1]
        exact = False
    if generic_pattern.cols != n_cols:
        raise ValueError("numeric and generic parts must share the column count")
    bound = 2 * max(1, generic_pattern.rows) * max(1, generic_pattern.num_free)
    ranks = []
    budget = trials + 2
    while len(ranks) < trials or (len(set(ranks)) > 1 and len(ranks) < budget):
        sub = generic_pattern.substitute(generic_pattern.draw(rng, bound))
        if exact:
            stacked = ex.vstack([numeric_part, sub]) if generic_pattern.rows else numeric_part
            ranks.append(ex.exact_rank(stacked))
        else:
            sub_f = ex.to_float(sub) if generic_pattern.rows else np.zeros((0, n_cols))
            ranks.append(ex.float_rank(np.vstack([numeric_part, sub_f]), tol))
    return max(ranks)


def exhaustive_union_rank(numeric_part, generic_pattern: StructuredPattern,
                          tol: float = RANK_TOL) -> int:
    """Deterministic union rank for small grounds via the rank formula.

    rank(union) = min over subsets A of |E \\ A| + r1(A) + r2(A); only usable
    when 2**|E| subsets are affordable.
    """
    o1 = NumericColumns(numeric_part, tol)
    o2 = GenericPattern(generic_pattern)
    n = o1.ground_size
    if o2.ground_size != n:
        raise ValueError("ground sets differ")
    if n > 16:
        raise ValueError("exhaustive union rank limited to small ground sets")
    elements = list(range(n))
    best = n
    for mask in range(1 << n):
        subset = [e for e in elements if mask >> e & 1]
        value = (n - len(subset)) + o1.rank_of(subset) + o2.rank_of(subset)
        if value < best:
            best = value
    return best
