"""Linear-matroid oracles and matroid intersection.

Ground elements are column indices. Numeric column matroids test rank
through singular values (the float and complex matrices the per-mode
null-space routines produce). Generic pattern matroids answer independence
by maximum bipartite matching, which is exact when every free entry is an
independent unknown. The exact column oracle and the union ranks of the
lumped fixed-mode route are test-suite references (tests/oracles.py).

The intersection asks each oracle one batched question per step of its
exchange-graph search (`swaps`): is current - x + y independent, for a list
of (x, y) pairs. The float column oracle is a direct sum of row blocks, as
[Y Z] is of the subsystems' [y_i z_i] at every mode: a pair asks only its
y's block. Block ranks come from `BlockRanks`, the one cache of
(block, local columns) ranks, which design's stage 1 ranks through too; the
uncached sets of one question go to one stacked SVD per shape and dtype.
The pattern oracle takes one maximum matching of each current set it is
asked about and answers every pair of one y from one alternating search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import exactla as ex
from .exactla import RANK_TOL
from .model import StructuredPattern


def _swap(current: set, x: Optional[int], y: int) -> set:
    """current - x + y, or current + y when x is None."""
    return current | {y} if x is None else current - {x} | {y}


class IndependenceOracle:
    """An independence oracle over the ground set range(ground_size).

    Subclasses define `independent`; `swaps` asks it once per pair unless a
    subclass answers a whole batch at once.
    """

    ground_size: int

    def independent(self, subset: Iterable[int]) -> bool:
        raise NotImplementedError

    def swaps(self, current: set, pairs: list) -> list[bool]:
        """Whether current - x + y is independent, for each (x, y) of pairs;
        x None asks for current + y. The intersection passes an independent
        current, x inside it and y outside it."""
        return [self.independent(_swap(current, x, y)) for x, y in pairs]


class BlockRanks:
    """Ranks of column sets of blocks, cached by (block object, local columns).

    Each (block, local column set) is ranked alone, `exactla.float_rank` of
    the block's chosen columns in sorted order, so its cutoff is
    tol * max(1, s0) of that matrix. A block with no rows, or an empty
    column set, has rank 0 and takes no SVD. Keys hold the block's id, so
    one array object, such as identical agents' [y_i z_i], shares its ranks
    under every key; the cache keeps each keyed block alive, so an id is
    never reused while its ranks are kept. The misses of one `ranks` call go
    to one stacked `float_rank` per matrix shape and dtype (LAPACK factors
    each matrix of a stack as it would alone).
    """

    def __init__(self, tol: float = RANK_TOL):
        self.tol = tol
        self._cache: dict[tuple[int, frozenset], int] = {}
        self._held: dict[int, np.ndarray] = {}  # id -> block, for every cached key

    def ranks(self, queries: list[tuple[np.ndarray, frozenset]]) -> list[int]:
        """The rank of each (block, local column set) of queries."""
        cache = self._cache
        keys = [(id(block), cols) for block, cols in queries]
        try:  # most calls of an intersection ask only cached sets
            return [cache[key] for key in keys]
        except KeyError:
            pass
        new = {k: q for k, q in zip(keys, queries) if k not in cache}
        missing: dict[tuple, dict] = {}
        for key, (block, cols) in new.items():
            self._held[key[0]] = block
            if len(block) == 0 or not cols:
                cache[key] = 0
            else:
                shape = (len(block), len(cols), block.dtype)
                missing.setdefault(shape, {})[key] = block[:, sorted(cols)]
        for group in missing.values():
            stack = np.stack(list(group.values()))
            cache.update(zip(group, ex.float_rank(stack, self.tol).tolist()))
        return [cache[key] for key in keys]


class NumericColumns(IndependenceOracle):
    """Independence = the chosen columns of a float or complex matrix have
    full column rank, read from singular values at tolerance tol.

    The matrix is a direct sum of row blocks (`direct_sum`), each filling
    its own columns, and a dense matrix is the one-block case. A column set
    is independent exactly when each block's part of it is independent in
    that block, and its rank is the sum of those parts' ranks. Each part is
    ranked alone by the oracle's `BlockRanks`, at the cutoff of the part,
    not of the whole set. Parts that are one array object, such as
    identical agents' blocks, share their ranks.
    """

    def __init__(self, matrix, tol: float = RANK_TOL):
        matrix = np.asarray(matrix)
        self._setup([(matrix, range(matrix.shape[1]))], tol)

    @classmethod
    def direct_sum(cls, parts: list, tol: float = RANK_TOL) -> NumericColumns:
        """The oracle of a block-diagonal matrix given as (block, columns)
        parts: the block's local column j is ground element columns[j], and
        the parts' columns together are range(ground_size)."""
        oracle = cls.__new__(cls)
        oracle._setup(parts, tol)
        return oracle

    def _setup(self, parts: list, tol: float) -> None:
        self._ranks = BlockRanks(tol)
        where: dict[int, tuple] = {}  # element -> (part, block, local column)
        for p, (block, columns) in enumerate(parts):
            where.update((c, (p, block, j)) for j, c in enumerate(columns))
        self.ground_size = len(where)
        self._where = [where[c] for c in range(self.ground_size)]

    def _keys(self, subset: Iterable[int]) -> dict[int, tuple[np.ndarray, frozenset]]:
        """part -> (its block, its local columns), for each part subset meets."""
        local: dict[int, tuple[np.ndarray, set]] = {}
        for c in subset:
            p, block, j = self._where[c]
            local.setdefault(p, (block, set()))[1].add(j)
        return {p: (block, frozenset(cols)) for p, (block, cols) in local.items()}

    def _independence(self, keys: list) -> list[bool]:
        """Whether each (block, local column set) of keys is independent. A
        set with more columns than its block has rows is dependent without
        a rank."""
        ranks = iter(self._ranks.ranks([k for k in keys if len(k[1]) <= len(k[0])]))
        return [len(cols) <= len(block) and next(ranks) == len(cols) for block, cols in keys]

    def rank_of(self, subset: Iterable[int]) -> int:
        return sum(self._ranks.ranks(list(self._keys(subset).values())))

    def independent(self, subset: Iterable[int]) -> bool:
        return all(self._independence(list(self._keys(subset).values())))

    def swaps(self, current: set, pairs: list) -> list[bool]:
        """With current independent, current - x + y is independent exactly
        when y's part of it is: every other part keeps current's columns or
        loses x. So each pair asks one (block, local column set), and the
        uncached ones go to one stacked SVD per shape. A dependent current,
        which the intersection never passes, is asked set by set."""
        parts = self._keys(current)
        if not all(self._independence(list(parts.values()))):
            return super().swaps(current, pairs)
        where, keys = self._where, []
        empty = frozenset()
        for x, y in pairs:
            p, block, j = where[y]
            cols = parts[p][1] if p in parts else empty
            if x is not None and where[x][0] == p:
                cols = cols - {where[x][2]}
            keys.append((block, cols | {j}))
        return self._independence(keys)


class GenericPattern(IndependenceOracle):
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
        # the last current set `swaps` was asked about, with its matching
        # (column -> row) and that matching's inverse (row -> column)
        self._last: tuple[frozenset, dict, dict] = (frozenset(), {}, {})

    def _matching(self, subset: Iterable[int]) -> dict:
        return _max_matching({c: self._col_rows[c] for c in set(subset)})

    def independent(self, subset: Iterable[int]) -> bool:
        cols = set(subset)
        return len(self._matching(cols)) == len(cols)

    def swaps(self, current: set, pairs: list) -> list[bool]:
        """Transversal exchange arcs from one maximum matching M of current.

        An alternating search from y (y to its rows, a matched row to its
        column's rows) reaches the rows R(y). current + y is independent iff
        R(y) holds a free row; current - x + y iff R(y) holds a free row or
        x's matched row, since a path into x's column passes that row first.

        The intersection changes its current set only when it augments, so
        M is kept for the last current set asked about and taken again
        while that set stands. `_max_matching` is deterministic, so a kept
        M is the one a fresh call would give.
        """
        if not pairs:
            return []
        key, row_of, col_of = self._last
        if key != current:
            key = frozenset(current)
            row_of = self._matching(key)
            col_of = {r: c for c, r in row_of.items()}
            self._last = (key, row_of, col_of)
        if len(row_of) != len(current):
            raise ValueError("swaps needs an independent current set")
        reach: dict[int, Optional[set]] = {}
        out = []
        for x, y in pairs:
            if y not in reach:
                reach[y] = self._alternating_rows(y, col_of)
            rows = reach[y]
            out.append(rows is None or (x is not None and row_of[x] in rows))
        return out

    def _alternating_rows(self, y: int, col_of: dict) -> Optional[set]:
        """Rows an alternating search from column y reaches under the
        matching col_of (row -> column), or None once it reaches a free row."""
        seen: set[int] = set()
        stack = [y]
        while stack:
            for r in self._col_rows[stack.pop()]:
                if r not in seen:
                    if r not in col_of:
                        return None
                    seen.add(r)
                    stack.append(col_of[r])
        return seen


def _max_matching(adj: dict) -> dict:
    """Maximum matching (left -> right) of a bipartite graph given as left ->
    rights: one augmenting-path search per left vertex, in sorted order. The
    recursion depth is at most the size of the matching."""
    match_l: dict = {}
    match_r: dict = {}

    def augment(l, seen: set) -> bool:
        for r in adj[l]:
            if r not in seen:
                seen.add(r)
                if r not in match_r or augment(match_r[r], seen):
                    match_l[l] = r
                    match_r[r] = l
                    return True
        return False

    for l in sorted(adj):
        augment(l, set())
    return match_l


@dataclass(frozen=True)
class CommonIndependentSet:
    """A largest common independent set and its dual certificate.

    reach is the set R of elements the last exchange-graph search reached
    from its sources (empty without a source, the whole ground set without a
    sink). Edmonds' min-max identity r1(E - R) + r2(R) = |indices| certifies
    that no larger common independent set exists.
    """

    indices: frozenset
    certified_rank: int
    reach: frozenset


def matroid_intersection_rank(o1: IndependenceOracle,
                              o2: IndependenceOracle) -> CommonIndependentSet:
    """Largest common independent set by shortest augmenting paths.

    The exchange digraph has arcs x->y (x inside, y outside, swap keeps the
    first matroid independent) and y->x (swap keeps the second independent);
    augmenting along a shortest path from the first-matroid-free elements to
    the second-matroid-free elements grows the set by one until optimal.
    Each search step asks its oracle one `swaps` batch: the source test, the
    sink test, and each frontier vertex's unvisited candidates.
    """
    n = o1.ground_size
    if o2.ground_size != n:
        raise ValueError("oracles must share one ground set")
    current: set[int] = set()
    while True:
        outside = [y for y in range(n) if y not in current]
        adds = [(None, y) for y in outside]
        sources = [y for y, ok in zip(outside, o1.swaps(current, adds)) if ok]
        if not sources:
            reach = frozenset()
            break
        sinks = {y for y, ok in zip(outside, o2.swaps(current, adds)) if ok}
        if not sinks:
            reach = frozenset(range(n))
            break
        prev: dict[int, Optional[int]] = {y: None for y in sources}
        found = next((y for y in sources if y in sinks), None)
        frontier = [y for y in sources if y not in sinks]
        while found is None and frontier:
            nxt = []
            for v in frontier:
                if v in current:
                    pairs = [(v, y) for y in outside if y not in prev]
                    cands = [y for (_, y), ok in zip(pairs, o1.swaps(current, pairs)) if ok]
                else:
                    pairs = [(x, v) for x in sorted(current) if x not in prev]
                    cands = [x for (x, _), ok in zip(pairs, o2.swaps(current, pairs)) if ok]
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
            reach = frozenset(prev)
            break
        path = [found]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        current ^= set(path)
    return CommonIndependentSet(frozenset(current), len(current), reach)

