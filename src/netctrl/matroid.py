"""Linear-matroid oracles and matroid intersection.

Ground elements are column indices. Numeric column matroids test rank
through singular values (the float and complex matrices the per-mode
null-space routines produce). Generic pattern matroids answer independence
by maximum bipartite matching, which is exact when every free entry is an
independent unknown. The exact column oracle and the union ranks of the
lumped fixed-mode route are test-suite references (tests/oracles.py).

The intersection binds each oracle to its current set once per
augmentation (`exchanges`) and asks the bound oracle one batched question
per step of its exchange-graph search: is current - x + y independent, for
a list of (x, y) pairs. The float column oracle is a direct sum of row
blocks, as [Y Z] is of the subsystems' [y_i z_i] at every mode: it splits
the current set by block once, and a pair asks only its y's block. Block
ranks come from `BlockRanks`, the one cache of (block, local columns)
ranks, which design's stage 1 ranks through too; the uncached sets of one
question go to one stacked SVD per shape and dtype. The pattern oracle
takes one maximum matching of the current set and answers every pair of
one y from one alternating search, kept for the whole augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import exactla as ex
from .exactla import RANK_TOL
from .model import StructuredPattern

# An oracle bound to a current set: (x, y) pairs -> is current - x + y independent
Exchanges = Callable[[list], list[bool]]


class IndependenceOracle:
    """An independence oracle over the ground set range(ground_size).

    Subclasses define `independent`; the exchanges of `exchanges` ask it
    once per pair unless a subclass answers a whole batch at once.
    """

    ground_size: int

    def independent(self, subset: Iterable[int]) -> bool:
        raise NotImplementedError

    def exchanges(self, current: frozenset) -> Exchanges:
        """The oracle bound to current: a function of a list of (x, y) pairs
        telling whether current - x + y is independent for each; x None asks
        for current + y. The intersection binds an independent current once
        per augmentation and asks x inside it and y outside it. Raises
        ValueError for a dependent current set."""
        if not self.independent(current):
            raise ValueError("exchanges needs an independent current set")

        def ask(pairs: list) -> list[bool]:
            return [self.independent(current | {y} if x is None else current - {x} | {y})
                    for x, y in pairs]
        return ask


class BlockRanks:
    """Ranks of column sets of blocks, cached by (block object, local columns).

    Each (block, local column set) is ranked alone, `exactla.float_rank` of
    the block's chosen columns in sorted order, so its cutoff is
    tol * max(1, s0) of that matrix. A block with no rows, or an empty
    column set, has rank 0 and takes no SVD. Keys hold the block's id, so
    one array object, such as the [y_i z_i] of agents that share a form,
    shares its ranks under every key; the cache keeps each keyed block
    alive, so an id is never reused while its ranks are kept. The misses of one `ranks` call go
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


def scan_blocks(ranks: Callable[[list], list[int]],
                chains: list[tuple[np.ndarray, list[int]]]) -> list[list[int]]:
    """A greedy basis of each (block, chain of its local columns): the chain
    is walked in order, a column is kept when it raises the rank of the
    block's kept columns, and a block stops at full row rank. Each round
    asks every unfinished block's next column in one `ranks` call (a
    `BlockRanks.ranks`). Returns the positions each chain keeps, in order.

    A column raises a block's rank by at most one, as the singular values of
    the block's columns interlace with those one column more, and the cutoff
    tol * max(1, s0) does not fall. So a block's rank is the count it keeps.
    """
    kept: list[list[int]] = [[] for _ in chains]
    local = [frozenset()] * len(chains)
    pending = [i for i, (block, chain) in enumerate(chains) if len(block) and chain]
    k = 0  # each pending chain's next test is its chain[k]
    while pending:
        queries = [(chains[i][0], local[i] | {chains[i][1][k]}) for i in pending]
        for i, (_, cols), r in zip(pending, queries, ranks(queries)):
            if r > len(kept[i]):
                kept[i].append(k)
                local[i] = cols
        k += 1
        pending = [i for i in pending
                   if len(kept[i]) < len(chains[i][0]) and k < len(chains[i][1])]
    return kept


class NumericColumns(IndependenceOracle):
    """Independence = the chosen columns of a block-diagonal float or
    complex matrix have full column rank, read from singular values at
    tolerance tol. The matrix is given as (block, columns) parts: the
    block's local column j is ground element columns[j], and the parts'
    columns together are range(ground_size). A column set is
    independent exactly when each block's part of it is independent in
    that block, and its rank is the sum of those parts' ranks. Each part is
    ranked alone by the oracle's `BlockRanks`, at the cutoff of the part,
    not of the whole set. Parts that are one array object, such as the
    blocks of agents that share a form, share their ranks.
    """

    def __init__(self, parts: list, tol: float = RANK_TOL):
        self._ranks = BlockRanks(tol)
        where: dict[int, tuple] = {}  # element -> (part, block, local column)
        for p, (block, columns) in enumerate(parts):
            where.update((c, (p, block, j)) for j, c in enumerate(columns))
        self.ground_size = len(where)
        self._where = [where[c] for c in range(self.ground_size)]
        self._columns = [list(columns) for _, columns in parts]

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

    def basis(self, elements: Iterable[int]) -> frozenset:
        """A basis of the given elements. Each part takes all of its
        elements when they are independent, and else the greedy basis of
        them in the order given (`scan_blocks`); the tests of all parts go
        through the oracle's own rank cache, one stacked call per round."""
        chains: dict[int, tuple[np.ndarray, list]] = {}  # part -> (block, local columns)
        for c in elements:
            p, block, j = self._where[c]
            chains.setdefault(p, (block, []))[1].append(j)
        whole = self._independence([(block, frozenset(cols)) for block, cols in chains.values()])
        scanned = iter(scan_blocks(self._ranks.ranks, [
            chain for chain, ok in zip(chains.values(), whole) if not ok]))
        basis = []
        for (p, (_, cols)), ok in zip(chains.items(), whole):
            basis += [self._columns[p][j] for j in cols] if ok else [
                self._columns[p][cols[k]] for k in next(scanned)]
        return frozenset(basis)

    def independent(self, subset: Iterable[int]) -> bool:
        return all(self._independence(list(self._keys(subset).values())))

    def exchanges(self, current: frozenset) -> Exchanges:
        """With current independent, current - x + y is independent exactly
        when y's part of it is: every other part keeps current's columns or
        loses x. So current is split by part once, each pair asks one
        (block, local column set), and the uncached sets of one question go
        to one stacked SVD per shape. Raises ValueError for a dependent
        current set."""
        parts = self._keys(current)
        if not all(self._independence(list(parts.values()))):
            raise ValueError("exchanges needs an independent current set")
        where, empty = self._where, frozenset()

        def ask(pairs: list) -> list[bool]:
            keys = []
            for x, y in pairs:
                p, block, j = where[y]
                cols = parts[p][1] if p in parts else empty
                if x is not None and where[x][0] == p:
                    cols = cols - {where[x][2]}
                keys.append((block, cols | {j}))
            return self._independence(keys)
        return ask


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

    def _matching(self, subset: Iterable[int]) -> dict:
        return _max_matching({c: self._col_rows[c] for c in set(subset)})

    def independent(self, subset: Iterable[int]) -> bool:
        cols = set(subset)
        return len(self._matching(cols)) == len(cols)

    def exchanges(self, current: frozenset) -> Exchanges:
        """Transversal exchange arcs from one maximum matching M of current.

        An alternating search from y (y to its rows, a matched row to its
        column's rows) reaches the rows R(y). current + y is independent iff
        R(y) holds a free row; current - x + y iff R(y) holds a free row or
        x's matched row, since a path into x's column passes that row first.
        M is taken once, and each R(y) once, for every question asked of
        the bound oracle. Raises ValueError for a dependent current set.
        """
        row_of = self._matching(current)
        if len(row_of) != len(current):
            raise ValueError("exchanges needs an independent current set")
        col_of = {r: c for c, r in row_of.items()}
        reach: dict[int, Optional[set]] = {}

        def ask(pairs: list) -> list[bool]:
            out = []
            for x, y in pairs:
                if y not in reach:
                    reach[y] = self._alternating_rows(y, col_of)
                rows = reach[y]
                out.append(rows is None or (x is not None and row_of[x] in rows))
            return out
        return ask

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
    rights: one augmenting-path search per left vertex, in sorted order,
    depth first through each left's rights in the order given. The search
    keeps its own stack, so a path may be as long as the matching."""
    match_l: dict = {}
    match_r: dict = {}
    for root in sorted(adj):
        seen: set = set()
        stack = [(root, iter(adj[root]))]  # the lefts of the path, with their untried rights
        taken: list = []  # taken[i]: the right from stack[i]'s left to stack[i + 1]'s
        while stack:
            for r in stack[-1][1]:
                if r in seen:
                    continue
                seen.add(r)
                taken.append(r)
                if r in match_r:
                    stack.append((match_r[r], iter(adj[match_r[r]])))
                else:  # a free right: flip the path, deepest left first
                    for (l, _), r_l in zip(reversed(stack), reversed(taken)):
                        match_l[l] = r_l
                        match_r[r_l] = l
                    stack = []
                break
            else:  # every right of the deepest left tried
                stack.pop()
                if taken:
                    taken.pop()
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


def matroid_intersection_rank(o1: IndependenceOracle, o2: IndependenceOracle,
                              start: frozenset = frozenset()) -> CommonIndependentSet:
    """Largest common independent set by shortest augmenting paths.

    The exchange digraph has arcs x->y (x inside, y outside, swap keeps the
    first matroid independent) and y->x (swap keeps the second independent);
    augmenting along a shortest path from the first-matroid-free elements to
    the second-matroid-free elements grows the set by one until optimal.
    The search starts from `start`, which must be independent in both
    matroids (ValueError otherwise), so it makes at most r - |start|
    augmentations, r the size of a largest common independent set. Each
    augmentation binds each oracle to the current set once (`exchanges`),
    and each search step asks its bound oracle one batch: the source test,
    the sink test, and each frontier vertex's unvisited candidates.
    """
    n = o1.ground_size
    if o2.ground_size != n:
        raise ValueError("oracles must share one ground set")
    current = frozenset(start)
    # binding checks independence, so a start is bound to both at once
    ask2 = o2.exchanges(current) if current else None
    while True:
        outside = [y for y in range(n) if y not in current]
        adds = [(None, y) for y in outside]
        ask1 = o1.exchanges(current)
        sources = [y for y, ok in zip(outside, ask1(adds)) if ok]
        if not sources:
            reach = frozenset()
            break
        ask2 = ask2 or o2.exchanges(current)
        sinks = {y for y, ok in zip(outside, ask2(adds)) if ok}
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
                    cands = [y for (_, y), ok in zip(pairs, ask1(pairs)) if ok]
                else:
                    pairs = [(x, v) for x in sorted(current) if x not in prev]
                    cands = [x for (x, _), ok in zip(pairs, ask2(pairs)) if ok]
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
        current ^= frozenset(path)
        ask2 = None
    return CommonIndependentSet(current, len(current), reach)

