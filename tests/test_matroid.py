import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from netctrl import exactla as ex
from netctrl import matroid, ratfun, verify
from netctrl.matroid import (GenericPattern, IndependenceOracle, NumericColumns,
                             _max_matching, matroid_intersection_rank)
from netctrl.model import (ModelError, NdsModel, StructuredPattern, assemble_lumped,
                           check_well_posedness)

from oracles import (ExactColumns, _hopcroft_karp, dense_columns, dense_y, dense_z,
                     exhaustive_union_rank, eye, matroid_union_rank, rank_of,
                     recursive_max_matching)
from randgen import check_network, random_nds, random_subsystem


def _pattern(rows, cols, positions, prefix="g"):
    return StructuredPattern(rows, cols,
                             {(r, c): f"{prefix}_{r}_{c}" for r, c in positions})


def test_numeric_independent_basics():
    assert dense_columns(np.eye(3)).independent({0, 1})
    dup = dense_columns(ex.to_float(ex.mat([[1, 1], [2, 2]])))
    assert not dup.independent({0, 1})
    assert dup.independent({0})


def test_numeric_exact_and_float_agree():
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(8)] for _ in range(6)]
    exact = ExactColumns(m)
    approx = dense_columns(ex.to_float(m))
    for _ in range(100):
        k = rng.randint(0, 6)
        subset = frozenset(rng.sample(range(8), k))
        assert exact.independent(subset) == approx.independent(subset)


def test_generic_independent_identity_block():
    # routing pattern [P^T I]: identity columns are always independent
    pat = _pattern(3, 7, [(j, 4 + j) for j in range(3)] + [(0, 0), (1, 0)])
    oracle = GenericPattern(pat)
    assert oracle.independent({4, 5, 6})
    assert oracle.independent({0, 5, 6})
    # two columns whose only free entries share one row are dependent
    oracle2 = GenericPattern(_pattern(2, 2, [(0, 0), (0, 1)]))
    assert not oracle2.independent({0, 1})
    assert oracle2.independent({0})


def test_generic_matches_substitution_oracle():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        positions = [(r, c) for r in range(rows) for c in range(cols)
                     if rng.random() < 0.4]
        pat = _pattern(rows, cols, positions)
        # distinct random integer substitutions keep generic ranks intact
        values = {pid: Fraction(v) for pid, v in
                  zip(pat.entries.values(),
                      rng.sample(range(1, 10 * len(positions) + 2),
                                 len(positions)))}
        numeric = pat.substitute(values)
        k = rng.randint(0, cols)
        subset = frozenset(rng.sample(range(cols), k))
        want = ex.exact_rank(ex.submatrix(numeric, None, sorted(subset))) == len(subset)
        assert GenericPattern(pat).independent(subset) == want


class _PartitionOracle(IndependenceOracle):
    """At most one element from the guarded prefix; everything else free."""

    def __init__(self, ground_size, guarded):
        self.ground_size = ground_size
        self.guarded = set(guarded)

    def independent(self, subset):
        return len(set(subset) & self.guarded) <= 1


class _FreeOracle(IndependenceOracle):
    def __init__(self, ground_size):
        self.ground_size = ground_size

    def independent(self, subset):
        return True


def test_intersection_free_matroids():
    n = 5
    best = matroid_intersection_rank(_FreeOracle(n), _FreeOracle(n))
    assert best.certified_rank == n
    assert best.indices == frozenset(range(n))


def test_intersection_partition_vs_free():
    n = 6
    best = matroid_intersection_rank(_PartitionOracle(n, {0, 1}), _FreeOracle(n))
    assert best.certified_rank == n - 1


def test_intersection_result_passes_both_oracles():
    rng = random.Random(13)
    for _ in range(30):
        rows = rng.randint(1, 4)
        n = rng.randint(1, 7)
        m1 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        o1, o2 = ExactColumns(m1), ExactColumns(m2)
        best = matroid_intersection_rank(o1, o2)
        assert o1.independent(best.indices)
        assert o2.independent(best.indices)
        assert best.certified_rank <= min(ex.exact_rank(m1), ex.exact_rank(m2))


def test_intersection_matches_exhaustive():
    rng = random.Random(17)
    for _ in range(25):
        rows = rng.randint(1, 3)
        n = rng.randint(1, 6)
        m1 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        o1, o2 = ExactColumns(m1), ExactColumns(m2)
        best = matroid_intersection_rank(o1, o2)
        _assert_dual_certificate(o1, o2, best)
        got = best.certified_rank
        want = 0
        for k in range(n, -1, -1):
            if any(o1.independent(c) and o2.independent(c)
                   for c in itertools.combinations(range(n), k)):
                want = k
                break
        assert got == want


def _assert_dual_certificate(o1, o2, best):
    # Edmonds: r1(E - R) + r2(R) = |I| for the last search's reach set R
    outside = [e for e in range(o1.ground_size) if e not in best.reach]
    assert rank_of(o1, outside) + rank_of(o2, best.reach) == best.certified_rank
    assert o1.independent(best.indices) and o2.independent(best.indices)


def _homogeneous_nds(seed, agents):
    """`agents` identical random subsystems under a random well-posed routing."""
    subs = [random_subsystem(random.Random(seed), i + 1, lft_prob=0.5)
            for i in range(agents)]
    mv, mz = sum(s.m_v0 for s in subs), sum(s.m_z0 for s in subs)
    rng = random.Random(seed)
    for _ in range(64):
        free = [(r, c) for r in range(mv) for c in range(mz) if rng.random() < 0.35]
        try:
            nds = NdsModel(subs, StructuredPattern(
                mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in free}))
        except ModelError:
            continue
        if check_well_posedness(nds, trials=3, seed=seed).well_posed:
            return nds
    raise RuntimeError(f"no well-posed homogeneous network for seed {seed}")


def test_dual_certificate_on_every_mode(sec7):
    # [P^T I] against [Y Z] at every mode with a target: sec7, heterogeneous
    # networks and identical agents (few modes of high multiplicity)
    networks = [sec7]
    networks += [random_nds(seed, 8, max_state=4, max_port=3) for seed in (1, 5, 9, 13)]
    networks += [_homogeneous_nds(seed, agents) for seed, agents in ((2, 4), (3, 8), (4, 12))]
    shortfalls = 0
    for nds in networks:
        q1 = GenericPattern(verify.routing_pattern_q1(assemble_lumped(nds).P_pattern))
        for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
            if md.M_r == 0:
                continue
            q2 = dense_columns(np.hstack([dense_y(md), dense_z(md)]))
            best = matroid_intersection_rank(q1, q2)
            _assert_dual_certificate(q1, q2, best)
            shortfalls += best.certified_rank < md.M_r
    assert shortfalls > 0


def test_dual_certificate_on_check_network():
    # every mode with a target of the n = 32 size-table network, fixed
    # modes among them, against the direct-sum oracle of its blocks
    nds = check_network(32)
    q1 = GenericPattern(verify.routing_pattern_q1(nds.P_pattern))
    intersected = shortfalls = 0
    for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
        if md.M_r == 0:
            continue
        q2 = NumericColumns(md.column_blocks())
        best = matroid_intersection_rank(q1, q2)
        _assert_dual_certificate(q1, q2, best)
        intersected += 1
        shortfalls += best.certified_rank < md.M_r
    assert nds.M_x == 73 and intersected == 32 and shortfalls > 0


def test_dual_certificate_from_a_start(sec7):
    # Edmonds' identity holds for an intersection started from a common
    # independent set, which reaches the rank the empty start does: from
    # the basis of Z on every mode of sec7 with a target, and from random
    # common independent sets of random block-diagonal matrices
    q1 = GenericPattern(verify.routing_pattern_q1(sec7.P_pattern))
    z_ports = range(sec7.M_v, sec7.M_v + sec7.M_z)
    for md in ratfun.modes(sec7, ratfun.spectrum(sec7).values):
        if md.M_r == 0:
            continue
        q2 = NumericColumns(md.column_blocks())
        best = matroid_intersection_rank(q1, q2, q2.basis(z_ports))
        _assert_dual_certificate(q1, q2, best)
        assert best.certified_rank == matroid_intersection_rank(q1, q2).certified_rank
    rng = random.Random(59)
    nrng = np.random.default_rng(59)
    started = 0
    for _ in range(80):
        parts, ground = _random_parts(rng, nrng)
        q2 = NumericColumns(parts)
        positions = [(r, c) for r in range(rng.randint(1, 4)) for c in range(ground)
                     if rng.random() < 0.3]
        q1 = GenericPattern(_pattern(max(r for r, _ in positions) + 1 if positions else 0,
                                     ground, positions))
        start = frozenset(_independent_subset(
            rng, ground, lambda s: q1.independent(s) and q2.independent(s)))
        best = matroid_intersection_rank(q1, q2, start)
        _assert_dual_certificate(q1, q2, best)
        assert best.certified_rank == matroid_intersection_rank(q1, q2).certified_rank
        started += bool(start)
    assert started > 40


def test_intersection_rejects_dependent_start():
    # a start must be independent in both matroids, whichever comes first:
    # the pattern and column oracles refuse it when they bind it, a
    # base-class oracle by its own independence test
    dup = ex.mat([[1, 2, 0], [2, 4, 1]])
    free = dense_columns(np.eye(3))
    for oracle in (GenericPattern(_pattern(1, 3, [(0, 0), (0, 1), (0, 2)])),
                   dense_columns(ex.to_float(dup)), ExactColumns(dup)):
        for pair in ((oracle, free), (free, oracle)):
            with pytest.raises(ValueError):
                matroid_intersection_rank(*pair, frozenset({0, 1}))
            assert matroid_intersection_rank(*pair, frozenset({1})).certified_rank == \
                matroid_intersection_rank(*pair).certified_rank


def _random_parts(rng, nrng):
    """Random (block, columns) parts of a block-diagonal matrix, some of
    low rank, some blocks one shared object, and their ground size."""
    kinds = [nrng.standard_normal((rng.randint(0, 3), 2))
             @ nrng.standard_normal((2, rng.randint(1, 4))) * 10.0 ** rng.randint(-2, 3)
             for _ in range(rng.randint(1, 3))]
    blocks = [rng.choice(kinds) for _ in range(rng.randint(1, 4))]
    ground = sum(b.shape[1] for b in blocks)
    order = rng.sample(range(ground), ground)
    parts = []
    for b in blocks:
        parts.append((b, order[:b.shape[1]]))
        order = order[b.shape[1]:]
    return parts, ground


def test_basis_is_a_greedy_basis(monkeypatch):
    # a basis of any elements, in any order, of a block-diagonal matrix: each
    # part whole when independent, else the greedy basis in the given order,
    # with one stacked rank call for the whole parts and one per round
    rng = random.Random(61)
    nrng = np.random.default_rng(61)
    whole = scanned = 0
    for _ in range(80):
        parts, ground = _random_parts(rng, nrng)
        oracle = NumericColumns(parts)
        elements = rng.sample(range(ground), rng.randint(0, ground))
        calls = []
        ranks = oracle._ranks.ranks
        monkeypatch.setattr(oracle._ranks, "ranks", lambda q: calls.append(q) or ranks(q))
        basis = oracle.basis(elements)
        monkeypatch.undo()
        want = set()
        for block, cols in parts:
            mine = [c for c in elements if c in cols]
            if oracle.independent(mine):
                want |= set(mine)
                whole += bool(mine)
                continue
            kept = []
            for c in mine:
                if kept and len(kept) == len(block):
                    break
                if rank_of(oracle, kept + [c]) > len(kept):
                    kept.append(c)
            want |= set(kept)
            scanned += 1
        assert basis == want and oracle.independent(basis)
        assert len(basis) == rank_of(oracle, elements)
        assert len(calls) <= 1 + max((len(cols) for _, cols in parts), default=0)
    assert whole and scanned


def test_scan_blocks_keeps_rank_gains():
    # each chain keeps the positions whose column raises its block's rank,
    # and stops at full row rank; empty blocks and chains keep nothing
    block = np.array([[1.0, 2.0, 0.0, 1.0, 5.0], [0.0, 0.0, 0.0, 1.0, 1.0]])
    ranks = matroid.BlockRanks().ranks
    chains = [(block, [0, 1, 2, 3, 4]), (block, [2, 4, 0]), (block, []),
              (np.zeros((0, 3)), [0, 1]), (block, [1, 0, 4])]
    assert matroid.scan_blocks(ranks, chains) == [[0, 3], [1, 2], [], [], [0, 2]]


def _block_rank(md, subset):
    """r2 of a column set of [Y Z] summed over the subsystems' blocks, each
    block's chosen columns ranked alone."""
    return sum(ex.float_rank(yz[:, [j for j, c in enumerate(cols) if c in subset]])
               for yz, cols in md.column_blocks() if subset & set(cols))


def test_block_oracle_matches_dense(sec7, sec7_designed2, sec7_designed3):
    # the direct-sum oracle of [Y Z] and the dense one-block oracle of the
    # same matrix give the same intersection on every mode with a target
    networks = [sec7, sec7_designed2, sec7_designed3]
    networks += [random_nds(seed, 6, max_state=4, max_port=3, lft_prob=0.5)
                 for seed in range(40)]
    networks += [_homogeneous_nds(seed, agents) for seed in range(4) for agents in (2, 4, 8)]
    seen = {"modes": 0, "complex": 0, "shared": 0, "short": 0}
    for nds in networks:
        q1 = GenericPattern(verify.routing_pattern_q1(nds.P_pattern))
        for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
            if md.M_r == 0:
                continue
            dense = matroid_intersection_rank(
                q1, dense_columns(np.hstack([dense_y(md), dense_z(md)])))
            q2 = NumericColumns(md.column_blocks())
            best = matroid_intersection_rank(q1, q2)
            assert (best.indices, best.reach, best.certified_rank) == \
                (dense.indices, dense.reach, dense.certified_rank)
            # Edmonds: r1(E - R) + r2(R) = |I|, r2 summed over the blocks
            outside = [e for e in range(q1.ground_size) if e not in best.reach]
            r2 = _block_rank(md, best.reach)
            assert rank_of(q2, best.reach) == r2
            assert rank_of(q1, outside) + r2 == best.certified_rank
            seen["modes"] += 1
            seen["complex"] += complex(md.lam).imag != 0
            seen["shared"] += len({id(b) for b, _ in md.column_blocks()}) < len(md.per_sub)
            seen["short"] += best.certified_rank < md.M_r
    assert all(seen.values()), seen


def test_block_oracle_shares_identical_agents(monkeypatch):
    # N identical agents hand over one block object per mode, so the block
    # oracle ranks at most the block's distinct local column sets, however
    # many agents there are
    ranked = []
    float_rank = ex.float_rank

    def counting(m, tol=ex.RANK_TOL):
        ranked.append(int(np.prod(np.shape(m)[:-2])))
        return float_rank(m, tol)

    monkeypatch.setattr(ex, "float_rank", counting)
    checked = 0
    for seed in range(3):
        for agents in (2, 4, 8):
            nds = _homogeneous_nds(seed, agents)
            q1 = GenericPattern(verify.routing_pattern_q1(nds.P_pattern))
            for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
                if md.M_r == 0:
                    continue
                block = md.per_sub[0].yz
                assert all(s.yz is block for s in md.per_sub)
                q2 = NumericColumns(md.column_blocks())
                rows, cols = block.shape
                ranked.clear()
                matroid_intersection_rank(q1, q2)
                assert 0 < sum(ranked) <= sum(math.comb(cols, k) for k in range(1, rows + 1))
                checked += 1
    assert checked >= 9


def test_block_ranks_cache_and_stacks(monkeypatch):
    # random real and complex blocks of mixed shapes, zero-row ones among
    # them, asked about random local column sets (empty ones included), and
    # one block object under two keys
    calls = []
    float_rank = ex.float_rank
    monkeypatch.setattr(ex, "float_rank", lambda m, tol=ex.RANK_TOL: calls.append(
        (*m.shape, m.dtype)) or float_rank(m, tol))
    rng = random.Random(29)
    nrng = np.random.default_rng(29)
    checked = set()
    for _ in range(40):
        blocks = []
        for _ in range(rng.randint(1, 5)):
            rows, cols, k = rng.randint(0, 4), rng.randint(1, 5), rng.randint(1, 3)
            b = nrng.standard_normal((rows, k)) @ nrng.standard_normal((k, cols))
            if rng.random() < 0.5:
                b = b + 1j * (nrng.standard_normal((rows, k)) @ nrng.standard_normal((k, cols)))
            blocks.append(b)
        queries = []
        for _ in range(rng.randint(1, 12)):
            b = rng.choice(blocks)
            queries.append((b, frozenset(rng.sample(range(b.shape[1]),
                                                    rng.randint(0, b.shape[1])))))
        b = rng.choice(blocks)
        queries += [(b, frozenset({0})), (b, frozenset(range(b.shape[1])))]
        ranks = matroid.BlockRanks()
        calls.clear()
        got = ranks.ranks(queries)
        assert got == [float_rank(b[:, sorted(cols)]) for b, cols in queries]
        # one stack per (rows, ncols, dtype), of that shape's distinct keys
        misses = {(id(b), cols): (len(b), len(cols), b.dtype) for b, cols in queries
                  if len(b) and cols}
        stacks = [(n, *shape) for shape, n in Counter(misses.values()).items()]
        assert sorted(calls, key=str) == sorted(stacks, key=str)
        calls.clear()
        assert ranks.ranks(queries) == got and calls == []
        checked |= {(b.dtype.kind, len(b) == 0, not cols) for b, cols in queries}
    assert {("f", True, False), ("c", False, False), ("f", False, True)} <= checked, checked


def test_direct_sum_swaps_match_dense(monkeypatch):
    # random block-diagonal matrices, some blocks one shared object, asked
    # from random independent current sets
    ranked = []
    float_rank = ex.float_rank
    monkeypatch.setattr(ex, "float_rank", lambda m, tol=ex.RANK_TOL: ranked.append(
        int(np.prod(np.shape(m)[:-2]))) or float_rank(m, tol))
    rng = random.Random(53)
    nrng = np.random.default_rng(53)
    for _ in range(60):
        kinds = [nrng.standard_normal((rng.randint(0, 3), 2))
                 @ nrng.standard_normal((2, rng.randint(1, 4))) * 10.0 ** rng.randint(-2, 3)
                 for _ in range(rng.randint(1, 3))]
        blocks = [rng.choice(kinds) for _ in range(rng.randint(1, 4))]
        ground = sum(b.shape[1] for b in blocks)
        order = rng.sample(range(ground), ground)
        parts, dense, r0 = [], np.zeros((sum(b.shape[0] for b in blocks), ground)), 0
        for b in blocks:
            cols, order = order[:b.shape[1]], order[b.shape[1]:]
            parts.append((b, cols))
            dense[r0:r0 + b.shape[0], cols] = b
            r0 += b.shape[0]
        oracle = NumericColumns(parts)
        # each part's whole column set: a block object shared by parts is ranked once
        whole = [float_rank(b) for b in blocks]
        ranked.clear()
        assert oracle.ground_size == ground and [
            rank_of(oracle, cols) for _, cols in parts] == whole
        assert sum(ranked) == len({id(b) for b in blocks if len(b)})
        current = _independent_subset(
            rng, ground, lambda s: float_rank(dense[:, sorted(s)]) == len(s))
        pairs = _pairs(rng, current, ground)
        want = [ex.float_rank(dense[:, sorted(_swapped(current, x, y))])
                for x, y in pairs]
        assert oracle.exchanges(frozenset(current))(pairs) == [
            r == len(_swapped(current, x, y)) for r, (x, y) in zip(want, pairs)]
        assert [rank_of(oracle, _swapped(current, x, y)) for x, y in pairs] == want


def test_dual_certificate_edge_cases():
    # no source: R is empty; no sink: R is the whole ground set
    n = 4
    no_source = matroid_intersection_rank(dense_columns(np.zeros((2, n))),
                                          dense_columns(np.eye(n)))
    assert no_source.certified_rank == 0 and no_source.reach == frozenset()
    no_sink = matroid_intersection_rank(dense_columns(np.eye(n)),
                                        dense_columns(np.zeros((0, n))))
    assert no_sink.certified_rank == 0 and no_sink.reach == frozenset(range(n))


def _independent_subset(rng, ground, independent):
    """A random independent set, grown greedily in a random order."""
    current = set()
    for e in rng.sample(range(ground), ground):
        if rng.random() < 0.7 and independent(current | {e}):
            current.add(e)
    return current


def _pairs(rng, current, ground):
    outside = [y for y in range(ground) if y not in current]
    pairs = [(None, y) for y in outside] + [(x, y) for x in current for y in outside]
    pairs += rng.choices(pairs, k=len(pairs) // 2)  # repeated questions
    rng.shuffle(pairs)
    return pairs


def _swapped(current, x, y):
    return current | {y} if x is None else current - {x} | {y}


def test_generic_swaps_match_per_set_matching():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(1, 8)
        positions = [(r, c) for r in range(rows) for c in range(cols)
                     if rng.random() < rng.choice((0.2, 0.4, 0.7))]
        oracle = GenericPattern(_pattern(rows, cols, positions))
        col_rows = {c: [r for r, cc in positions if cc == c] for c in range(cols)}

        def matched(subset):
            return len(_hopcroft_karp({c: col_rows[c] for c in subset})) == len(subset)

        current = _independent_subset(rng, cols, matched)
        pairs = _pairs(rng, current, cols)
        assert oracle.exchanges(frozenset(current))(pairs) == [
            matched(_swapped(current, x, y)) for x, y in pairs]
        checked += len(pairs)
    assert checked > 1000


def test_exchanges_reject_dependent_current():
    # the batched answers are read off one matching or one split of an
    # independent set, so both oracles refuse a dependent one
    with pytest.raises(ValueError):
        GenericPattern(_pattern(1, 3, [(0, 0), (0, 1)])).exchanges(frozenset({0, 1}))
    dup = ex.to_float(ex.mat([[1, 2, 0], [2, 4, 1]]))
    parts = [(dup, [0, 2, 4]), (np.eye(1), [3]), (np.zeros((0, 1)), [1])]
    for current in ({0, 2}, {3, 4, 1}, {1}):
        with pytest.raises(ValueError):
            NumericColumns(parts).exchanges(frozenset(current))
    assert NumericColumns(parts).exchanges(frozenset({0, 4, 3}))([(None, 2), (0, 2)]) == [
        False, True]


class _FreshMatching(GenericPattern):
    """A pattern oracle that takes a fresh matching for every question."""

    def exchanges(self, current):
        return lambda pairs: GenericPattern.exchanges(self, current)(pairs)


def test_generic_swaps_match_once_per_current_set(monkeypatch, sec7):
    # the intersection binds the pattern oracle once per augmentation, and
    # the bound oracle takes one matching of its current set however many
    # questions it is asked: as the first oracle it is bound at every
    # augmentation and once more, as the second only where a source exists
    matched = []

    def counting(adj):
        matched.append(frozenset(adj))
        return _max_matching(adj)

    monkeypatch.setattr(matroid, "_max_matching", counting)
    networks = [sec7] + [random_nds(seed, 8, max_state=4, max_port=3)
                         for seed in (1, 5, 9, 13)]
    asked = matchings = 0
    for nds in networks:
        pattern = verify.routing_pattern_q1(nds.P_pattern)
        for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
            if md.M_r == 0:
                continue
            q2 = NumericColumns(md.column_blocks())
            q1 = GenericPattern(pattern)
            asked_here = []
            exchanges = q1.exchanges

            def counting_exchanges(current, exchanges=exchanges, asked_here=asked_here):
                ask = exchanges(current)
                return lambda pairs: asked_here.append(1) or ask(pairs)

            monkeypatch.setattr(q1, "exchanges", counting_exchanges)
            for first in (True, False):
                matched.clear()
                best = matroid_intersection_rank(*((q1, q2) if first else (q2, q1)))
                assert len(matched) == len(set(matched))
                if first:
                    assert len(matched) == best.certified_rank + 1
                else:
                    assert len(matched) <= best.certified_rank + 1
                matchings += len(matched)
                fresh = _FreshMatching(pattern)
                assert best == matroid_intersection_rank(*((fresh, q2) if first else (q2, fresh)))
            asked += len(asked_here)
    assert asked > matchings > 0


def test_max_matching_is_maximum():
    rng = random.Random(47)
    for trial in range(300):
        lefts, rights = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.4, 0.7))
        adj = {l: [r for r in range(rights) if rng.random() < density]
               for l in rng.sample(range(12), lefts)}
        if trial % 2:  # rights out of order: the search follows the given order
            for rs in adj.values():
                rng.shuffle(rs)
        matching = _max_matching(adj)
        assert all(r in adj[l] for l, r in matching.items())
        assert len(set(matching.values())) == len(matching)
        assert len(matching) == len(_hopcroft_karp(adj))
        # the same augmenting paths as the recursive search, found in the same order
        reference = recursive_max_matching(adj)
        assert list(matching.items()) == list(reference.items())


def test_max_matching_long_augmenting_path():
    # left k reaches right k only through the chain k-1, ..., 0: the search
    # from left k walks k lefts deep, past Python's recursion limit
    n = 3000
    adj = {0: (0,), **{k: (k - 1, k) for k in range(1, n)}}
    matching = _max_matching(adj)
    assert len(matching) == len(_hopcroft_karp(adj)) == n
    assert matching == {k: k for k in range(n)}


def test_numeric_swaps_match_float_rank():
    rng = random.Random(43)
    nrng = np.random.default_rng(43)
    for trial in range(120):
        rows, cols = rng.randint(0, 6), rng.randint(1, 8)
        k = rng.randint(0, min(rows, cols))
        matrix = nrng.standard_normal((rows, k)) @ nrng.standard_normal((k, cols))
        if trial % 2:
            matrix = matrix + 1j * (nrng.standard_normal((rows, k))
                                    @ nrng.standard_normal((k, cols)))
        oracle = dense_columns(matrix)
        current = _independent_subset(
            rng, cols, lambda s: ex.float_rank(matrix[:, sorted(s)]) == len(s))
        pairs = _pairs(rng, current, cols)
        for x, y in rng.sample(pairs, len(pairs) // 3):  # cache hits from rank_of
            rank_of(oracle, _swapped(current, x, y))
        want = [ex.float_rank(matrix[:, sorted(_swapped(current, x, y))])
                for x, y in pairs]
        for _ in range(2):  # the second call is answered from the cache
            assert oracle.exchanges(frozenset(current))(pairs) == [
                r == len(_swapped(current, x, y)) for r, (x, y) in zip(want, pairs)]
        assert [rank_of(oracle, _swapped(current, x, y)) for x, y in pairs] == want
    # a 0-row matrix ranks 0: no column is independent
    empty = dense_columns(np.zeros((0, 3)))
    assert empty.exchanges(frozenset())([(None, 1), (None, 2), (None, 1)]) == [False] * 3
    assert rank_of(empty, {1}) == 0


def test_intersection_monotone_in_free_entries():
    # growing the routing pattern never shrinks the intersection rank
    rng = random.Random(19)
    for _ in range(15):
        rows, n = 3, 6
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        o2 = ExactColumns(m2)
        cells = [(r, c) for r in range(2) for c in range(n)]
        rng.shuffle(cells)
        cut = rng.randint(0, len(cells) - 1)
        small = _pattern(2, n, cells[:cut])
        big = _pattern(2, n, cells[:cut + 1])
        r_small = matroid_intersection_rank(GenericPattern(small), o2).certified_rank
        r_big = matroid_intersection_rank(GenericPattern(big), o2).certified_rank
        assert r_big >= r_small


def test_union_rank_generic_empty():
    numeric = ex.mat([[1, 0, 1], [0, 1, 1]])
    empty = _pattern(0, 3, [])
    assert matroid_union_rank(numeric, empty) == 2
    assert exhaustive_union_rank(numeric, empty) == 2


def test_union_rank_identity_plus_diagonal():
    n = 4
    numeric = eye(n)
    diag = _pattern(n, n, [(i, i) for i in range(n)])
    assert matroid_union_rank(numeric, diag) == n
    assert exhaustive_union_rank(numeric, diag) == n


def test_union_randomized_matches_exhaustive():
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(1, 7)
        rows = rng.randint(0, 3)
        numeric = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(rng.randint(1, 3))]
        positions = [(r, c) for r in range(rows) for c in range(n)
                     if rng.random() < 0.4]
        pat = _pattern(rows, n, positions)
        assert matroid_union_rank(numeric, pat, seed=trial) == \
            exhaustive_union_rank(numeric, pat)


def test_union_rank_honours_tolerance():
    # one singular value of 1e-6: counted at tol 1e-9, cut at tol 1e-3
    numeric = np.diag([1.0, 1e-6])
    empty = _pattern(0, 2, [])
    assert matroid_union_rank(numeric, empty, tol=1e-9) == 2
    assert matroid_union_rank(numeric, empty, tol=1e-3) == 1
    assert exhaustive_union_rank(numeric, empty, tol=1e-3) == 1


def test_union_rank_mismatched_ground():
    with pytest.raises(ValueError):
        matroid_union_rank(eye(3), _pattern(1, 2, [(0, 0)]))


def test_routing_pattern_identity_rank(sec7):
    from netctrl.model import assemble_lumped
    from netctrl.verify import routing_pattern_q1
    pat = routing_pattern_q1(assemble_lumped(sec7).P_pattern)
    oracle = GenericPattern(pat)
    # the identity block alone spans every output row
    ident = set(range(sec7.M_v, sec7.M_v + sec7.M_z))
    assert oracle.independent(ident)
    assert rank_of(oracle, range(pat.cols)) == sec7.M_z
