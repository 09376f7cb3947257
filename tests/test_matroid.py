import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from netctrl import exactla as ex
from netctrl.matroid import (GenericPattern, NumericColumns,
                             exhaustive_union_rank, matroid_intersection_rank,
                             matroid_union_rank)
from netctrl.model import StructuredPattern


def _pattern(rows, cols, positions, prefix="g"):
    return StructuredPattern(rows, cols,
                             {(r, c): f"{prefix}_{r}_{c}" for r, c in positions})


def test_numeric_independent_basics():
    eye = ex.eye(3)
    assert NumericColumns(eye).independent({0, 1})
    dup = NumericColumns(ex.mat([[1, 1], [2, 2]]))
    assert not dup.independent({0, 1})
    assert dup.independent({0})


def test_numeric_exact_and_float_agree():
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(8)] for _ in range(6)]
    exact = NumericColumns(m)
    approx = NumericColumns(ex.to_float(m))
    assert exact.path == "exact" and approx.path == "svd"
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


class _PartitionOracle:
    """At most one element from the guarded prefix; everything else free."""

    def __init__(self, ground_size, guarded):
        self.ground_size = ground_size
        self.guarded = set(guarded)

    def independent(self, subset):
        return len(set(subset) & self.guarded) <= 1


class _FreeOracle:
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
        o1, o2 = NumericColumns(m1), NumericColumns(m2)
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
        o1, o2 = NumericColumns(m1), NumericColumns(m2)
        got = matroid_intersection_rank(o1, o2).certified_rank
        want = 0
        for k in range(n, -1, -1):
            if any(o1.independent(c) and o2.independent(c)
                   for c in itertools.combinations(range(n), k)):
                want = k
                break
        assert got == want


def test_intersection_monotone_in_free_entries():
    # growing the routing pattern never shrinks the intersection rank
    rng = random.Random(19)
    for _ in range(15):
        rows, n = 3, 6
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        o2 = NumericColumns(m2)
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
    numeric = ex.eye(n)
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
        matroid_union_rank(ex.eye(3), _pattern(1, 2, [(0, 0)]))


def test_routing_pattern_identity_rank(sec7):
    from netctrl.model import assemble_lumped
    from netctrl.verify import routing_pattern_q1
    pat = routing_pattern_q1(assemble_lumped(sec7).P_pattern)
    oracle = GenericPattern(pat)
    # the identity block alone spans every output row
    ident = set(range(sec7.M_v, sec7.M_v + sec7.M_z))
    assert oracle.independent(ident)
    assert oracle.rank_of(range(pat.cols)) == sec7.M_z
