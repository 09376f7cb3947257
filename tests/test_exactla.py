import random
from fractions import Fraction

import numpy as np
import pytest

from netctrl import exactla as ex


def _random_int_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


def _random_sparse(rng, rows, cols, density):
    return [[Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
             if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]


def _random_block_diag(rng, density):
    # block sizes include zero rows and zero columns
    return ex.block_diag([_random_sparse(rng, rng.randint(0, 3), rng.randint(0, 3), density)
                          for _ in range(4)])


DENSITIES = (0.05, 0.1, 0.2, 0.35, 0.5)


# Dense reference loops: they touch every entry, zeros included.

def _dense_mmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def _dense_rank_det(m):
    a = [list(row) for row in m]
    r = len(a)
    c = len(a[0]) if a else 0
    rank, det = 0, Fraction(1)
    for col in range(c):
        piv = next((i for i in range(rank, r) if a[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, r):
            ratio = a[i][col] / a[rank][col]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


def _dense_solve(a, b):
    n = len(a)
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _random_invertible(rng, n, density):
    while True:
        a = _random_sparse(rng, n, n, density)
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            if a[i][j] == 0:
                a[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
        if _dense_rank_det(a)[0] == n:
            return a


def test_frac_parsing():
    assert ex.frac("3/7") == Fraction(3, 7)
    assert ex.frac(-4) == Fraction(-4)
    with pytest.raises(TypeError):
        ex.frac(0.5)
    with pytest.raises(TypeError):
        ex.frac(True)


def test_exact_rank_matches_numpy():
    rng = random.Random(0)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = _random_int_matrix(rng, r, c, span=3)
        expected = np.linalg.matrix_rank(ex.to_float(m))
        assert ex.exact_rank(m) == expected


def test_exact_det_matches_numpy():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_int_matrix(rng, n, n, span=3)
        det = ex.exact_det(m)
        assert abs(float(det) - np.linalg.det(ex.to_float(m))) < 1e-6


def test_exact_solve_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            a = _random_int_matrix(rng, n, n, span=3)
            if ex.exact_det(a) != 0:
                break
        b = _random_int_matrix(rng, n, 2)
        x = ex.exact_solve(a, b)
        assert _dense_mmul(a, x) == b


def test_exact_solve_singular():
    with pytest.raises(ZeroDivisionError):
        ex.exact_solve(ex.mat([[1, 1], [1, 1]]), ex.mat([[1], [0]]))
    # the missing pivot is column 0, and [a | b] still has two pivots (1 and
    # 2): the pivot list rejects it before back-substitution divides
    with pytest.raises(ZeroDivisionError, match="singular system"):
        ex.exact_solve(ex.mat([[0, 1], [0, 1]]), ex.mat([[1], [0]]))


def test_block_helpers():
    a = ex.mat([[1, 2], [3, 4]])
    b = ex.mat([[5], [6]])
    assert ex.hstack([a, b]) == ex.mat([[1, 2, 5], [3, 4, 6]])
    assert ex.vstack([a, ex.mat([[7, 8]])]) == ex.mat([[1, 2], [3, 4], [7, 8]])
    bd = ex.block_diag([a, ex.mat([[9]])])
    assert bd == ex.mat([[1, 2, 0], [3, 4, 0], [0, 0, 9]])
    # a zero-row block keeps the width it is given
    assert ex.block_diag([a, [], ex.mat([[9]])], [2, 1, 1]) == ex.mat(
        [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 9]])
    assert ex.shape(ex.zeros(3, 0)) == (3, 0)
    # zero-width blocks lose their column count; the product stays empty
    assert ex.mmul(ex.zeros(3, 0), ex.zeros(0, 2)) == ex.zeros(3, 0)


def test_rank_rule_empty_and_zero():
    assert ex.singular_value_rank(np.array([])) == 0
    assert ex.float_rank(np.zeros((0, 3))) == 0
    assert ex.float_rank(np.zeros((3, 0))) == 0
    assert ex.float_rank(np.zeros((3, 3))) == 0
    assert ex.singular_value_rank(np.zeros(3)) == 0


def test_rank_rule_absolute_below_unit_scale():
    # largest value 1e-3 < 1: the cutoff stays at tol itself
    assert ex.singular_value_rank(np.array([1e-3, 5e-10])) == 1
    assert ex.singular_value_rank(np.array([1e-3, 2e-9])) == 2
    assert ex.float_rank(np.diag([1e-3, 5e-10])) == 1


def test_rank_rule_relative_above_unit_scale():
    # largest value 1e4: the cutoff scales to tol * 1e4 = 1e-5
    assert ex.singular_value_rank(np.array([1e4, 5e-6])) == 1
    assert ex.singular_value_rank(np.array([1e4, 2e-5])) == 2
    assert ex.float_rank(np.diag([1e4, 5e-6]), tol=1e-9) == 1
    assert ex.float_rank(np.diag([1e4, 5e-6]), tol=1e-12) == 2


def _deficient_stack(rng, count, rows, cols, dtype):
    """`count` matrices of random rank 0..min(rows, cols) and scale 1e-3..1e3."""
    out = np.zeros((count, rows, cols), dtype)
    for m in out:
        k = rng.integers(0, min(rows, cols) + 1)
        left, right = rng.standard_normal((rows, k)), rng.standard_normal((k, cols))
        if dtype is complex:
            left = left + 1j * rng.standard_normal((rows, k))
        m[...] = 10.0 ** rng.integers(-3, 4) * (left @ right)
    return out


def test_stacked_svd_matches_per_matrix():
    # The null-space blocks, the feasibility test and the greedy step hand
    # LAPACK stacks of same-shape matrices and rely on getting, bit for bit,
    # what one call per matrix gives.
    rng = np.random.default_rng(5)
    shapes = [(r, c) for r in range(1, 8) for c in range(1, 8)]
    shapes += [(0, 3), (3, 0), (0, 0)]
    for dtype in (float, complex):
        for rows, cols in shapes:
            stack = _deficient_stack(rng, 4, rows, cols, dtype)
            u_all, s_all, _ = np.linalg.svd(stack)
            s_only = np.linalg.svd(stack, compute_uv=False)
            ranks = ex.singular_value_rank(s_all)
            assert ranks.shape == (4,)
            assert ex.singular_value_rank(s_only).tolist() == ranks.tolist()
            assert ex.float_rank(stack).tolist() == ranks.tolist()
            for m, u_i, s_i, s_only_i, rank in zip(stack, u_all, s_all, s_only, ranks):
                u, s, _ = np.linalg.svd(m)
                assert u_i.tobytes() == u.tobytes() and u_i.dtype == u.dtype
                assert s_i.tobytes() == s.tobytes()
                assert s_only_i.tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()
                assert rank == ex.float_rank(m) == ex.singular_value_rank(s)
            # a stack of no matrices (feasibility condition (i) when a mode
            # filter keeps no eigenvalue of a subsystem) and one of all-zero ones
            assert ex.float_rank(stack[:0]).shape == (0,)
            assert ex.float_rank(np.zeros_like(stack)).tolist() == [0] * 4


def test_mmul_matches_dense_reference():
    rng = random.Random(3)
    for density in DENSITIES:
        for _ in range(30):
            r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a = _random_sparse(rng, r, k, density)
            b = _random_sparse(rng, k, c, density)
            assert ex.mmul(a, b) == _dense_mmul(a, b)
            bd = _random_block_diag(rng, density)
            rows, cols = ex.shape(bd)
            right = _random_sparse(rng, cols, rng.randint(1, 5), density)
            if rows:
                assert ex.mmul(bd, right) == _dense_mmul(bd, right)
                left = _random_sparse(rng, rng.randint(1, 5), rows, density)
                assert ex.mmul(left, bd) == _dense_mmul(left, bd)
                assert ex.mmul(bd, ex.transpose(bd)) == _dense_mmul(bd, ex.transpose(bd))


def test_mmul_zero_dimensions():
    for r in range(3):
        for c in range(3):
            # (r, 0) @ (0, c): the empty right factor loses its column count
            assert ex.mmul(ex.zeros(r, 0), ex.zeros(0, c)) == _dense_mmul(ex.zeros(r, 0), [])
    a = _random_sparse(random.Random(4), 3, 2, 0.5)
    assert ex.mmul([], a) == []
    assert ex.mmul(a, ex.zeros(2, 0)) == _dense_mmul(a, ex.zeros(2, 0)) == ex.zeros(3, 0)
    with pytest.raises(ValueError):
        ex.mmul(a, a)


def test_rank_and_det_match_dense_reference():
    rng = random.Random(5)
    for density in DENSITIES:
        for _ in range(30):
            m = _random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7), density)
            assert ex.exact_rank(m) == _dense_rank_det(m)[0]
            n = rng.randint(1, 6)
            sq = _random_sparse(rng, n, n, density)
            assert ex.exact_det(sq) == _dense_rank_det(sq)[1]
            bd = _random_block_diag(rng, density)
            assert ex.exact_rank(bd) == _dense_rank_det(bd)[0]
            bd_sq = ex.block_diag([_random_invertible(rng, rng.randint(1, 3), density),
                                   _random_sparse(rng, 2, 2, density)])
            assert ex.exact_det(bd_sq) == _dense_rank_det(bd_sq)[1]


def test_rank_det_solve_zero_dimensions():
    assert ex.exact_rank([]) == 0
    assert ex.exact_rank(ex.zeros(3, 0)) == 0
    assert ex.exact_rank(ex.zeros(3, 4)) == 0
    assert ex.exact_det([]) == 1
    assert ex.exact_det(ex.zeros(2, 2)) == 0
    assert ex.exact_solve([], []) == []
    a = _random_invertible(random.Random(6), 3, 0.2)
    assert ex.exact_solve(a, ex.zeros(3, 0)) == ex.zeros(3, 0)


def test_exact_solve_matches_dense_reference():
    rng = random.Random(7)
    for density in DENSITIES:
        for _ in range(20):
            n = rng.randint(1, 7)
            a = _random_invertible(rng, n, density)
            b = _random_sparse(rng, n, rng.randint(1, 4), density)
            x = ex.exact_solve(a, b)
            assert x == _dense_solve(a, b)
            assert _dense_mmul(a, x) == b
            blocks = [_random_invertible(rng, rng.randint(1, 3), density) for _ in range(3)]
            bd = ex.block_diag(blocks)
            rhs = _random_sparse(rng, len(bd), 2, density)
            assert ex.exact_solve(bd, rhs) == _dense_solve(bd, rhs)


def test_mmul_multiplies_only_nonzero_pairs():
    # A dense product would form every x*y; the kernel forms only the
    # products of nonzero pairs, here of a block-diagonal plant and a
    # routing-like pattern with one nonzero per column.
    products = []

    class Counting(Fraction):
        def __mul__(self, other):
            products.append(1)
            return Fraction.__mul__(self, other)

        __rmul__ = __mul__

    rng = random.Random(8)
    dense_blocks = [_random_sparse(rng, 3, 3, 1.0) for _ in range(3)]
    plant = [[Counting(x) for x in row] for row in ex.block_diag(dense_blocks)]
    pattern = [[Counting(0)] * 6 for _ in range(9)]
    for j in range(6):
        pattern[rng.randrange(9)][j] = Counting(rng.randint(1, 5))
    nonzero_pairs = sum(1 for i in range(9) for k in range(9) for j in range(6)
                        if plant[i][k] and pattern[k][j])
    product = ex.mmul(plant, pattern)
    assert len(products) == nonzero_pairs == 18
    assert product == _dense_mmul(plant, pattern)
