import random
from fractions import Fraction

import numpy as np
import pytest

from netctrl import exactla as ex

import oracles
from oracles import (_dense_mmul, _dense_rank_det, _dense_solve, kalman_uncontrollable_polynomial,
                     transpose)


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
    with pytest.raises(ex.SingularMatrixError):
        ex.exact_solve(ex.mat([[1, 1], [1, 1]]), ex.mat([[1], [0]]))
    # the missing pivot is column 0, and [a | b] still has two pivots (1 and
    # 2): the pivot list rejects it before back-substitution divides
    with pytest.raises(ex.SingularMatrixError, match="singular system"):
        ex.exact_solve(ex.mat([[0, 1], [0, 1]]), ex.mat([[1], [0]]))
    assert issubclass(ex.SingularMatrixError, ZeroDivisionError)


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
                assert ex.mmul(bd, transpose(bd)) == _dense_mmul(bd, transpose(bd))


def test_mmul_keeps_integer_rows_integral():
    rng = random.Random(5)
    for density in DENSITIES:
        for _ in range(30):
            r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a = ex.int_rows(_random_sparse(rng, r, k, density))[0]
            b = ex.int_rows(_random_sparse(rng, k, c, density))[0]
            product = ex.mmul(a, b)
            assert all(type(x) is int for row in product for x in row)
            assert product == _dense_mmul(a, b)


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


MIXED = [Fraction(1, 7), Fraction(5, 14), Fraction(3, 2), Fraction(-2, 7), Fraction(1),
         Fraction(-3), Fraction(7, 2)]


def _mixed(rng, rows, cols, density):
    """Entries whose denominators differ within a row: 1/7, 5/14, 3/2, ..."""
    return [[rng.choice(MIXED) * rng.randint(1, 3) if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def test_mixed_denominators_match_dense_reference():
    # every row is scaled by the lcm of its denominators (14 here) before the
    # integer elimination; rank, det and solve must not see the scaling
    assert ex.int_rows(ex.mat([["1/7", "5/14", "3/2"]])) == ([[2, 5, 21]], [14])
    rng = random.Random(11)
    for n in list(range(1, 17)) * 3:
        density = rng.choice(DENSITIES + (1.0,))
        m = _mixed(rng, n, rng.randint(1, 16), density)
        assert ex.exact_rank(m) == _dense_rank_det(m)[0]
        sq = _mixed(rng, n, n, density)
        assert ex.exact_det(sq) == _dense_rank_det(sq)[1]
        a = [[x + y for x, y in zip(ra, rb)]
             for ra, rb in zip(_random_invertible(rng, n, density), _mixed(rng, n, n, 0.3))]
        b = _mixed(rng, n, rng.randint(1, 3), 0.5)
        if _dense_rank_det(a)[0] == n:
            assert ex.exact_solve(a, b) == _dense_solve(a, b)
        else:
            with pytest.raises(ex.SingularMatrixError):
                ex.exact_solve(a, b)


def test_rank_deficient_rectangular_with_skipped_pivot_columns():
    # m = left @ right with right of rank <= k: some columns are zero or
    # copies of earlier ones, so the elimination finds no pivot there and its
    # exact // division carries over the skipped column
    rng = random.Random(12)
    skipped = 0
    for _ in range(120):
        r, c = rng.randint(1, 16), rng.randint(1, 16)
        k = rng.randint(0, min(r, c))
        left = _mixed(rng, r, k, 0.7)
        right = _mixed(rng, k, c, 0.7)
        for j in range(1, c):
            if rng.random() < 0.3:  # column j repeats a multiple of column j - 1
                f = rng.choice(MIXED)
                for row in right:
                    row[j] = f * row[j - 1]
        m = _dense_mmul(left, right) if k else ex.zeros(r, c)
        rank = _dense_rank_det(m)[0]
        assert ex.exact_rank(m) == rank <= k
        cols = ex._eliminate(ex.int_rows(m)[0])[0]
        skipped += cols != list(range(rank))
        if r == c:
            assert ex.exact_det(m) == _dense_rank_det(m)[1]
    assert skipped >= 30


def test_det_sign_after_row_swaps():
    # permuted diagonal matrices: det = sign(perm) * product of the diagonal
    rng = random.Random(13)
    for n in range(1, 17):
        perm = list(range(n))
        rng.shuffle(perm)
        diag = [rng.choice(MIXED) for _ in range(n)]
        m = ex.zeros(n, n)
        for i, j in enumerate(perm):
            m[i][j] = diag[i]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        want = (-1) ** inversions
        for x in diag:
            want *= x
        assert ex.exact_det(m) == want == _dense_rank_det(m)[1]
    # one swap
    assert ex.exact_det(ex.mat([[0, 1], [1, 0]])) == -1
    assert ex.exact_det(ex.mat([[0, "-3/2"], [2, 5]])) == 3
    # no swap and a negative last pivot (1*4 - 3*2 = -2), unscaled and scaled by 2
    assert ex.exact_det(ex.mat([[1, 2], [3, 4]])) == -2
    assert ex.exact_det(ex.mat([["1/2", 1], ["3/2", 2]])) == Fraction(-1, 2)
    # two swaps (a cyclic shift), and one swap times a negative pivot
    assert ex.exact_det(ex.mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert ex.exact_det(ex.mat([[0, 0, -1], [0, 1, 0], [1, 0, 0]])) == 1


def test_to_float_values_and_shape():
    m = _mixed(random.Random(14), 4, 5, 0.6)
    got = ex.to_float(m)
    assert got.shape == (4, 5) and got.dtype == float
    assert got.tolist() == [[float(x) for x in row] for row in m]
    assert ex.to_float([]).shape == (0, 0)
    assert ex.to_float(ex.zeros(3, 0)).shape == (3, 0)
    assert ex.to_float(ex.zeros(0, 3)).shape == (0, 0)


def _kalman_rank(a, b):
    """Exact rank of [b  a b ... a^(n-1) b], by the dense reference loops."""
    n = len(a)
    blocks, power = [], b
    for _ in range(n):
        blocks.append(power)
        power = _dense_mmul(a, power)
    return _dense_rank_det(ex.hstack(blocks))[0] if n and b and b[0] else 0


def _residues(m, p=ex.PRIME):
    return np.array([[int(x) % p for x in row] for row in m], np.int64).reshape(ex.shape(m))


def _unimodular(rng, n):
    """An integer matrix with an integer inverse: unit lower times unit upper."""
    lower = [[Fraction(rng.randint(-2, 2)) if j < i else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    t = _dense_mmul(lower, upper)
    return t, _dense_solve(t, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def _planted(rng, n, m):
    """(a, b) with a planted a-invariant subspace of dimension k < n holding
    b's columns, in integer coordinates: t [[a11 a12] [0 a22]] t^-1, t [b1; 0]."""
    k = rng.randint(0, n - 1)
    a = _random_int_matrix(rng, n, n, span=3)
    b = _random_int_matrix(rng, n, m, span=3)
    for i in range(k, n):
        a[i][:k] = [Fraction(0)] * k
        b[i] = [Fraction(0)] * m
    t, t_inv = _unimodular(rng, n)
    return _dense_mmul(_dense_mmul(t, a), t_inv), _dense_mmul(t, b)


def _spans(a, b, p=ex.PRIME):
    """Whether the Krylov span of b under a is all of F_p^n."""
    basis, pivots = ex.krylov_spans_mod(a, b, p)
    assert basis.shape == (len(pivots), a.shape[0])
    return len(pivots) == a.shape[0]


def test_krylov_rank_mod_p_matches_exact_kalman_rank():
    rng = random.Random(20)
    seen = {True: 0, False: 0}
    for trial in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(1, 3)
        if trial % 3 == 2:
            a, b = _planted(rng, n, m)
        else:
            a = _random_sparse(rng, n, n, rng.choice(DENSITIES))
            a = [[Fraction(x.numerator) for x in row] for row in a]
            b = _random_int_matrix(rng, n, m, span=2)
        want = _kalman_rank(a, b) == n
        assert _spans(_residues(a), _residues(b)) == want, f"trial {trial}"
        seen[want] += 1
    assert min(seen.values()) >= 40


def test_krylov_rank_mod_p_zero_dimensions():
    empty = np.zeros((0, 0), np.int64)
    # n = 0: the zero space is spanned, with or without inputs
    assert _spans(empty, np.zeros((0, 2), np.int64))
    assert _spans(empty, np.zeros((0, 0), np.int64))
    # m = 0: no input spans nothing, as the exact rank of an empty Kalman matrix says
    rng = random.Random(21)
    for n in range(1, 5):
        a = _random_int_matrix(rng, n, n)
        assert _kalman_rank(a, ex.zeros(n, 0)) == 0
        assert not _spans(_residues(a), np.zeros((n, 0), np.int64))


def test_krylov_rank_mod_p_is_one_sided():
    # b = [7] is controllable over the rationals, but vanishes mod 7
    a, b = np.array([[3]], np.int64), np.array([[7]], np.int64)
    assert _spans(a, b % 7, 7) is False
    assert _spans(a, b % 11, 11) is True


def test_mod_matmul_chunks_a_long_inner_dimension():
    p = ex.PRIME
    rng = np.random.default_rng(22)
    for inner in (0, 1, 2047, 2048, 5000):
        a = rng.integers(0, p, (3, inner), dtype=np.int64)
        b = rng.integers(0, p, (inner, 4), dtype=np.int64)
        want = [[sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p for j in range(4)]
                for i in range(3)]
        assert ex.mod_matmul(a, b).tolist() == want, inner
    # the largest residues: one unchunked int64 sum of 5000 such products overflows
    top = np.full((2, 5000), p - 1, np.int64)
    assert ex.mod_matmul(top, top.T).tolist() == [[5000 * (p - 1) ** 2 % p] * 2] * 2


def test_mod_rows_reduces_rows_over_denominators():
    # integer rows over per-row denominators, as `int_rows` returns them,
    # reduce through `mod_matrix` to the same residues as row / denominator
    p = 13

    def mod_rows(rows, dens):
        return ex.mod_matrix([[Fraction(x, d) for x in row] for row, d in zip(rows, dens)], p)

    got = mod_rows([[3, -1, 0], [0, 0, 0], [26, 5, 1]], [2, 13, 4])
    # 3/2, -1/2; a zero row needs no inverse; 26/4, 5/4, 1/4
    inv2, inv4 = pow(2, -1, p), pow(4, -1, p)
    assert got.tolist() == [[3 * inv2 % p, -inv2 % p, 0], [0, 0, 0],
                            [0, 5 * inv4 % p, inv4]]
    assert mod_rows([[1, 2]], [26]) is None
    assert mod_rows([], []).shape == (0, 0)
    m = ex.mat([["3/2", "-1/2", 0], [0, 0, 0], ["13/2", "5/4", "1/4"]])
    rows, dens = ex.int_rows(m)
    assert mod_rows(rows, dens).tolist() == got.tolist() == ex.mod_matrix(m, p).tolist()


def _mod_fraction(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


def test_solve_mod_matches_exact_solve():
    rng = random.Random(23)
    p = 10007
    solved = singular = 0
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(0, 3)
        a = _random_sparse(rng, n, n, rng.choice(DENSITIES + (0.8,)))
        for i in range(n):  # mostly identity plus sparse terms, as a loop I - h p
            a[i][i] += rng.choice([0, 1])
        a = [[Fraction(x.numerator) for x in row] for row in a]
        b = _random_int_matrix(rng, n, k)
        rank, det = _dense_rank_det(a)
        got = ex.solve_mod(_residues(a, p), _residues(b, p), p)
        if det % p == 0:
            singular += 1
            assert got is None
        else:
            solved += 1
            want = _dense_solve(a, b)
            assert got.tolist() == [[_mod_fraction(x, p) for x in row] for row in want]
    assert solved >= 60 and singular >= 40


def test_uncontrollable_charpoly_mod_matches_kalman_decomposition():
    rng = random.Random(24)
    p = ex.PRIME
    degrees = set()
    for trial in range(120):
        n, m = rng.randint(1, 6), rng.randint(0, 2)
        if trial % 2:
            a, b = _planted(rng, n, max(m, 1))
        else:
            a, b = _random_int_matrix(rng, n, n, span=2), _random_int_matrix(rng, n, m, span=1)
        want = kalman_uncontrollable_polynomial(a, b)
        b_res = _residues(b, p) if m or trial % 2 else np.zeros((n, 0), np.int64)
        a_res = _residues(a, p)
        basis, pivots = ex.krylov_spans_mod(a_res, b_res, p)
        rank, coeffs = len(pivots), ex.uncontrollable_charpoly_mod(a_res, basis, pivots, p)
        assert rank == n + 1 - len(want)
        assert coeffs == [_mod_fraction(x, p) for x in want], f"trial {trial}"
        degrees.add(len(want) - 1)
    assert {0, 1, 2, 3} <= degrees
    # no input: the whole characteristic polynomial
    a = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    basis, pivots = ex.krylov_spans_mod(_residues(a), np.zeros((2, 0), np.int64))
    assert pivots == []
    assert ex.uncontrollable_charpoly_mod(_residues(a), basis, pivots) == [6, ex.PRIME - 5, 1]
    assert ex.charpoly_mod(np.zeros((0, 0), np.int64)) == [1]


def test_krylov_basis_is_reduced_echelon():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b = _planted(rng, n, rng.randint(1, 2))
        basis, pivots = ex.krylov_spans_mod(_residues(a), _residues(b))
        assert len(pivots) == _kalman_rank(a, b)
        assert basis[:, pivots].tolist() == np.eye(len(pivots), dtype=int).tolist()


def _random_residues(rng, rows, cols, p, density):
    return np.array([[rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(cols)] for _ in range(rows)], np.int64).reshape(rows, cols)


@pytest.mark.parametrize("p", [101, ex.PRIME])
def test_krylov_spans_mod_matches_row_by_row_reference(p):
    # one work array per round gives the reference's basis and pivots, on
    # full-rank and rank-deficient pairs, b without columns, n = 0 and n = 1;
    # neither input is written
    rng = random.Random(27)
    seen = {"full": 0, "deficient": 0, "no input": 0, "n = 0": 0, "n = 1": 0}
    for trial in range(300):
        n = trial % 3 if trial < 30 else rng.randint(2, 8)
        m = rng.randint(0, 3)
        if trial % 3 == 2 and n:  # b inside a planted a-invariant subspace
            a, b = _planted(rng, n, max(m, 1))
            a, b = _residues(a, p), _residues(b, p)
        else:
            density = rng.choice([0.2, 0.5, 1.0])
            a, b = _random_residues(rng, n, n, p, density), _random_residues(rng, n, m, p, density)
        a_in, b_in = a.copy(), b.copy()
        basis, pivots = ex.krylov_spans_mod(a, b, p)
        want_basis, want_pivots = oracles.krylov_spans_mod(a_in.copy(), b_in.copy(), p)
        assert pivots == want_pivots, f"trial {trial}"
        assert basis.shape == want_basis.shape and basis.tolist() == want_basis.tolist()
        assert a.tolist() == a_in.tolist() and b.tolist() == b_in.tolist()
        seen["full" if len(pivots) == n else "deficient"] += 1
        seen["no input"] += not b.shape[1]
        seen["n = 0"] += n == 0
        seen["n = 1"] += n == 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("p", [101, ex.PRIME])
def test_solve_mod_matches_row_by_row_reference(p):
    # one update per pivot over the rows holding its column gives the
    # reference's solution, and None on the same singular systems, also
    # for b without columns and n = 0 or 1; neither input is written
    rng = random.Random(28)
    seen = {"solved": 0, "singular": 0, "no columns": 0, "n = 0": 0, "n = 1": 0}
    for trial in range(300):
        n = trial % 3 if trial < 30 else rng.randint(2, 7)
        k = rng.randint(0, 3)
        a = _random_residues(rng, n, n, p, rng.choice([0.2, 0.5, 1.0]))
        if trial % 2:  # mostly identity plus sparse terms, as a loop I - h p
            a = (a + np.eye(n, dtype=np.int64)) % p
        if trial % 5 == 4 and n:  # a row that repeats a multiple of another
            r, s = rng.randrange(n), rng.randrange(n)
            a[r] = a[s] * rng.randrange(p) % p if r != s else 0
        b = _random_residues(rng, n, k, p, 0.7)
        a_in, b_in = a.copy(), b.copy()
        got = ex.solve_mod(a, b, p)
        want = oracles.solve_mod(a_in.copy(), b_in.copy(), p)
        assert a.tolist() == a_in.tolist() and b.tolist() == b_in.tolist()
        if want is None:
            seen["singular"] += 1
            assert got is None, f"trial {trial}"
        else:
            seen["solved"] += 1
            assert got.shape == want.shape and got.tolist() == want.tolist(), f"trial {trial}"
        seen["no columns"] += not k
        seen["n = 0"] += n == 0
        seen["n = 1"] += n == 1
    assert min(seen.values()) >= 10, seen


def test_mod_matrix_reduces_rational_entries():
    p = 13
    m = ex.mat([[3, "-1/2", 0], [0, 0, 0], ["27/4", "5/4", -27]])
    inv2, inv4 = pow(2, -1, p), pow(4, -1, p)
    got = ex.mod_matrix(m, p)
    # a zero entry needs no inverse
    assert got.dtype == np.int64 and got.tolist() == [
        [3, -inv2 % p, 0], [0, 0, 0], [27 * inv4 % p, 5 * inv4 % p, -27 % p]]
    assert ex.mod_matrix(ex.mat([[1, "2/13"]]), p) is None
    assert ex.mod_matrix(ex.mat([[1, 2], [0, "1/26"]]), p) is None
    assert ex.mod_matrix(ex.mat([[0, "13/2"]]), p).tolist() == [[0, 0]]
    assert ex.mod_matrix([], p).shape == (0, 0)
    assert ex.mod_matrix([[], []], p).shape == (2, 0)


def test_rational_reconstruction_round_trip():
    rng = random.Random(26)
    modulus = ex.PRIME * ex.prev_prime(ex.PRIME)
    bound = int((modulus // 2) ** 0.5)
    for _ in range(300):
        den = rng.randint(1, 10 ** rng.randint(0, 7))
        x = Fraction(rng.randint(-10 ** rng.randint(0, 7), 10 ** 7), den)
        got = ex.rational_reconstruction(_mod_fraction(x, modulus), modulus)
        if abs(x.numerator) <= bound and x.denominator <= bound:
            assert got == x
    # one prime cannot hold 1/2003756; two can
    assert ex.rational_reconstruction(_mod_fraction(Fraction(1, 2003756), ex.PRIME),
                                      ex.PRIME) != Fraction(1, 2003756)
    assert ex.rational_reconstruction(_mod_fraction(Fraction(1, 2003756), modulus),
                                      modulus) == Fraction(1, 2003756)


def test_prev_prime():
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, int(q ** 0.5) + 1))

    last = 2
    for q in range(3, 3000):
        assert ex.prev_prime(q) == last
        if is_prime(q):
            last = q
    assert ex.prev_prime(ex.PRIME) == 67108837 and is_prime(67108837)
    assert ex.prev_prime(2 ** 26) == ex.PRIME
    with pytest.raises(ValueError):
        ex.prev_prime(2)


def _expand(roots, rest):
    """The polynomial rest times each (x - r), constant term first."""
    c = list(rest)
    for r in roots:
        c = [Fraction(0)] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return c


def test_rational_roots_with_multiplicity():
    rng = random.Random(27)
    irreducible = [[1, 0, 1], [2, 0, 1], [1, 1, 1], [-2, 0, 0, 1]]  # no rational root
    for _ in range(150):
        roots = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))
                 for _ in range(rng.randint(0, 4))]
        roots += roots[:rng.randint(0, len(roots))]  # repeated roots
        rest = [Fraction(x) for x in rng.choice(irreducible + [[1]])]
        scale = Fraction(rng.choice([1, 3, -5]), rng.choice([1, 2, 9]))
        c = [x * scale for x in _expand(roots, rest)]
        got, left = ex.rational_roots(c)
        assert sorted(got) == sorted(roots)
        assert [x / left[-1] for x in left] == rest
        assert _expand(got, left) == c
    # sec7's draw: lambda (2003756 lambda + 1) / 2003756
    assert ex.rational_roots([0, Fraction(1, 2003756), 1]) == (
        [0, Fraction(-1, 2003756)], [1])
    # a constant term with a cofactor trial division cannot settle keeps its factor
    big = 2 ** 61 - 1  # prime, beyond the trial-division bound squared
    c = _expand([Fraction(1, 2)], [big * big, 0, 1])
    assert ex.rational_roots(c) == ([], c)
