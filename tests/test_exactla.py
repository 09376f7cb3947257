import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import exactla as ex
from netctrl.exactla import Poly


def _random_int_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


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
        assert ex.mmul(a, x) == b


def test_exact_solve_singular():
    with pytest.raises(ZeroDivisionError):
        ex.exact_solve(ex.mat([[1, 1], [1, 1]]), ex.mat([[1], [0]]))


def test_block_helpers():
    a = ex.mat([[1, 2], [3, 4]])
    b = ex.mat([[5], [6]])
    assert ex.hstack([a, b]) == ex.mat([[1, 2, 5], [3, 4, 6]])
    assert ex.vstack([a, ex.mat([[7, 8]])]) == ex.mat([[1, 2], [3, 4], [7, 8]])
    bd = ex.block_diag([a, ex.mat([[9]])])
    assert bd == ex.mat([[1, 2, 0], [3, 4, 0], [0, 0, 9]])
    assert ex.shape(ex.zeros(3, 0)) == (3, 0)
    # zero-width blocks lose their column count; the product stays empty
    assert ex.mmul(ex.zeros(3, 0), ex.zeros(0, 2)) == ex.zeros(3, 0)


coeff_lists = st.lists(st.integers(-5, 5), max_size=6)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(-4, 4))
def test_poly_ring_laws(a, b, x):
    pa, pb = Poly(a), Poly(b)
    xf = Fraction(x)
    assert (pa + pb)(xf) == pa(xf) + pb(xf)
    assert (pa * pb)(xf) == pa(xf) * pb(xf)
    assert (pa - pa).is_zero()


def test_poly_trim_and_degree():
    assert Poly([0, 0]).is_zero()
    assert Poly([1, 2, 0]).degree == 1
    assert Poly([]).degree == -1
    p = Poly([1, 1])  # 1 + x
    assert p.shift(2).c == [Fraction(0)] * 2 + [Fraction(1), Fraction(1)]
    assert Poly([0, 0, 1]).monic()


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
