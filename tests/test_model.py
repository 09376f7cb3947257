import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import exactla as ex
from netctrl.model import (ModelError, NdsModel, StructuredPattern, SubsystemModel,
                           analysis_form, assemble_lumped, check_well_posedness,
                           diagonalize_parameters)


def _pattern(rows, cols, positions, prefix="s"):
    return StructuredPattern(rows, cols,
                             {(r, c): f"{prefix}_{r}_{c}" for r, c in positions})


def test_pattern_validation():
    with pytest.raises(ModelError):
        StructuredPattern(2, 2, {(2, 0): "a"})
    p = _pattern(2, 3, [(0, 1), (1, 2)])
    assert p.num_free == 2
    assert p.positions() == [(0, 1), (1, 2)]
    vals = p.substitute({"s_0_1": Fraction(3), "s_1_2": Fraction(1, 2)})
    assert vals == ex.mat([[0, 3, 0], [0, 0, "1/2"]])


def test_augment_without_block_is_identity(sec7):
    sub = sec7.subsystems[0]
    aug = analysis_form(sub)
    assert aug.A_xx == sub.A_xx0
    assert aug.A_xv == sub.A_xv0
    assert aug.B_xu == sub.B_xu0
    assert aug.A_zx == sub.A_zx0
    assert aug.A_zv == sub.A_zv0
    assert aug.B_zu == sub.B_zu0
    assert (aug.m_v, aug.m_z) == (2, 2)


def _one_state_sub(e1, f1, h, e2=0, f2=0, f3=0):
    return SubsystemModel(
        A_xx0=ex.mat([[2]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[3]]), A_zv0=ex.mat([[4]]), B_zu0=ex.mat([[5]]),
        E1=ex.mat([[e1]]), E2=ex.mat([[e2]]),
        F1=ex.mat([[f1]]), F2=ex.mat([[f2]]), F3=ex.mat([[f3]]),
        H=ex.mat([[h]]),
        param_block=_pattern(1, 1, [(0, 0)], "p"))


def test_augment_zero_block_pads_with_zeros():
    aug = analysis_form(_one_state_sub(0, 0, 0))
    assert aug.A_zv == ex.mat([[4, 0], [0, 0]])
    assert aug.A_xv == ex.mat([[1, 0]])
    assert aug.A_zx == ex.mat([[3], [0]])
    assert (aug.m_v, aug.m_z) == (2, 2)


def test_augment_hand_expanded_blocks():
    aug = analysis_form(_one_state_sub(1, 1, 0, e2=6, f2=7, f3=8))
    assert aug.A_xv == ex.mat([[1, 1]])
    assert aug.A_zx == ex.mat([[3], [1]])
    assert aug.A_zv == ex.mat([[4, 6], [7, 0]])
    assert aug.B_zu == ex.mat([[5], [8]])
    assert aug.A_xx == ex.mat([[2]])


def test_analysis_form_closes_fixed_block():
    sub = _one_state_sub(1, 1, 0)
    fixed = dataclasses.replace(sub, param_block=ex.mat([["1/3"]]))
    closed = analysis_form(fixed)
    # A_xx = 2 + E1 * p/(1 - H p) * F1 with p = 1/3, H = 0
    assert closed.A_xx == ex.mat([["7/3"]])
    assert closed.m_v == 1 and closed.m_z == 1


def _reference_closed_blocks(sub):
    """The six closed blocks from K = P (I - H P)^-1, solved against the
    transpose, with one correction per block row."""
    p = sub.param_block
    w = ex.msub(ex.eye(len(p[0])), ex.mmul(sub.H, p))
    k = ex.transpose(ex.exact_solve(ex.transpose(w), ex.transpose(p)))
    f_all = ex.hstack([sub.F1, sub.F2, sub.F3])
    top = ex.madd(ex.hstack([sub.A_xx0, sub.A_xv0, sub.B_xu0]),
                  ex.mmul(ex.mmul(sub.E1, k), f_all))
    mid = ex.madd(ex.hstack([sub.A_zx0, sub.A_zv0, sub.B_zu0]),
                  ex.mmul(ex.mmul(sub.E2, k), f_all))
    mx, mv = sub.m_x, sub.m_v0
    cuts = [range(mx), range(mx, mx + mv), range(mx + mv, len(f_all[0]))]
    return [ex.submatrix(m, None, cols) for m in (top, mid) for cols in cuts]


def _random_fixed_block_sub(rng, pr, pc):
    mx, mv, mu, mz = 2, 2, 1, 2

    def rand(r, c):
        return ex.mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])

    return SubsystemModel(
        A_xx0=rand(mx, mx), A_xv0=rand(mx, mv), B_xu0=rand(mx, mu),
        A_zx0=rand(mz, mx), A_zv0=rand(mz, mv), B_zu0=rand(mz, mu),
        E1=rand(mx, pr), E2=rand(mz, pr), F1=rand(pc, mx), F2=rand(pc, mv),
        F3=rand(pc, mu), H=rand(pc, pr),
        param_block=ex.mat([[f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
                             for _ in range(pc)] for _ in range(pr)]))


def test_closed_block_matches_scalar_formula():
    rng = random.Random(5)
    for _ in range(20):
        e1, f1, h = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        p = Fraction(rng.randint(-3, 3))
        if 1 - h * p == 0:
            continue
        sub = _one_state_sub(e1, f1, h)
        fixed = dataclasses.replace(sub, param_block=[[p]])
        closed = analysis_form(fixed)
        assert closed.A_xx[0][0] == 2 + e1 * p / (1 - h * p) * f1
    # matrix blocks against the transposed-solve formula
    checked = 0
    for pr, pc in [(2, 2), (3, 2)] * 15:
        try:
            sub = _random_fixed_block_sub(rng, pr, pc)
        except ModelError:  # I - H P singular
            continue
        closed = analysis_form(sub)
        assert [closed.A_xx, closed.A_xv, closed.B_xu, closed.A_zx, closed.A_zv,
                closed.B_zu] == _reference_closed_blocks(sub)
        checked += 1
    assert checked >= 20


def test_ill_posed_fixed_block_rejected():
    sub = _one_state_sub(1, 1, 1)
    with pytest.raises(ModelError):
        dataclasses.replace(sub, param_block=ex.mat([[1]]))


def test_assemble_lumped_sec7(sec7):
    plant = assemble_lumped(sec7)
    assert ex.shape(plant.A_xx) == (6, 6)
    assert ex.shape(plant.A_zv) == (5, 6)
    assert (plant.P_pattern.rows, plant.P_pattern.cols) == (6, 5)
    assert plant.P_pattern.num_free == 5
    # block-diagonal: the off-diagonal state couplings are all zero
    assert plant.A_xx[0][2:] == [Fraction(0)] * 4
    assert plant.A_xx[5][:4] == [Fraction(0)] * 4


def test_assemble_lumped_single_subsystem_identity(sec7):
    sub = sec7.subsystems[0]
    nds = NdsModel([sub], _pattern(2, 2, []))
    plant = assemble_lumped(nds)
    aug = analysis_form(sub)
    assert plant.A_xx == aug.A_xx
    assert plant.A_zv == aug.A_zv
    assert plant.P_pattern.num_free == 0


def test_assemble_lumped_two_subsystem_offdiagonal(sec7):
    s1, s2 = sec7.subsystems[0], sec7.subsystems[1]
    # full routing: every position free
    mv, mz = s1.m_v0 + s2.m_v0, s1.m_z0 + s2.m_z0
    full = _pattern(mv, mz, [(r, c) for r in range(mv) for c in range(mz)], "f")
    plant = assemble_lumped(NdsModel([s1, s2], full))
    # cross blocks present: subsystem 2 rows x subsystem 1 columns
    assert (2, 0) in plant.P_pattern.entries
    assert (0, 2) in plant.P_pattern.entries
    assert plant.P_pattern.num_free == mv * mz


def test_assemble_lumped_places_free_blocks():
    sub = _one_state_sub(1, 1, 0)
    nds = NdsModel([sub], _pattern(1, 1, [(0, 0)], "phi"))
    plant = assemble_lumped(nds)
    # routing entry in the original port corner, block entry on the auxiliary diagonal
    assert set(plant.P_pattern.entries) == {(0, 0), (1, 1)}


def test_diagonalize_sec7(sec7):
    pat = assemble_lumped(sec7).P_pattern
    u, k, v = diagonalize_parameters(pat)
    assert k == 5
    assert ex.shape(u) == (6, 5)
    assert ex.shape(v) == (5, 5)
    _assert_reconstructs(pat, u, v)


def test_diagonalize_single_entry():
    pat = _pattern(3, 4, [(1, 2)])
    u, k, v = diagonalize_parameters(pat)
    assert k == 1
    assert [row[0] for row in u] == [Fraction(0), Fraction(1), Fraction(0)]
    assert v[0] == [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]


def test_diagonalize_empty():
    u, k, v = diagonalize_parameters(_pattern(3, 2, []))
    assert k == 0
    assert ex.shape(u) == (3, 0)
    assert len(v) == 0


def _assert_reconstructs(pat, u, v):
    k = ex.shape(u)[1]
    recon = set()
    for l in range(k):
        r = next(i for i in range(pat.rows) if u[i][l] == 1)
        c = next(j for j in range(pat.cols) if v[l][j] == 1)
        recon.add((r, c))
    assert recon == set(pat.entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_diagonalize_roundtrip_property(rows, cols, data):
    n = data.draw(st.integers(0, rows * cols))
    cells = data.draw(st.permutations([(r, c) for r in range(rows)
                                       for c in range(cols)]))
    pat = _pattern(rows, cols, cells[:n])
    u, k, v = diagonalize_parameters(pat)
    assert k == n
    _assert_reconstructs(pat, u, v)


def test_globally_distinct_parameter_ids():
    sub = _one_state_sub(1, 1, 0)
    clash = StructuredPattern(1, 1, {(0, 0): "p_0_0"})
    with pytest.raises(ModelError):
        NdsModel([dataclasses.replace(sub, param_block=clash)],
                 StructuredPattern(1, 1, {(0, 0): "p_0_0"}))


def test_scm_dimension_check(sec7):
    with pytest.raises(ModelError):
        NdsModel(sec7.subsystems, _pattern(4, 5, []))


def test_well_posedness_sec7(sec7):
    verdict = check_well_posedness(sec7, trials=3, seed=0)
    assert verdict.well_posed
    assert verdict.trials == 1


def test_well_posedness_single_subsystem(sec7):
    sub = sec7.subsystems[1]
    nds = NdsModel([sub], _pattern(2, 1, [(0, 0), (1, 0)]))
    assert check_well_posedness(nds, trials=3, seed=1).well_posed


def test_well_posedness_requires_positive_trials(sec7):
    with pytest.raises(ValueError):
        check_well_posedness(sec7, trials=0)


def test_port_map_matches_brute_force():
    from randgen import random_nds
    with_blocks = 0
    for seed in range(40):
        nds = random_nds(seed, max_sub=5, lft_prob=0.6)
        with_blocks += any(s.has_free_params for s in nds.subsystems)
        for kind in "xuvz":
            widths = [getattr(a, f"m_{kind}") for a in nds.analysis]
            offsets = nds.offsets[kind]
            assert offsets == [sum(widths[:i]) for i in range(nds.n_sub + 1)]
            assert getattr(nds, f"M_{kind}") == sum(widths)
            ports = [(i, p) for i, w in enumerate(widths) for p in range(w)]
            assert [nds.locate(kind, g) for g in range(sum(widths))] == ports
            for g, (i, p) in enumerate(ports):
                assert offsets[i] + p == g
            for bad in (-1, sum(widths)):
                with pytest.raises(IndexError):
                    nds.locate(kind, bad)
    assert with_blocks >= 10
