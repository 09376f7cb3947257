import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import exactla as ex
from netctrl.exactla import Poly
from netctrl.model import NdsModel, StructuredPattern, SubsystemModel
from netctrl.ratfun import mode_data, nds_tfms, resolvent, spectrum, subsystem_tfms


def test_resolvent_scalar_zero():
    n, d = resolvent(ex.mat([[0]]))
    assert d == Poly([0, 1])
    assert n[0][0] == Poly([1])


def test_resolvent_two_state_diagonal():
    n, d = resolvent(ex.mat([[0, 0], [0, -1]]))
    assert d == Poly([0, 1, 1])          # lambda^2 + lambda
    assert n[0][0] == Poly([1, 1])       # lambda + 1
    assert n[1][1] == Poly([0, 1])       # lambda
    assert n[0][1].is_zero() and n[1][0].is_zero()


def test_resolvent_matches_numeric_inverse():
    rng = random.Random(3)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    n, d = resolvent(a)
    af = ex.to_float(a)
    for _ in range(5):
        lam = rng.uniform(4.0, 8.0)  # away from the eigenvalues of a small matrix
        inv = np.linalg.inv(lam * np.eye(4) - af)
        dv = d(lam)
        for i in range(4):
            for j in range(4):
                assert n[i][j](lam) / dv == pytest.approx(inv[i, j], abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_resolvent_polynomial_identity(n_dim, data):
    a = [[Fraction(data.draw(st.integers(-3, 3))) for _ in range(n_dim)]
         for _ in range(n_dim)]
    nmat, d = resolvent(a)
    # N(lambda) (lambda I - a) == d(lambda) I as exact polynomial matrices
    lam = Poly([0, 1])
    for i in range(n_dim):
        for j in range(n_dim):
            acc = Poly()
            for k in range(n_dim):
                rhs = (lam if k == j else Poly()) - Poly([a[k][j]])
                acc = acc + nmat[i][k] * rhs
            assert acc == (d if i == j else Poly())
    assert d.monic()
    assert all(nmat[i][j].degree < d.degree for i in range(n_dim) for j in range(n_dim))


def _classes_kinds(classes):
    return [[c.kind for c in row] for row in classes]


def test_sec7_subsystem1_classes(sec7):
    t = subsystem_tfms(sec7.analysis[0])
    assert _classes_kinds(t.gzv_classes) == [["zero", "constant"], ["lambda", "zero"]]
    assert t.gzv_classes[0][1].value == Fraction(1)
    assert _classes_kinds(t.gzu_classes) == [["zero"], ["lambda"]]
    # the frequency-dependent entry is 1/lambda + 1/(lambda+1)
    val = t.gzv.eval(2.0)[1, 0]
    assert val == pytest.approx(1 / 2 + 1 / 3)
    val_u = t.gzu.eval(5.0)[1, 0]
    assert val_u == pytest.approx(1 / 5)


def test_sec7_subsystem2_external_transfer_vanishes(sec7):
    t = subsystem_tfms(sec7.analysis[1])
    assert all(c.kind == "zero" for row in t.gzu_classes for c in row)
    assert _classes_kinds(t.gzv_classes) == [["lambda", "zero"]]


def test_zero_state_coupling_gives_constants():
    sub = SubsystemModel(
        A_xx0=ex.mat([[1, 0], [0, 2]]), A_xv0=ex.mat([[1], [1]]),
        B_xu0=ex.mat([[1], [0]]), A_zx0=ex.mat([[0, 0]]),
        A_zv0=ex.mat([[7]]), B_zu0=ex.mat([[0]]))
    t = subsystem_tfms(NdsModel([sub], StructuredPattern(1, 1, {})).analysis[0])
    assert _classes_kinds(t.gzv_classes) == [["constant"]]
    assert t.gzv_classes[0][0].value == Fraction(7)
    assert _classes_kinds(t.gzu_classes) == [["zero"]]


def test_entry_class_stable_under_evaluation(sec7):
    rng = random.Random(9)
    for aug, t in zip(sec7.analysis, nds_tfms(sec7)):
        eigs = np.linalg.eigvals(ex.to_float(aug.A_xx))
        points = []
        while len(points) < 3:
            x = rng.uniform(2.5, 9.0)
            if all(abs(x - e) > 1e-3 for e in eigs):
                points.append(x)
        vals = [t.gzv.eval(x) for x in points]
        r, c = t.gzv.shape
        for q in range(r):
            for p in range(c):
                samples = [v[q, p] for v in vals]
                constantish = max(abs(s - samples[0]) for s in samples) < 1e-9
                assert constantish == (not t.gzv_classes[q][p].is_lambda)


def test_spectrum_sec7(sec7):
    spec = spectrum(sec7)
    assert spec.m == 3
    assert [complex(v) for v in spec.values] == [1 + 0j, 0j, -1 + 0j]
    assert spec.unstable() == [1 + 0j, 0j]
    # membership: 1 belongs to subsystems 2 and 3, 0 to 1 and 2, -1 to 1 and 3
    assert spec.members[0] == {1, 2}
    assert spec.members[1] == {0, 1}
    assert spec.members[2] == {0, 2}


def test_spectrum_single_zero_matrix():
    sub = SubsystemModel(
        A_xx0=ex.zeros(2, 2), A_xv0=ex.mat([[1], [0]]), B_xu0=ex.mat([[1], [0]]),
        A_zx0=ex.mat([[1, 0]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    spec = spectrum(NdsModel([sub], StructuredPattern(1, 1, {})))
    assert spec.values == [0j]


def test_spectrum_clusters_close_values():
    def diag_sub(value):
        return SubsystemModel(
            A_xx0=[[value]], A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
            A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    subs = [diag_sub(Fraction(2)), diag_sub(Fraction(2) + Fraction(1, 10 ** 12))]
    spec = spectrum(NdsModel(subs, StructuredPattern(2, 2, {})), tol=1e-6)
    assert spec.m == 1
    assert spec.members[0] == {0, 1}


def test_mode_data_sec7_targets(sec7):
    md1 = mode_data(sec7, 1.0)
    assert [s.m_r for s in md1.per_sub] == [1, 1, 2]
    assert md1.M_r == 4
    assert md1.per_sub[1].m_r > 0  # eigenvalue 1 is uncontrollable in subsystem 2
    md0 = mode_data(sec7, 0.0)
    assert md0.M_r == 4
    mdm1 = mode_data(sec7, -1.0)
    assert mdm1.M_r == 5
    assert md1.pbh_deficiency == 2 and md0.pbh_deficiency == 1


def test_mode_data_full_row_rank_contributes_nothing():
    # wide mode matrix (more inputs than outputs) keeps full row rank away
    # from eigenvalues
    sub = SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[1]]))
    nds = NdsModel([sub], StructuredPattern(1, 1, {}))
    md = mode_data(nds, 5.0)
    assert md.M_r == 0
    assert md.z_all.shape == (0, 1)


def test_mode_data_residuals_random():
    rng = random.Random(17)
    for trial in range(20):
        n = 5
        sub = SubsystemModel(
            A_xx0=[[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
            A_xv0=[[Fraction(rng.randint(-2, 2))] for _ in range(n)],
            B_xu0=[[Fraction(rng.randint(-1, 1))] for _ in range(n)],
            A_zx0=[[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(2)],
            A_zv0=[[Fraction(0)] for _ in range(2)],
            B_zu0=[[Fraction(0)] for _ in range(2)])
        nds = NdsModel([sub], StructuredPattern(1, 2, {}))
        spec = spectrum(nds)
        aug = nds.analysis[0]
        for lam in spec.values:
            md = mode_data(nds, lam)
            sd = md.per_sub[0]
            lam_c = complex(lam)
            m = np.vstack([
                np.hstack([lam_c * np.eye(n) - ex.to_float(aug.A_xx),
                           ex.to_float(aug.B_xu)]),
                np.hstack([-ex.to_float(aug.A_zx), ex.to_float(aug.B_zu)])])
            basis = np.hstack([sd.t, sd.z])
            if basis.size:
                resid = np.abs(basis @ m).max()
                assert resid <= 1e-9 * max(1.0, np.abs(m).max())


def test_mode_data_rank_identity_sec7(sec7):
    # per-subsystem: m_r - rank(Z block) equals the state-rows deficiency
    for lam in spectrum(sec7).values:
        md = mode_data(sec7, lam)
        for aug, sd in zip(sec7.analysis, md.per_sub):
            z_rank = ex.float_rank(sd.z, 1e-9)
            assert sd.m_r - z_rank == sd.pbh_deficiency
