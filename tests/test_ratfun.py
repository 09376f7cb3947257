import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import exactla as ex
from netctrl import ratfun
from netctrl.cli import load_document
from netctrl.data import sec7_path
from netctrl.model import NdsModel, StructuredPattern, SubsystemModel
from netctrl.ratfun import (EntryClass, SubsystemAnalysis, analysis_records,
                            entry_classes, filter_modes, mode_data, modes, nds_tfms,
                            owner_deficiencies, pbh_stack, spectrum)

from oracles import _dense_entry_classes, _loop_pbh_stack, eye, transpose
from randgen import random_nds, random_subsystem


def _classes_kinds(classes):
    return [[c.kind for c in row] for row in classes]


def test_sec7_subsystem1_classes(sec7):
    t = analysis_records([sec7.analysis[0]])[0].tfms
    assert _classes_kinds(t.gzv_classes) == [["zero", "constant"], ["lambda", "zero"]]
    assert t.gzv_classes[0][1].value == Fraction(1)
    assert _classes_kinds(t.gzu_classes) == [["zero"], ["lambda"]]


def test_sec7_subsystem2_external_transfer_vanishes(sec7):
    t = analysis_records([sec7.analysis[1]])[0].tfms
    assert all(c.kind == "zero" for row in t.gzu_classes for c in row)
    assert _classes_kinds(t.gzv_classes) == [["lambda", "zero"]]


def test_zero_state_coupling_gives_constants():
    sub = SubsystemModel(
        A_xx0=ex.mat([[1, 0], [0, 2]]), A_xv0=ex.mat([[1], [1]]),
        B_xu0=ex.mat([[1], [0]]), A_zx0=ex.mat([[0, 0]]),
        A_zv0=ex.mat([[7]]), B_zu0=ex.mat([[0]]))
    t = analysis_records(NdsModel([sub], StructuredPattern(1, 1, {})).analysis)[0].tfms
    assert _classes_kinds(t.gzv_classes) == [["constant"]]
    assert t.gzv_classes[0][0].value == Fraction(7)
    assert _classes_kinds(t.gzu_classes) == [["zero"]]


def test_entry_classes_read_markov_parameters_up_to_n():
    # a shift chain: C A^k B vanishes for k < n - 1, so only the last Markov
    # parameter shows the frequency dependence 1/lambda^n
    a = ex.mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    first, last = ex.mat([[1, 0, 0, 0]]), ex.mat([[0, 0, 0, 1]])
    d = ex.mat([[3]])
    assert _classes_kinds(entry_classes(last, a, transpose(first), d)) == [["lambda"]]
    # reading the first state while feeding the last: every C A^k B is zero
    assert _classes_kinds(entry_classes(first, a, transpose(last), d)) == [["constant"]]


def test_entry_classes_stop_once_every_entry_is_lambda(monkeypatch):
    # C B has no zero entry, so every class is "lambda" after the first
    # Markov parameter: one product C B and no power of A
    a = ex.mat([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    b = ex.mat([[1, 0], [1, 1], [0, 2]])
    c = ex.mat([[1, 1, 0], [0, 1, 1]])
    d = ex.mat([[0, 5], [0, 0]])
    calls = []
    mmul = ex.mmul

    def counting(x, y):
        calls.append(ex.shape(y))
        return mmul(x, y)

    monkeypatch.setattr(ex, "mmul", counting)
    assert _classes_kinds(entry_classes(c, a, b, d)) == [["lambda"] * 2] * 2
    assert calls == [(3, 2)]
    # C B with a zero entry reads on until that entry turns frequency dependent
    calls.clear()
    assert _classes_kinds(entry_classes(ex.mat([[1, 0, 0]]), a, b, ex.mat([[0, 0]]))) \
        == [["lambda", "lambda"]]
    assert len(calls) > 1


def _int_matrix(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_entry_classes_match_numeric_evaluation(n, m_in, m_out, data):
    a = ex.mat(data.draw(_int_matrix(n, n)))
    b = ex.mat(data.draw(_int_matrix(n, m_in)))
    c = ex.mat(data.draw(_int_matrix(m_out, n)))
    d = ex.mat(data.draw(_int_matrix(m_out, m_in)))
    classes = entry_classes(c, a, b, d)
    af, bf = ex.to_float(a), ex.to_float(b).reshape(n, m_in)
    cf, df = ex.to_float(c).reshape(m_out, n), ex.to_float(d)
    # entries in [-2, 2] and n <= 4 bound the spectral radius by 8, so the
    # points stay away from eig(A); five points exceed deg det(lambda*I - A),
    # so an entry that depends on lambda cannot take one value at all of them
    points = (11.0, 12.5, 13.5, 15.0, 17.0)
    values = [cf @ np.linalg.solve(x * np.eye(n) - af, bf) + df for x in points]
    for q in range(m_out):
        for p in range(m_in):
            samples = [v[q, p] for v in values]
            varies = max(abs(s - samples[0]) for s in samples) > 1e-9
            assert varies == classes[q][p].is_lambda
            if not varies:
                assert (abs(samples[0]) < 1e-9) == classes[q][p].is_zero
                assert classes[q][p].is_zero == (d[q][p] == 0)


# Mixed denominators: the integer scaling of C's rows, B's columns and A
# differs from entry to entry.
_MIXED = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 7),
                          Fraction(-5, 14), Fraction(5, 14), Fraction(3, 2), Fraction(-3, 2),
                          Fraction(2, 21)])


def _mixed_matrix(rows, cols):
    return st.lists(st.lists(_MIXED, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3), st.data())
def test_entry_classes_match_fraction_markov_loop(n, m_in, m_out, data):
    a = data.draw(_mixed_matrix(n, n))
    b = data.draw(_mixed_matrix(n, m_in))
    c = data.draw(_mixed_matrix(m_out, n))
    d = data.draw(_mixed_matrix(m_out, m_in))
    assert entry_classes(c, a, b, d) == _dense_entry_classes(c, a, b, d)


def test_entry_classes_keep_a_cancelled_zero():
    # A B = (5/14) B and C B = 0, so every C A^k B cancels to exactly 0, across
    # denominators that scale each row of A and B by a different factor; a
    # scaling of A's rows or B's rows would leave C A^k B nonzero
    a = ex.mat([["29/42", "-1/2"], ["1/2", "-11/28"]])
    b = ex.mat([["3/14"], ["1/7"]])
    c = ex.mat([["1/3", "-1/2"]])
    assert ex.mmul(a, b) == [[x * Fraction(5, 14) for x in row] for row in b]
    assert ex.mmul(c, b) == [[0]]
    for d, want in ((ex.mat([[0]]), EntryClass("zero")),
                    (ex.mat([["5/14"]]), EntryClass("constant", Fraction(5, 14)))):
        got = entry_classes(c, a, b, d)
        assert got == _dense_entry_classes(c, a, b, d) == [[want]]
    # a third state, fed by the first and read by C, breaks the cancellation
    a3 = ex.mat([["29/42", "-1/2", 0], ["1/2", "-11/28", 0], [1, 0, "3/2"]])
    b3 = ex.mat([["3/14"], ["1/7"], [0]])
    c3 = ex.mat([["1/3", "-1/2", "2/21"]])
    assert entry_classes(c3, a3, b3, ex.mat([[0]])) == [[EntryClass("lambda")]]


def test_resolvent_matches_numeric_inverse():
    # C = B = I, D = 0: the classes are those of the resolvent (lambda*I - A)^-1,
    # which is strictly proper, so every entry is "zero" or "lambda"
    rng = random.Random(3)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    classes = entry_classes(eye(4), a, eye(4), ex.zeros(4, 4))
    af = ex.to_float(a)
    eigs = np.linalg.eigvals(af)
    points = []
    while len(points) < 5:
        x = rng.uniform(4.0, 8.0)
        if all(abs(x - e) > 1e-3 for e in eigs):
            points.append(x)
    invs = [np.linalg.inv(x * np.eye(4) - af) for x in points]
    for i in range(4):
        for j in range(4):
            samples = [inv[i, j] for inv in invs]
            assert classes[i][j].kind in ("zero", "lambda")
            if classes[i][j].is_zero:
                assert all(abs(s) < 1e-9 for s in samples)
            else:
                assert max(abs(s - samples[0]) for s in samples) > 1e-9


def test_entry_class_stable_under_evaluation(sec7):
    rng = random.Random(9)
    for aug, t in zip(sec7.analysis, nds_tfms(sec7)):
        af = ex.to_float(aug.A_xx)
        n = af.shape[0]
        eigs = np.linalg.eigvals(af)
        points = []
        while len(points) < 3:
            x = rng.uniform(2.5, 9.0)
            if all(abs(x - e) > 1e-3 for e in eigs):
                points.append(x)
        czx = ex.to_float(aug.A_zx).reshape(-1, n)
        bxv = ex.to_float(aug.A_xv).reshape(n, -1)
        dzv = ex.to_float(aug.A_zv)
        vals = [czx @ np.linalg.solve(x * np.eye(n) - af, bxv) + dzv for x in points]
        r, c = dzv.shape
        for q in range(r):
            for p in range(c):
                samples = [v[q, p] for v in vals]
                constantish = max(abs(s - samples[0]) for s in samples) < 1e-9
                assert constantish == (not t.gzv_classes[q][p].is_lambda)


def test_spectrum_sec7(sec7):
    spec = spectrum(sec7)
    assert spec.m == 3
    assert [complex(v) for v in spec.values] == [1 + 0j, 0j, -1 + 0j]
    assert filter_modes(spec.values, "unstable") == [1 + 0j, 0j]
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
    deficiency = sum(rec.pbh_deficiencies([1.0, 0.0], 1e-9)
                     for rec in analysis_records(sec7.analysis))
    assert deficiency.tolist() == [2, 1]


def test_owner_deficiencies_rank_each_record_once(monkeypatch, sec7):
    # sec7: every pooled value costs some owner a row of [lam I - A, B]
    # (at 1 and 0 as in test_mode_data_sec7_targets, where every subsystem
    # is ranked: one that does not own a value loses no row there)
    spec = spectrum(sec7)
    assert [complex(v) for v in spec.values] == [1, 0, -1]
    assert owner_deficiencies(sec7, spec) == [2, 1, 2]
    # identical agents share one record: one stacked call for all of them,
    # and each value's deficiency counts once per owning agent
    calls = []
    pbh = SubsystemAnalysis.pbh_deficiencies
    monkeypatch.setattr(SubsystemAnalysis, "pbh_deficiencies",
                        lambda rec, lams, tol: calls.append(list(lams)) or pbh(rec, lams, tol))
    lost = SubsystemModel(
        A_xx0=ex.mat([[1, 0], [0, 2]]), A_xv0=ex.mat([[1], [1]]),
        B_xu0=ex.mat([[0], [1]]), A_zx0=ex.mat([[1, 1]]), A_zv0=ex.mat([[0]]),
        B_zu0=ex.mat([[0]]))
    agents = NdsModel([lost] + [dataclasses.replace(lost) for _ in range(3)],
                      StructuredPattern(4, 4, {}))
    spec = spectrum(agents)
    assert spec.members == [{0, 1, 2, 3}] * 2
    assert owner_deficiencies(agents, spec) == [0, 4]
    assert calls == [spec.values]


def test_mode_data_full_row_rank_contributes_nothing():
    # wide mode matrix (more inputs than outputs) keeps full row rank away
    # from eigenvalues
    sub = SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[1]]))
    nds = NdsModel([sub], StructuredPattern(1, 1, {}))
    md = mode_data(nds, 5.0)
    assert md.M_r == 0
    [(block, cols)] = md.column_blocks()
    assert block.shape == (0, 2) and cols == [0, 1]


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
    lams = spectrum(sec7).values
    deficiencies = [aug.record.pbh_deficiencies(lams, 1e-9) for aug in sec7.analysis]
    for k, lam in enumerate(lams):
        md = mode_data(sec7, lam)
        for sd, deficiency in zip(md.per_sub, deficiencies):
            z_rank = ex.float_rank(sd.z, 1e-9)
            assert sd.m_r - z_rank == deficiency[k]


def _left_null_basis(m, tol):
    """Per-matrix reference: orthonormal rows spanning {w : w m = 0}, and rank(m)."""
    rows = m.shape[0]
    if m.size == 0:
        return np.eye(rows, dtype=m.dtype if m.dtype.kind == "c" else float), 0
    u, s, _ = np.linalg.svd(m)
    rank = ex.singular_value_rank(s, tol)
    return u[:, rank:].conj().T, rank


def _reference_block(aug, lam, tol):
    """One subsystem's mode data computed from its exact matrices alone."""
    mx, mv, mu, mz = aug.m_x, aug.m_v, aug.m_u, aug.m_z
    dtype = complex if abs(complex(lam).imag) > 0 else float
    lam_c = complex(lam) if dtype is complex else float(complex(lam).real)
    top = np.hstack([lam_c * np.eye(mx) - ex.to_float(aug.A_xx),
                     ex.to_float(aug.B_xu).reshape(mx, mu)])
    bot = np.hstack([-ex.to_float(aug.A_zx).reshape(mz, mx),
                     ex.to_float(aug.B_zu).reshape(mz, mu)])
    basis, rank = _left_null_basis(np.vstack([top, bot]).astype(dtype), tol)
    t, z = basis[:, :mx], basis[:, mx:]
    y = (t @ ex.to_float(aug.A_xv).reshape(mx, mv)
         + z @ ex.to_float(aug.A_zv).reshape(mz, mv))
    return t, z, y, mx + mz - rank, mx - ex.float_rank(top, tol)


def _identical_agents(seed, agents):
    subs = [random_subsystem(random.Random(seed), i + 1, lft_prob=0.5)
            for i in range(agents)]
    return NdsModel(subs, StructuredPattern(sum(s.m_v0 for s in subs),
                                            sum(s.m_z0 for s in subs), {}))


def _zero_width_blocks():
    """Forms with zero-width blocks: no external input (m_u = 0), no output
    (m_z = 0), and a static one whose mode matrix is 1 x 0 at every eigenvalue."""
    no_input = SubsystemModel(
        A_xx0=ex.mat([[1, 1], [0, 2]]), A_xv0=ex.mat([[1], [0]]), B_xu0=[[], []],
        A_zx0=ex.mat([[0, 1]]), A_zv0=ex.mat([[0]]), B_zu0=[[]])
    no_output = SubsystemModel(
        A_xx0=ex.mat([[0, -1], [1, 0]]), A_xv0=ex.mat([[1], [1]]),
        B_xu0=ex.mat([[1], [0]]), A_zx0=[], A_zv0=[], B_zu0=[])
    static = SubsystemModel(A_xx0=[], A_xv0=[], B_xu0=[], A_zx0=[[]], A_zv0=[[]],
                            B_zu0=[[]])
    subs = [no_input, no_output, static]
    return NdsModel(subs, StructuredPattern(sum(s.m_v0 for s in subs),
                                            sum(s.m_z0 for s in subs), {}))


def test_analysis_table_matches_reference():
    cases = [random_nds(seed) for seed in range(40)]
    cases += [_identical_agents(seed, 4) for seed in range(3)]
    rot = SubsystemModel(
        A_xx0=ex.mat([[0, -1], [1, 0]]), A_xv0=ex.mat([[1], [0]]),
        B_xu0=ex.mat([[0], [0]]), A_zx0=ex.mat([[0, 1]]), A_zv0=ex.mat([[0]]),
        B_zu0=ex.mat([[0]]))
    cases.append(NdsModel([rot, dataclasses.replace(rot)],
                          StructuredPattern(2, 2, {(0, 1): "a", (1, 0): "b"})))
    cases.append(_zero_width_blocks())
    saw_mixed = saw_shared = saw_empty = False
    for nds in cases:
        spec = spectrum(nds)
        for aug in nds.analysis:
            assert np.array_equal(aug.record.eigvals,
                                  np.linalg.eigvals(ex.to_float(aug.A_xx)))
        # One call builds every block of a record with one stacked SVD per
        # dtype: real and complex eigenvalues together, some of them twice.
        lams = spec.values + spec.values[::2]
        saw_mixed |= len({complex(lam).imag != 0 for lam in lams}) == 2
        mds = modes(nds, lams)
        assert all(len(aug.record.blocks) == spec.m for aug in nds.analysis)
        deficiencies = [aug.record.pbh_deficiencies(lams, 1e-9) for aug in nds.analysis]
        for k, lam in enumerate(lams):
            ref = [_reference_block(aug, lam, 1e-9) for aug in nds.analysis]
            for md in (mds[k], mode_data(nds, lam)):
                for sd, d, (t, z, y, m_r, deficiency) in zip(md.per_sub, deficiencies, ref):
                    for got, want in ((sd.t, t), (sd.z, z), (sd.y, y)):
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                    assert (sd.m_r, d[k]) == (m_r, deficiency)
                assert md.M_r == sum(r[3] for r in ref)
        saw_empty |= any(aug.m_x == 0 for aug in nds.analysis)
        # the pooled spectrum read from the records is the one fresh
        # subsystem objects give
        fresh = NdsModel([dataclasses.replace(s) for s in nds.subsystems], nds.scm)
        again = spectrum(fresh)
        assert again.values == spec.values and again.members == spec.members
        records = {id(a.record) for a in nds.analysis}
        saw_shared |= len(nds.analysis) > 1 and len(records) == 1
    assert saw_mixed and saw_shared and saw_empty


def test_records_freed_with_their_model():
    # Records hold no reference back to their forms, so dropping a parsed
    # model frees them by reference counting alone, without the cycle collector.
    gc.disable()
    try:
        model = load_document(sec7_path())[0]
        mode_data(model, spectrum(model).values[0])
        nds_tfms(model)
        refs = [weakref.ref(a.record) for a in model.analysis]
        del model
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_pbh_stack_matches_per_value_loop():
    # the in-place broadcast does the loop's elementwise arithmetic, so the bytes
    # agree: real and complex values, mixed in one list, signed zeros, n or k zero
    rng = random.Random(53)
    nrng = np.random.default_rng(53)
    for trial in range(400):
        n, k, m = rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 3)
        a, b = nrng.standard_normal((n, n)), nrng.standard_normal((n, m))
        dtype = complex if trial % 2 else float
        values = [rng.choice((0.0, -0.0, 1, -2.5, float(nrng.standard_normal())))
                  for _ in range(k)]
        if dtype is complex and values:
            values[rng.randrange(k)] = complex(*nrng.standard_normal(2))
        got, want = pbh_stack(a, b, values, dtype), _loop_pbh_stack(a, b, values, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), trial


def test_spectrum_compares_distinct_values_only(monkeypatch):
    # identical agents repeat the same eigenvalues: pooling compares only
    # the distinct ones, so its pairwise tests do not grow with the agents
    close = ratfun._close
    calls = []

    def counting(a, b, tol):
        calls.append(1)
        return close(a, b, tol)

    monkeypatch.setattr(ratfun, "_close", counting)
    counts = []
    for agents in (2, 8, 32):
        nds = _identical_agents(1, agents)
        calls.clear()
        spec = spectrum(nds)
        counts.append(len(calls))
        assert all(m == set(range(agents)) for m in spec.members)
    assert counts[0] == counts[1] == counts[2]
