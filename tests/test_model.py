import copy
import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import cli
from netctrl import exactla as ex
from netctrl import model, verify
from netctrl.data import sec7_path
from netctrl.model import (ModelError, NdsModel, StructuredPattern, SubsystemModel,
                           OpenLoop, analysis_form, assemble_lumped,
                           check_well_posedness)

from oracles import (_dense_close_loop, _dense_mmul, _dense_rank_det, _dense_solve,
                     diagonalize_parameters,
                     transpose)
from randgen import random_nds


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


def test_pattern_rejects_out_of_bounds_entry():
    with pytest.raises(ModelError, match=r"pattern position \(2,0\) out of bounds for 2x3"):
        StructuredPattern(2, 3, {(0, 0): "a", (2, 0): "b"})
    with pytest.raises(ModelError, match=r"pattern position \(0,-1\) out of bounds for 2x3"):
        StructuredPattern(2, 3, {(0, -1): "a"})


def test_pattern_rejects_repeated_id():
    with pytest.raises(ModelError, match="parameter ids must be globally distinct"):
        StructuredPattern(2, 3, {(0, 0): "a", (1, 2): "a"})


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


def _stacked_and_split(sub):
    """A blockless subsystem's six matrices stacked into one and split back
    by columns: the form as an empty loop closure would leave it."""
    mx, mv, mu = sub.m_x, sub.m_v0, sub.m_u
    stacked = ex.vstack([ex.hstack([sub.A_xx0, sub.A_xv0, sub.B_xu0]),
                         ex.hstack([sub.A_zx0, sub.A_zv0, sub.B_zu0])])
    cuts = [range(mx), range(mx, mx + mv), range(mx + mv, mx + mv + mu)]
    return [ex.submatrix(part, None, cols)
            for part in (stacked[:mx], stacked[mx:]) for cols in cuts]


def test_blockless_form_is_the_given_matrices():
    # every mix of empty state, input, internal-input and internal-output
    # dimensions: the form is the six given matrices, equal to the stacked
    # and split copy in values and in shape
    rng = random.Random(3)

    def rand(r, c):
        return ex.mat([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])

    for mx, mv, mu, mz in itertools.product((0, 2), (0, 1), (0, 3), (0, 2)):
        sub = SubsystemModel(
            A_xx0=rand(mx, mx), A_xv0=rand(mx, mv), B_xu0=rand(mx, mu),
            A_zx0=rand(mz, mx), A_zv0=rand(mz, mv), B_zu0=rand(mz, mu), name="s")
        aug = analysis_form(sub)
        given = [sub.A_xx0, sub.A_xv0, sub.B_xu0, sub.A_zx0, sub.A_zv0, sub.B_zu0]
        form = [aug.A_xx, aug.A_xv, aug.B_xu, aug.A_zx, aug.A_zv, aug.B_zu]
        assert all(a is b for a, b in zip(form, given))
        want = _stacked_and_split(sub)
        assert form == want
        assert [[len(row) for row in m] for m in form] == \
            [[len(row) for row in m] for m in want]
        assert (aug.m_x, aug.m_u, aug.m_v, aug.m_z) == (sub.m_x, sub.m_u, sub.m_v0,
                                                        sub.m_z0)
        assert aug.name == "s"


# Documents for the no-mutation check: sec7 (three blockless subsystems), a
# blockless network with empty dimensions, and fixed, free and absent blocks.
_ZERO_DIMS_DOC = {"subsystems": [
    {"A_xx": [[0, 1], [-1, 0]], "A_xv": [[0], [1]], "B_xu": [[], []],
     "A_zx": [], "A_zv": [], "B_zu": []},
    {"A_xx": [], "A_xv": [], "B_xu": [], "A_zx": [[]], "A_zv": [[0]], "B_zu": [[1]]},
    {"A_xx": [[1]], "A_xv": [[]], "B_xu": [[1]], "A_zx": [[1]], "A_zv": [[]],
     "B_zu": [[0]]}],
    "scm": {"free": [[1, 1]]}}
_BLOCKS_DOC = {"subsystems": [
    {"A_xx": [[1, 0], [0, 2]], "A_xv": [[1], [0]], "B_xu": [[0], [1]],
     "A_zx": [[1, 0]], "A_zv": [[0]], "B_zu": [[0]],
     "lft": {"E1": [[1], [0]], "E2": [[0]], "F1": [["1/2", 0]], "F2": [[0]],
             "F3": [[0]], "H": [[1]], "param": lft_param}}
    for lft_param in ({"fixed": [[3]]}, {"free": [[1, 1]]})]
    + [{"A_xx": [[-1]], "A_xv": [[1]], "B_xu": [[0]], "A_zx": [[1]], "A_zv": [[0]],
        "B_zu": [[0]]}],
    "scm": {"free": [[1, 3], [3, 1], [2, 2]]}}

_SUB_MATRICES = ("A_xx0", "A_xv0", "B_xu0", "A_zx0", "A_zv0", "B_zu0",
                 "E1", "E2", "F1", "F2", "F3", "H")


def _matrices(nds):
    return [[getattr(s, key) for key in _SUB_MATRICES]
            + [s.param_block if not s.has_free_params else None]
            for s in nds.subsystems]


@pytest.mark.parametrize("command", ["check", "design", "realize", "feasible", "graph"])
@pytest.mark.parametrize("doc", ["sec7", "zero-dims", "blocks"])
def test_commands_leave_subsystem_matrices_unchanged(monkeypatch, tmp_path, capsys,
                                                     command, doc):
    # a blockless form shares its subsystem's matrices, so no command may
    # write into a form's matrices either
    if doc == "sec7":
        path = sec7_path()
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_ZERO_DIMS_DOC if doc == "zero-dims" else _BLOCKS_DOC),
                        encoding="utf-8")
        path = str(path)
    loaded = []
    load = cli.load_document

    def recording_load(p):
        result = load(p)
        loaded.append((result[0], copy.deepcopy(_matrices(result[0]))))
        return result

    monkeypatch.setattr(cli, "load_document", recording_load)
    for _ in range(2):
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) in (0, 1)
    assert capsys.readouterr().err == ""
    assert len(loaded) == 2
    for nds, before in loaded:
        assert _matrices(nds) == before


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
    """The six closed blocks from K = P (I - H P)^-1, solved densely against
    the transpose, with one correction per block row."""
    p = sub.param_block
    hp = _dense_mmul(sub.H, p)
    w = [[(1 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(hp)]
    k = transpose(_dense_solve(transpose(w), transpose(p)))
    f_all = ex.hstack([sub.F1, sub.F2, sub.F3])

    def corrected(m, e):
        return [[x + y for x, y in zip(rm, ra)]
                for rm, ra in zip(m, _dense_mmul(_dense_mmul(e, k), f_all))]

    top = corrected(ex.hstack([sub.A_xx0, sub.A_xv0, sub.B_xu0]), sub.E1)
    mid = corrected(ex.hstack([sub.A_zx0, sub.A_zv0, sub.B_zu0]), sub.E2)
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


def test_plain_zero_division_in_the_closure_is_not_ill_posedness(monkeypatch):
    # only SingularMatrixError means an ill-posed loop; any other
    # ZeroDivisionError is a fault and must surface
    def broken(rows, n):
        raise ZeroDivisionError("integer division by zero")

    monkeypatch.setattr(ex, "int_solve", broken)
    sub = _one_state_sub(1, 1, 0)
    with pytest.raises(ZeroDivisionError, match="integer division") as info:
        dataclasses.replace(sub, param_block=ex.mat([["1/3"]]))
    assert not isinstance(info.value, ex.SingularMatrixError)


def _rational(rng, rows, cols, density=0.6):
    return [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7, 14]))
             if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]


def test_close_loop_matches_dense_formula():
    rng = random.Random(21)
    closed = singular = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        pr, pc = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice([0.2, 0.5, 1.0])
        m, e = _rational(rng, rows, cols, density), _rational(rng, rows, pr, density)
        h, f = _rational(rng, pc, pr, density), _rational(rng, pc, cols, density)
        p = _rational(rng, pr, pc, density)  # rational: the fixed-block path
        if rng.random() < 0.2:  # zero loop row r of I - h p: h_r p = e_r
            r, k = rng.randrange(pc), rng.randrange(pr)
            p[k] = [Fraction(0)] * pc
            p[k][r] = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 7]))
            h[r] = [Fraction(0)] * pr
            h[r][k] = 1 / p[k][r]
            for other in p[:k] + p[k + 1:]:
                other[r] = Fraction(0)
        want = _dense_close_loop(m, e, h, f, p)
        if want is None:
            singular += 1
            with pytest.raises(ex.SingularMatrixError):
                OpenLoop(m, e, h, f).close(p)
        else:
            closed += 1
            assert OpenLoop(m, e, h, f).close(p) == want
    assert closed >= 150 and singular >= 40


def test_open_loop_closes_at_many_blocks(monkeypatch):
    # one OpenLoop reads m, e, h and f once and closes at each block like
    # the dense formula, rescanning none of them
    rng = random.Random(5)
    closed = singular = 0
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        pr, pc = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice([0.3, 0.6, 1.0])
        m, e = _rational(rng, rows, cols, density), _rational(rng, rows, pr, density)
        h, f = _rational(rng, pc, pr, density), _rational(rng, pc, cols, density)
        loop = OpenLoop(m, e, h, f)
        monkeypatch.setattr(model, "_scaled_nonzeros", None)
        for i in range(4):
            p = _rational(rng, pr, pc, rng.choice([0.3, 1.0]))
            ks = [k for k, x in enumerate(h[0]) if x]
            if i == 1 and ks:  # row 0 of I - h p made zero: h_0 p = e_0
                k = rng.choice(ks)
                for row in p:
                    row[0] = Fraction(0)
                p[k] = [1 / h[0][k]] + [Fraction(0)] * (pc - 1)
            want = _dense_close_loop(m, e, h, f, p)
            if want is None:
                singular += 1
                with pytest.raises(ex.SingularMatrixError):
                    loop.close(p)
            else:
                closed += 1
                assert loop.close(p) == want
        monkeypatch.undo()
    assert closed >= 100 and singular >= 20


def _loop_blocks(rng, count, density):
    """`count` subsystems' six analysis matrices [A_xx, A_xv, B_xu, A_zx,
    A_zv, B_zu], rational, each with at least one v and one z port."""
    blocks = []
    for _ in range(count):
        mx = rng.randint(0, 5 // count)
        mv, mz = rng.randint(1, 4 // count), rng.randint(1, 4 // count)
        mu = rng.randint(0 if mx else 1, 3)
        blocks.append([_rational(rng, r, c, density) for r, c in
                       ((mx, mx), (mx, mv), (mx, mu), (mz, mx), (mz, mv), (mz, mu))])
    return blocks


def test_close_mod_matches_exact_closure(monkeypatch):
    # the network's loop closed mod a prime at an integer block, on one- and
    # two-subsystem networks (one gives m = [A_xx B_xu], e = A_xv, h = A_zv
    # and f = [A_zx B_zu] of free shape): an ill-posed loop raises;
    # otherwise it gives the exact closed loop's residues, also where the
    # modular solve gives up (the prime divides the loop's determinant or
    # a denominator of a subsystem's block), and None exactly when the prime
    # divides a denominator of the exact closed loop. The modular solve
    # takes only the loop rows, the rows of h with a nonzero residue: none
    # when h is all zero, fewer than h's when some of its rows are zero
    rng = random.Random(6)
    prime = 101
    agree = singular = unlucky = divides = no_loop = zero_rows = 0
    solved = []
    solve_mod = ex.solve_mod
    monkeypatch.setattr(ex, "solve_mod",
                        lambda a, b, p: solved.append(a.shape[0]) or solve_mod(a, b, p))
    for _ in range(600):
        blocks = _loop_blocks(rng, rng.choice([1, 2]), rng.choice([0.3, 0.6, 1.0]))
        z_of = [i for i, b in enumerate(blocks) for _ in b[4]]  # z row -> subsystem
        v0 = [0]
        for b in blocks:
            v0.append(v0[-1] + len(b[4][0]))
        pr, pc = v0[-1], len(z_of)
        block = {(r, c): rng.randint(1, 3 * prime) for r in range(pr) for c in range(pc)
                 if rng.random() < 0.5}
        i = rng.randrange(len(blocks))
        a_xx, a_zv = blocks[i][0], blocks[i][4]
        kind = rng.random()
        if kind < 0.05 and a_xx:  # a denominator of m the prime divides
            a_xx[0][0] = Fraction(1, prime)
        elif kind < 0.1:  # a denominator of h the prime divides
            a_zv[0][0] = Fraction(1, prime)
        elif kind < 0.25:  # row z of I - h p made zero: h_z p = e_z
            z, k, x = z_of.index(i), v0[i] + rng.randrange(len(a_zv[0])), rng.randint(1, 5)
            block = {(r, c): v for (r, c), v in block.items() if c != z and r != k}
            block[(k, z)] = x
            a_zv[0] = [Fraction(0)] * len(a_zv[0])
            a_zv[0][k - v0[i]] = Fraction(1, x)
        elif kind < 0.35:  # no feedthrough: h all zero
            for b in blocks:
                b[4] = ex.zeros(len(b[4]), len(b[4][0]))
        elif kind < 0.5:  # some rows of h zero, one kept nonzero
            kept = rng.randrange(pc)
            for z, j in enumerate(z_of):
                row = blocks[j][4][z - z_of.index(j)]
                if z == kept:
                    row[rng.randrange(len(row))] = Fraction(rng.choice([-3, -1, 2]),
                                                            rng.choice([1, 7]))
                elif rng.random() < 0.6:
                    row[:] = [Fraction(0)] * len(row)
        nds = NdsModel.unrouted([SubsystemModel(*b) for b in blocks])
        plant = assemble_lumped(nds)
        m, e = ex.hstack([plant.A_xx, plant.B_xu]), plant.A_xv
        h, f = plant.A_zv, ex.hstack([plant.A_zx, plant.B_zu])
        p = ex.zeros(pr, pc)
        for (r, c), x in block.items():
            p[r][c] = Fraction(x)
        loop = model.NetworkLoop(nds)
        want = _dense_close_loop(m, e, h, f, p)
        if want is None:
            singular += 1
            with pytest.raises(ex.SingularMatrixError):
                loop.close_mod(block, prime)
            continue
        solved.clear()
        got = loop.close_mod(block, prime)
        loop_rows = sum(1 for row in h if any(x.numerator % prime for x in row))
        if block and all(x.denominator % prime for row in m + e + h + f for x in row):
            assert solved == [loop_rows]
            no_loop += not loop_rows
            zero_rows += 0 < loop_rows < pc
        hp = _dense_mmul(h, p)
        lhs = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(hp)]
        scaled = [[x * row_scale for x in row] for row, row_scale in
                  zip(lhs, ex.int_rows([hr + fr for hr, fr in zip(h, f)])[1])]
        dens = [x.denominator for row in m + e + h + f for x in row if x]
        if any(x.denominator % prime == 0 for row in want for x in row):
            divides += 1
            assert got is None
            continue
        assert got.tolist() == [[x.numerator * pow(x.denominator, -1, prime) % prime
                                 for x in row] for row in want]
        if (_dense_rank_det(scaled)[1] % prime == 0
                or any(d % prime == 0 for d in dens)):
            unlucky += 1
        else:
            agree += 1
    assert agree >= 150 and singular >= 20 and unlucky >= 20 and divides >= 10
    assert no_loop >= 40 and zero_rows >= 40


def _fixed_blocks(nds, k):
    """nds with each free parameter block fixed at k / 3 (never 1 / H, as H
    is -1, 0 or 1), so the closed forms carry denominators."""
    subs = [dataclasses.replace(s, param_block=[[Fraction(k, 3)]]) if s.has_free_params else s
            for s in nds.subsystems]
    return NdsModel(subs, nds.scm)


def _with_entry(nds, index, key, value):
    """nds with entry (0, 0) of subsystem `index`'s matrix `key` set to value."""
    subs = list(nds.subsystems)
    rows = [row[:] for row in getattr(subs[index], key)]
    rows[0][0] = value
    subs[index] = dataclasses.replace(subs[index], **{key: rows})
    return NdsModel(subs, nds.scm)


def test_network_loop_residues_match_the_lumped_plant(sec7):
    # the residues read per subsystem block are those of the lumped plant's
    # loop blocks (`exactla.mod_matrix`), and None at the same primes: sec7,
    # random networks with free and with fixed parameter blocks, and
    # networks whose prime divides a denominator in one subsystem's block
    networks = [sec7]
    for seed in range(40):
        nds = random_nds(seed, 4, lft_prob=0.6)
        networks.append(nds)
        if any(s.has_free_params for s in nds.subsystems):
            networks.append(_fixed_blocks(nds, [1, 2, 4, 5][seed % 4]))
    networks += [_with_entry(sec7, 1, "A_zv0", Fraction(1, 101)),
                 _with_entry(sec7, 2, "B_xu0", Fraction(3, 707))]
    seen = {True: 0, False: 0}
    for nds in networks:
        loop, plant = model.NetworkLoop(nds), assemble_lumped(nds)
        blocks = [ex.hstack([plant.A_xx, plant.B_xu]), plant.A_zv,
                  ex.hstack([plant.A_zx, plant.B_zu]), plant.A_xv]
        shapes = [(nds.M_x, nds.M_x + nds.M_u), (nds.M_z, nds.M_v),
                  (nds.M_z, nds.M_x + nds.M_u), (nds.M_x, nds.M_v)]
        for prime in (ex.PRIME, 101, 7, 3, 2):
            got, want = loop.residues(prime), [ex.mod_matrix(b, prime) for b in blocks]
            reduced = all(w is not None for w in want)
            seen[reduced] += 1
            if not reduced:
                assert got is None
            else:
                assert [a.shape for a in got] == shapes
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert seen[False] >= 20 and seen[True] >= 100, seen


def test_close_loop_singular_loop():
    one = ex.mat([[1]])
    with pytest.raises(ex.SingularMatrixError):
        OpenLoop(ex.mat([[2, 3]]), one, one, ex.mat([[1, 1]])).close(one)
    # h p = [[1/2, 1], [1/4, 1/2]]: I - h p has determinant 0
    with pytest.raises(ex.SingularMatrixError):
        OpenLoop(ex.zeros(1, 1), ex.mat([[1, 0]]), ex.mat([["1/2", 0], [0, "1/4"]]),
                 ex.mat([[1], [1]])).close(ex.mat([[1, 2], [1, 2]]))


def test_close_loop_without_block_copies_m():
    m = ex.mat([[1, "2/3", 0], [0, 0, 5]])
    e, h, f = ex.zeros(2, 0), [], []
    for p in ([], ex.zeros(2, 0)):
        out = OpenLoop(m, e, h, f).close(p)
        assert out == m and ex.shape(out) == (2, 3)
        assert out is not m and all(a is not b for a, b in zip(out, m))


@pytest.mark.parametrize("block", [[], [[], []]], ids=["0x0", "2x0"])
def test_empty_fixed_block_closes_to_the_given_matrices(tmp_path, capsys, block):
    # a fixed block with no entries is an empty loop: `close` adds nothing,
    # so the form equals the given matrices, and every command runs on it
    pr = len(block)
    sub = {"A_xx": [[1, 0], [0, 2]], "A_xv": [[1], [0]], "B_xu": [[0], [1]],
           "A_zx": [[1, 0]], "A_zv": [[0]], "B_zu": [[0]],
           "lft": {"E1": [[0] * pr] * 2, "E2": [[0] * pr], "F1": [], "F2": [], "F3": [],
                   "H": [], "param": {"fixed": block}}}
    doc = {"subsystems": [sub], "scm": {"free": [[1, 1]]}}
    nds = cli.parse_document(doc)[0]
    s, aug = nds.subsystems[0], nds.analysis[0]
    assert s.param_shape == (pr, 0) and not s.has_free_params
    form = [aug.A_xx, aug.A_xv, aug.B_xu, aug.A_zx, aug.A_zv, aug.B_zu]
    assert form == _stacked_and_split(s)
    assert [ex.shape(m) for m in form] == [(2, 2), (2, 1), (2, 1), (1, 2), (1, 1), (1, 1)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("check", "design", "realize", "feasible", "graph"):
        assert cli.main([command, str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_lumped_loop_without_routing_ports_closes_to_m():
    # no internal inputs: the plant's P is M_v x M_z = 0 x 1, an empty loop
    sub = SubsystemModel(A_xx0=ex.mat([[1, 0], [2, 3]]), A_xv0=[[], []],
                         B_xu0=ex.mat([["1/2"], [0]]), A_zx0=ex.mat([[1, 1]]), A_zv0=[[]],
                         B_zu0=ex.mat([[0]]))
    plant = assemble_lumped(NdsModel.unrouted([sub]))
    assert plant.P_pattern.substitute({}) == []
    a, b = verify.realize_numeric(plant, {})
    assert a == sub.A_xx0 and b == sub.B_xu0
    assert plant.loop.close([]) == ex.hstack([sub.A_xx0, sub.B_xu0])


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
