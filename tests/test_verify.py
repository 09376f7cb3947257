import copy
import json
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from netctrl import exactla as ex
from netctrl import cli, model, ratfun, structgraph, verify
from netctrl.design import design_topology
from netctrl.matroid import GenericPattern, matroid_intersection_rank
from netctrl.model import (NdsModel, NetworkLoop, OpenLoop, StructuredPattern,
                           SubsystemModel, assemble_lumped)
from netctrl.structgraph import vertex_name
from netctrl.verify import (check_feasibility, check_fum_networked,
                            check_structural_controllability, fums_of,
                            randomized_realization_check, realize_numeric,
                            uncontrollable_modes)

from oracles import (_dense_close_loop, check_fum_lumped, dense_columns, dense_y, dense_z,
                     kalman_uncontrollable_polynomial)
from randgen import check_network, random_fixed_subsystems, random_nds, random_subsystem


def _names(seq):
    return [vertex_name(v) for v in seq]


def _single(sub, n_free=0):
    mv, mz = sub.m_v0, sub.m_z0
    positions = [(r, c) for r in range(mv) for c in range(mz)][:n_free]
    scm = StructuredPattern(mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in positions})
    return NdsModel([sub], scm)


def test_pdum_sec7(sec7, sec7_designed3, sec7_designed2):
    witness = check_structural_controllability(sec7).pdum
    assert _names(witness) == ["v12", "z11", "v32", "z32", "v21", "z21"]
    assert check_structural_controllability(sec7_designed3).pdum is None
    assert check_structural_controllability(sec7_designed2).pdum is None


def test_pdum_absent_without_dependent_edges():
    # outputs read no state, so no transfer entry depends on the frequency
    sub = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[0]]), A_zv0=ex.mat([[1]]), B_zu0=ex.mat([[0]]))
    assert check_structural_controllability(_single(sub)).pdum is None


def test_fum_networked_sec7_designs(sec7, sec7_designed3, sec7_designed2):
    spec = ratfun.spectrum(sec7)
    # the given pattern leaves a fixed mode at 0 (and a moving-mode cycle)
    given = check_fum_networked(sec7)
    assert [mc.lam for mc in given] == spec.values
    assert [mc.is_fum for mc in given] == [False, True, False]
    # three links clear every mode
    assert fums_of(check_fum_networked(sec7_designed3)) == []
    # two links clear the unstable modes; -1 stays fixed
    two = check_fum_networked(sec7_designed2)
    assert [(complex(mc.lam), mc.is_fum) for mc in two] == [
        (1 + 0j, False), (0j, False), (-1 + 0j, True)]
    assert two[2].shortfall == 1


def test_intersection_runs_only_on_shortfall(monkeypatch, sec7, sec7_designed2,
                                             sec7_designed3):
    # the exact intersection is looked up in verify's namespace, where the
    # benchmark's span recorder patches it; only modes the draw leaves short reach it
    exact = verify.matroid_intersection_rank
    ranks = []

    def counting(o1, o2, start=frozenset()):
        best = exact(o1, o2, start)
        ranks.append(best.certified_rank)
        return best

    monkeypatch.setattr(verify, "matroid_intersection_rank", counting)
    for nds, fum_lams in ((sec7, [0j]), (sec7_designed2, [-1 + 0j]), (sec7_designed3, [])):
        ranks.clear()
        fums = fums_of(check_fum_networked(nds))
        assert [complex(mc.lam) for mc in fums] == fum_lams
        assert ranks == [mc.achieved for mc in fums]


def _bound(o1, o2, start=frozenset()):
    """The intersection of o1 and o2 from start, and how many times it bound
    o1 (`exchanges`): once per augmentation and once more."""
    bindings = []
    exchanges = o1.exchanges
    o1.exchanges = lambda current: bindings.append(current) or exchanges(current)
    try:
        return matroid_intersection_rank(o1, o2, start), len(bindings)
    finally:
        del o1.exchanges


def _intersections(monkeypatch, nds):
    """Each exact intersection `check_fum_networked(nds)` runs, as (mode,
    first oracle, second oracle, start, bindings of the first oracle)."""
    rank_mode = verify.mode_rank
    calls, mode = [], []

    def recording_mode_rank(md, *args):
        mode[:] = [md]
        return rank_mode(md, *args)

    def counting(o1, o2, start=frozenset()):
        best, bindings = _bound(o1, o2, start)
        calls.append((mode[0], o1, o2, start, bindings))
        return best

    monkeypatch.setattr(verify, "mode_rank", recording_mode_rank)
    monkeypatch.setattr(verify, "matroid_intersection_rank", counting)
    check_fum_networked(nds)
    monkeypatch.undo()
    return calls


def test_z_start_leaves_at_most_the_owner_deficiency(monkeypatch):
    # each intersected mode starts from a basis of Z, M_r - d columns by the
    # owners' PBH identity, and so binds its first oracle at most d + 1
    # times; from the empty set some of the same modes bind it more often
    nds = check_network(64)
    spec = ratfun.spectrum(nds)
    deficiency = dict(zip(spec.values, ratfun.owner_deficiencies(nds, spec)))
    calls = _intersections(monkeypatch, nds)
    assert calls
    over = 0
    for md, q1, q2, start, bindings in calls:
        d = deficiency[md.lam]
        assert len(start) == md.M_r - d and q2.independent(start)
        assert start <= set(range(nds.M_v, nds.M_v + nds.M_z))
        assert bindings <= d + 1
        over += _bound(q1, q2)[1] > d + 1
    assert over


@pytest.mark.parametrize("n", [32, 64, 128])
def test_z_start_keeps_certified_rank(monkeypatch, n):
    # every intersected mode of the size-table network reaches the same
    # rank from the basis of Z as from the empty set
    calls = _intersections(monkeypatch, check_network(n))
    assert calls
    for _, q1, q2, start, _ in calls:
        assert matroid_intersection_rank(q1, q2, start).certified_rank == \
            matroid_intersection_rank(q1, q2).certified_rank


def test_fum_networked_skips_covered_modes():
    # a wide subsystem keeps every mode matrix full row rank: nothing to cover
    sub = SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[1]]))
    checks = check_fum_networked(_single(sub))
    assert all(mc.target == 0 and not mc.is_fum for mc in checks)


def _settled(nds):
    """The pooled values the owners' PBH rule settles: M_r > 0 and no
    subsystem owning the value loses a row of [lam I - A_xx, B_xu]."""
    spec = ratfun.spectrum(nds)
    return [lam for lam, target, d in zip(spec.values, ratfun.mode_targets(nds, spec.values),
                                          ratfun.owner_deficiencies(nds, spec))
            if target and not d]


def _agents(seed, n):
    """n identical agents with free blocks under a random routing."""
    subs = [random_subsystem(random.Random(seed), i + 1, lft_prob=0.5) for i in range(n)]
    mv, mz = sum(s.m_v0 for s in subs), sum(s.m_z0 for s in subs)
    rng = random.Random(seed)
    free = [(r, c) for r in range(mv) for c in range(mz) if rng.random() < 0.35]
    return NdsModel(subs, StructuredPattern(mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in free}))


def test_owner_pbh_rule_is_sound(sec7, sec7_designed3):
    # at every pooled mode the blocks' ranks of Z sum to M_r less the owner
    # deficiency; every mode the rule settles has rank Z = M_r, and its
    # exact intersection rank is M_r, as reported (sec7 has an owner
    # deficient at each of its values, so there the rule settles nothing)
    hetero = [random_nds(seed, 4, max_state=4, max_port=3, lft_prob=0.5) for seed in range(40)]
    homog = [_agents(seed, n) for seed in range(12) for n in (2, 4)]
    settled = {"sec7": 0, "free blocks": 0, "agents": 0}
    deficient = dict.fromkeys(settled, 0)
    for label, nds in ([("sec7", sec7), ("sec7", sec7_designed3)]
                       + [("free blocks", nds) for nds in hetero]
                       + [("agents", nds) for nds in homog]):
        spec = ratfun.spectrum(nds)
        for md, d in zip(ratfun.modes(nds, spec.values), ratfun.owner_deficiencies(nds, spec)):
            assert sum(ex.float_rank(s.z) for s in md.per_sub) == md.M_r - d
            deficient[label] += d > 0
        q1 = GenericPattern(verify.routing_pattern_q1(nds.P_pattern))
        reported = {mc.lam: mc.achieved for mc in check_fum_networked(nds)}
        for lam in _settled(nds):
            md = ratfun.mode_data(nds, lam)
            assert ex.float_rank(dense_z(md)) == md.M_r
            q2 = dense_columns(np.hstack([dense_y(md), dense_z(md)]))
            assert matroid_intersection_rank(q1, q2).certified_rank == md.M_r
            assert reported[lam] == md.M_r
            if label != "free blocks" or any(s.has_free_params for s in nds.subsystems):
                settled[label] += 1
    assert settled["sec7"] == 0 and settled["free blocks"] and settled["agents"], settled
    assert all(deficient.values()), deficient


def test_product_rank_reads_the_blocks(monkeypatch):
    # mode_rank stacks [y_i z_i] [P; I] over the subsystems; at the same draw
    # of P that matrix is the dense Y P + Z and ranks the same
    products = []
    float_rank = ex.float_rank
    monkeypatch.setattr(ex, "float_rank", lambda m, tol=ex.RANK_TOL: (
        products.append(m) if np.ndim(m) == 2 else None) or float_rank(m, tol))
    networks = [random_nds(seed, max_sub, max_state=4, max_port=3)
                for max_sub, seeds in ((3, range(1, 31)), (8, range(1, 11)), (16, range(1, 4)))
                for seed in seeds]
    seen = {"modes": 0, "complex": 0, "short": 0}
    for nds in networks:
        pattern = nds.P_pattern
        q1 = GenericPattern(verify.routing_pattern_q1(pattern))
        rng = np.random.default_rng(0)
        for md in ratfun.modes(nds, ratfun.spectrum(nds).values):
            if md.M_r == 0:
                continue
            p = np.zeros((pattern.rows, pattern.cols))
            if pattern.entries:
                rows, cols = zip(*pattern.entries)
                p[rows, cols] = copy.deepcopy(rng).standard_normal(len(rows))
            products.clear()
            achieved = verify.mode_rank(md, pattern, q1, rng)
            dense = dense_y(md) @ p + dense_z(md)
            product = products[0]
            # the block products skip the zero columns of Y and Z, so they
            # sum in another order: entries of order one agree to roundoff
            assert product.dtype == dense.dtype and np.allclose(product, dense, rtol=0,
                                                                atol=1e-12)
            assert float_rank(product) == float_rank(dense)
            seen["modes"] += 1
            seen["complex"] += complex(md.lam).imag != 0
            seen["short"] += achieved < md.M_r
    assert all(seen.values()), seen


def _planted(positions):
    """Subsystem 1 has the local uncontrollable mode 1 (B_xu = 0) and one
    internal input; subsystem 2 is driven at 2 and has an unused input.
    Positions are (row, column) of the routing into v1, v2 from z1, z2."""
    lost = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    driven = SubsystemModel(
        A_xx0=ex.mat([[2]]), A_xv0=ex.mat([[0]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    return NdsModel([lost, driven], StructuredPattern(
        2, 2, {(r, c): f"phi_{r}_{c}" for r, c in positions}))


def test_planted_local_mode_goes_to_the_draw(monkeypatch):
    drawn = []
    rank = verify.mode_rank

    def recording(md, *args):
        drawn.append((complex(md.lam), rank(md, *args)))
        return drawn[-1][1]

    monkeypatch.setattr(verify, "mode_rank", recording)
    # z2 -> v1 repairs the mode at 1: the draw reaches the target
    repaired = _planted([(0, 1)])
    assert _settled(repaired) == [2]
    verdict = check_structural_controllability(repaired)
    assert verdict.structurally_controllable
    assert [(complex(mc.lam), mc.target, mc.achieved) for mc in verdict.per_mode] == [
        (2, 1, 1), (1, 1, 1)]
    assert drawn == [(1, 1)]
    # z1 -> v2 leaves v1 unrouted: the draw falls short, the mode is fixed
    drawn.clear()
    verdict = check_structural_controllability(_planted([(1, 0)]))
    assert not verdict.structurally_controllable and verdict.pdum is None
    assert [(complex(mc.lam), mc.shortfall) for mc in verdict.fums] == [(1, 1)]
    assert drawn == [(1, 0)]


def test_only_unsettled_modes_get_blocks_and_draws(monkeypatch, sec7, sec7_designed2,
                                                    sec7_designed3):
    # every sec7 value has a deficient owner, so all three get blocks and
    # draws; on the planted network and random ones the rule settles some.
    # Each draw starts from the generator state it would have if every mode
    # with a target drew, settled ones included.
    blocks, drawn = [], []
    mode_blocks, rank = ratfun.SubsystemAnalysis.mode_blocks, verify.mode_rank
    monkeypatch.setattr(ratfun.SubsystemAnalysis, "mode_blocks",
                        lambda rec, lams, tol: blocks.append(list(lams))
                        or mode_blocks(rec, lams, tol))
    monkeypatch.setattr(verify, "mode_rank", lambda md, pattern, q1, rng, tol: drawn.append(
        (md.lam, rng.bit_generator.state)) or rank(md, pattern, q1, rng, tol))
    partly = 0
    for nds in ([sec7, sec7_designed2, sec7_designed3, _planted([(0, 1)])]
                + [random_nds(seed, 4, max_state=4, max_port=3) for seed in range(10)]):
        spec = ratfun.spectrum(nds)
        settled = _settled(nds)
        every = np.random.default_rng(verify._PRODUCT_RANK_SEED)
        unsettled = []
        for lam, target in zip(spec.values, ratfun.mode_targets(nds, spec.values)):
            if target and lam not in settled:
                unsettled.append((lam, every.bit_generator.state))
            if target:
                every.standard_normal(len(nds.P_pattern.entries))
        blocks.clear()
        drawn.clear()
        checks = check_fum_networked(nds)
        # one call per subsystem
        assert blocks == [[lam for lam, _ in unsettled]] * len(nds.analysis)
        assert drawn == unsettled
        assert [mc.lam for mc in checks] == spec.values
        partly += bool(settled and unsettled and nds.P_pattern.entries)
    assert partly
    assert _settled(sec7) == []


def test_fum_lumped_reduces_to_eigen_test_without_parameters():
    # no free entries at all: the union test degenerates to the plain
    # eigenvalue rank test of (A, B)
    bad = SubsystemModel(
        A_xx0=ex.mat([[2]]), A_xv0=ex.zeros(1, 0), B_xu0=ex.mat([[0]]),
        A_zx0=ex.zeros(0, 1), A_zv0=ex.zeros(0, 0), B_zu0=ex.zeros(0, 1))
    nds = NdsModel([bad], StructuredPattern(0, 0, {}))
    checks = check_fum_lumped(nds)
    assert len(checks) == 1 and checks[0].is_fum
    good = SubsystemModel(
        A_xx0=ex.mat([[2]]), A_xv0=ex.zeros(1, 0), B_xu0=ex.mat([[1]]),
        A_zx0=ex.zeros(0, 1), A_zv0=ex.zeros(0, 0), B_zu0=ex.zeros(0, 1))
    nds2 = NdsModel([good], StructuredPattern(0, 0, {}))
    assert fums_of(check_fum_lumped(nds2)) == []


def test_fum_lumped_matches_networked_sec7(sec7, sec7_designed3, sec7_designed2):
    for model in (sec7, sec7_designed3, sec7_designed2):
        net = check_fum_networked(model)
        lum = check_fum_lumped(model)
        assert [mc.is_fum for mc in net] == [mc.is_fum for mc in lum]


def test_structural_controllability_sec7(sec7, sec7_designed3, sec7_designed2):
    bad = check_structural_controllability(sec7)
    assert not bad.structurally_controllable
    assert _names(bad.pdum) == ["v12", "z11", "v32", "z32", "v21", "z21"]
    good = check_structural_controllability(sec7_designed3)
    assert good.structurally_controllable
    assert good.pdum is None
    two = check_structural_controllability(sec7_designed2)
    assert not two.structurally_controllable
    assert [complex(mc.lam) for mc in two.fums] == [-1 + 0j]
    # the verdict dictionary serializes the witnesses
    d = bad.to_dict()
    assert sorted(d) == ["fixed_uncontrollable_modes", "pdum_witness", "per_mode",
                         "structurally_controllable", "tolerances"]
    assert d["pdum_witness"] == ["v12", "z11", "v32", "z32", "v21", "z21"]
    assert d["structurally_controllable"] is False


def test_feasibility_sec7(sec7):
    rep = check_feasibility(sec7.subsystems)
    assert rep.feasible
    assert rep.max_target == 5 and rep.output_ports == 5
    rep_u = check_feasibility(sec7.subsystems, "unstable")
    assert rep_u.feasible
    assert rep_u.max_target == 4


def test_unknown_mode_filter_is_rejected(sec7):
    # one rule for the mode filter: "stable" is neither "all" nor "unstable"
    with pytest.raises(ValueError, match="mode_filter"):
        ratfun.filter_modes([1.0, -1.0], "stable")
    with pytest.raises(ValueError, match="mode_filter"):
        check_feasibility(sec7.subsystems, "stable")
    with pytest.raises(ValueError, match="mode_filter"):
        design_topology(sec7.subsystems, "stable")
    assert ratfun.filter_modes([1.0, -1.0, 0j], "unstable") == [1.0, 0j]


def test_feasibility_fails_on_uncontrollable_pair():
    sub = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[0]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    rep = check_feasibility([sub])
    assert not rep.feasible
    assert rep.augmented_controllable == [(0, False)]


def test_feasibility_detail_names_the_first_failing_eigenvalue():
    # The detail prints the eigenvalue as the subsystem's spectrum holds it:
    # a real one as a float (-1), not as a complex number ((-1+0j)).
    ok = SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[1]]))
    real = SubsystemModel(  # controllable at 1, not at -1
        A_xx0=ex.mat([[1, 0], [0, -1]]), A_xv0=ex.mat([[1], [0]]),
        B_xu0=ex.mat([[0], [0]]), A_zx0=ex.mat([[1, 1]]), A_zv0=ex.mat([[0]]),
        B_zu0=ex.mat([[1]]))
    pair = SubsystemModel(  # uncontrollable at 1 +- 2i, controllable at 3
        A_xx0=ex.mat([[1, -2, 0], [2, 1, 0], [0, 0, 3]]), A_xv0=ex.mat([[0], [0], [1]]),
        B_xu0=ex.mat([[0], [0], [1]]), A_zx0=ex.mat([[1, 0, 0]]), A_zv0=ex.mat([[0]]),
        B_zu0=ex.mat([[1]]))
    rep = check_feasibility([ok, real])
    assert rep.augmented_controllable == [(0, True), (1, False)]
    assert rep.detail == "subsystem 2 uncontrollable at -1"
    assert check_feasibility([ok, real], "unstable").detail == ""
    rep = check_feasibility([pair, ok], "unstable")
    assert rep.augmented_controllable == [(0, False), (1, True)]
    assert rep.detail == "subsystem 1 uncontrollable at 1+2j"
    assert check_feasibility([real, pair]).detail == (
        "subsystem 1 uncontrollable at -1; subsystem 2 uncontrollable at 1+2j")


def test_feasibility_fails_without_external_route():
    # frequency-dependent internal transfer but no path from external inputs
    sub = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    rep = check_feasibility([sub])
    assert not rep.feasible
    assert not rep.external_route_ok


def _targets_from_null_spaces(subs, mode_filter):
    """Reference: the per-mode targets M_r read off the full per-mode null
    spaces (`ratfun.modes`), as feasibility read them before it read ranks."""
    nds = NdsModel.unrouted(subs)
    lams = ratfun.filter_modes(ratfun.spectrum(nds).values, mode_filter)
    return lams, [md.M_r for md in ratfun.modes(nds, lams)]


@pytest.mark.parametrize("mode_filter", ["all", "unstable"])
def test_feasibility_targets_match_null_space_route(mode_filter):
    # each route runs on its own subsystem objects, so neither reads the
    # factors the other made
    verdicts = set()
    for seed in range(60):
        max_sub = 4 if seed % 2 else 8
        lams, want = _targets_from_null_spaces(random_fixed_subsystems(seed, max_sub),
                                               mode_filter)
        nds = NdsModel.unrouted(random_fixed_subsystems(seed, max_sub))
        assert ratfun.mode_targets(nds, lams) == want, f"seed {seed}"
        rep = check_feasibility(random_fixed_subsystems(seed, max_sub), mode_filter)
        assert rep.max_target == max(want, default=0), f"seed {seed}"
        verdicts.add(rep.feasible)
    assert verdicts == {True, False}


def test_realize_numeric_matches_float_loop(sec7_designed3):
    values = {pid: Fraction(i + 2)
              for i, pid in enumerate(sorted(
                  __import__("netctrl.model", fromlist=["assemble_lumped"])
                  .assemble_lumped(sec7_designed3).P_pattern.entries.values()))}
    plant = assemble_lumped(sec7_designed3)
    a, b = realize_numeric(plant, values)
    pv = ex.to_float(plant.P_pattern.substitute(values))
    azv = ex.to_float(plant.A_zv)
    loop = np.linalg.inv(np.eye(5) - azv @ pv)
    want_a = (ex.to_float(plant.A_xx)
              + ex.to_float(plant.A_xv) @ pv @ loop @ ex.to_float(plant.A_zx))
    assert np.allclose(ex.to_float(a), want_a)


@pytest.mark.parametrize("max_sub", [8, 16])
def test_realize_numeric_matches_dense_closure(max_sub):
    # seed 0 gives 7 subsystems (M_x 20, M_z 16) at max_sub 8 and 13
    # (M_x 38, M_z 28) at max_sub 16
    nds = random_nds(0, max_sub, max_state=4, max_port=3, scm_density=0.35)
    plant = assemble_lumped(nds)
    values = plant.P_pattern.draw(random.Random(max_sub), 60)
    p = plant.P_pattern.substitute(values)
    m, f = (ex.hstack([plant.A_xx, plant.B_xu]), ex.hstack([plant.A_zx, plant.B_zu]))
    want = _dense_close_loop(m, plant.A_xv, plant.A_zv, f, p)
    a, b = realize_numeric(assemble_lumped(nds), values)
    n = nds.M_x
    assert a == [row[:n] for row in want] and b == [row[n:] for row in want]
    assert ex.to_float(a).tobytes() == ex.to_float([row[:n] for row in want]).tobytes()
    assert ex.to_float(b).tobytes() == ex.to_float([row[n:] for row in want]).tobytes()


def test_realization_reads_the_plant_once(monkeypatch, sec7):
    # every draw closes the network's one loop, which reads the subsystems'
    # blocks once per prime; the lumped plant and its exact OpenLoop are
    # built once, and only when a draw falls back to the exact closure
    built, reduced, assembled = [], [], []
    original, reduce = OpenLoop.__init__, NetworkLoop._reduce

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    def reducing(self, prime):
        reduced.append(prime)
        return reduce(self, prime)

    monkeypatch.setattr(OpenLoop, "__init__", counting)
    monkeypatch.setattr(NetworkLoop, "_reduce", reducing)
    monkeypatch.setattr(model, "assemble_lumped",
                        lambda nds: assembled.append(nds) or assemble_lumped(nds))
    res = randomized_realization_check(sec7, seed=0, trials=5)
    assert not res.controllable_witness and res.trials_used == 5
    assert built == assembled == []
    assert reduced[0] == ex.PRIME and len(reduced) == len(set(reduced)) > 1
    _exact_fallback(monkeypatch)
    res = randomized_realization_check(sec7, seed=0, trials=5)
    assert not res.controllable_witness and res.trials_used == 5
    assert len(built) == len(assembled) == 1


def _exact_fallback(monkeypatch):
    """Make every modular solve give up, so each closure runs the exact solve."""
    monkeypatch.setattr(ex, "solve_mod", lambda a, b, p: None)


def test_realization_redraws_only_singular_loops(monkeypatch, sec7_designed3):
    # only the exact solve of the fallback decides a redraw
    _exact_fallback(monkeypatch)
    real = ex.int_solve
    calls = []

    def singular_once(rows, n):
        calls.append(n)
        if len(calls) == 1:
            raise ex.SingularMatrixError("singular system in exact_solve")
        return real(rows, n)

    monkeypatch.setattr(ex, "int_solve", singular_once)
    res = randomized_realization_check(sec7_designed3, seed=7, trials=5)
    assert res.redraws == 1 and res.controllable_witness

    def broken(rows, n):
        raise ZeroDivisionError("integer division by zero")

    # any other ZeroDivisionError is a fault, not a redraw
    monkeypatch.setattr(ex, "int_solve", broken)
    with pytest.raises(ZeroDivisionError, match="integer division") as info:
        randomized_realization_check(sec7_designed3, seed=7, trials=5)
    assert not isinstance(info.value, ex.SingularMatrixError)


def test_realization_sec7(sec7, sec7_designed3, sec7_designed2):
    res = randomized_realization_check(sec7_designed3, seed=7, trials=5)
    assert res.controllable_witness and res.trials_used == 1
    res_a = randomized_realization_check(sec7, seed=11, trials=6)
    assert not res_a.controllable_witness
    res_2 = randomized_realization_check(sec7_designed2, seed=3, trials=3)
    assert not res_2.controllable_witness
    assert res_2.last_uncontrollable_modes
    assert all(abs(l - (-1)) < 1e-6 for l in res_2.last_uncontrollable_modes)


# Documents of the benchmark's heterogeneous pool (rung, generator seed)
# that are structurally controllable but on which five float PBH trials at
# realize's default seed found no witness.
FLOAT_PBH_MISSES = [(8, 60), (8, 61), (8, 188), (16, 52)]


def _hetero(seed, max_sub):
    # the arguments of the benchmark's `hetero_nds`
    return random_nds(seed, max_sub, max_state=4, max_port=3, scm_density=0.35)


@pytest.mark.parametrize("max_sub,seed", FLOAT_PBH_MISSES)
def test_realization_witness_where_the_float_pbh_missed(max_sub, seed):
    nds = _hetero(seed, max_sub)
    assert check_structural_controllability(nds).structurally_controllable
    res = randomized_realization_check(nds, seed=0, trials=5)
    assert res.controllable_witness and res.trials_used == 1


def _smallest_prime_factor(x):
    x = abs(x)
    return next((q for q in range(2, 10_000) if x % q == 0), None)


@pytest.mark.parametrize("max_sub,seed", FLOAT_PBH_MISSES)
def test_realization_denominator_divisible_by_the_prime(monkeypatch, max_sub, seed):
    nds = _hetero(seed, max_sub)
    closed = []
    close_mod = OpenLoop.close_mod

    def recording(self, p, prime):
        closed.append((p, close_mod(self, p, prime)))
        return closed[-1][1]

    monkeypatch.setattr(OpenLoop, "close_mod", recording)
    randomized_realization_check(nds, seed=0, trials=1)
    block, residues = closed[0]
    assert residues is not None  # the modular closure decided the first draw
    plant = assemble_lumped(nds)
    loop = plant.loop
    p = ex.zeros(loop.p_rows, loop.n)
    for (r, c), x in block.items():
        p[r][c] = Fraction(x)
    exact = loop.close(p)
    q = _smallest_prime_factor(lcm(*[x.denominator for row in exact for x in row]))
    assert q is not None
    # with the prime q the first draw's closed loop has no residues, though
    # the plant itself has: the modular closure gives up, and the exact
    # fallback inside close_mod finds the loop well-posed but gives no witness
    assert ex.mod_matrix(exact, q) is None
    assert ex.mod_matrix(loop.m, q) is not None
    assert close_mod(loop, block, q) is None
    monkeypatch.setattr(ex, "PRIME", q)
    values = {pid: block[pos] for pos, pid in plant.P_pattern.entries.items()}
    lift = verify._lift

    def at_the_prime(n, closures):
        # the fill-in starts from the trial's closure at q, then lifts from
        # the primes below the real PRIME
        assert next(closures) == (q, None, None)
        monkeypatch.undo()
        return lift(n, verify._closures(NetworkLoop(nds), values))

    monkeypatch.setattr(verify, "_lift", at_the_prime)
    solved = []
    int_solve = ex.int_solve
    monkeypatch.setattr(ex, "int_solve", lambda rows, n: solved.append(n) or int_solve(rows, n))
    closed.clear()
    res = randomized_realization_check(nds, seed=0, trials=1)
    assert closed[0] == (block, None) and solved == [loop.n]
    assert not res.controllable_witness and res.trials_used == 1 and res.redraws == 0
    assert res.last_uncontrollable_modes == verify.polynomial_modes(
        verify.uncontrollable_polynomial(nds, values))


def test_realization_without_parameters_immediate():
    sub = SubsystemModel(
        A_xx0=ex.mat([[0, 1], [0, 0]]), A_xv0=ex.zeros(2, 0),
        B_xu0=ex.mat([[0], [1]]), A_zx0=ex.zeros(0, 2), A_zv0=ex.zeros(0, 0),
        B_zu0=ex.zeros(0, 1))
    nds = NdsModel([sub], StructuredPattern(0, 0, {}))
    res = randomized_realization_check(nds, seed=0, trials=3)
    assert res.controllable_witness and res.trials_used == 1


def test_realization_without_free_parameters_runs_one_trial(sec7_empty):
    # nothing is drawn, so a second trial would realize the same system
    res = randomized_realization_check(sec7_empty, seed=0, trials=5)
    assert not res.controllable_witness
    assert res.trials_used == 1 and res.redraws == 0
    # the fill-in is the one closed loop's uncontrollable polynomial,
    # x (x - 1)^2 (x + 1)^2 by the exact Kalman decomposition
    plant = assemble_lumped(sec7_empty)
    a_m, b_m = realize_numeric(plant, {})
    want = kalman_uncontrollable_polynomial(a_m, b_m)
    assert want == [0, 1, 0, -2, 0, 1]
    assert verify.uncontrollable_polynomial(sec7_empty, {}) == want
    assert res.last_uncontrollable_modes == [1, 1, 0, -1, -1]


def _reference_uncontrollable_modes(a, b, tol=1e-7):
    """One PBH matrix [A - lam I, B] per eigenvalue, each equilibrated and
    ranked on its own."""
    n = a.shape[0]
    out = []
    for lam in np.linalg.eigvals(a) if n else []:
        m = np.hstack([a - lam * np.eye(n), b]).astype(complex)
        for _ in range(2):
            rn = np.max(np.abs(m), axis=1, keepdims=True)
            rn[rn == 0] = 1.0
            m = m / rn
            cn = np.max(np.abs(m), axis=0, keepdims=True)
            cn[cn == 0] = 1.0
            m = m / cn
        if ex.float_rank(m, tol) < n:
            out.append(complex(lam))
    return out


def test_pbh_matches_exact_kalman_rank(sec7, sec7_designed3):
    # the exact rank of [B AB ... A^(n-1) B] is an independent reference
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = ex.mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        b = ex.mat([[rng.randint(-1, 1)] for _ in range(n)])
        blocks = [b]
        for _ in range(n - 1):
            blocks.append(ex.mmul(a, blocks[-1]))
        kalman = ex.exact_rank(ex.hstack(blocks)) == n
        a_f, b_f = ex.to_float(a), ex.to_float(b).reshape(n, 1)
        modes = uncontrollable_modes(a_f, b_f)
        assert (not modes) == kalman
        assert modes == _reference_uncontrollable_modes(a_f, b_f)
    # realized sec7 loops, where the loop inverse mixes entry scales
    short = 0
    for nds in (sec7, sec7_designed3):
        pattern = assemble_lumped(nds).P_pattern
        for seed in range(10):
            a_m, b_m = realize_numeric(assemble_lumped(nds),
                                       pattern.draw(random.Random(seed), 60))
            a_f = ex.to_float(a_m)
            b_f = ex.to_float(b_m).reshape(nds.M_x, nds.M_u)
            modes = uncontrollable_modes(a_f, b_f)
            assert modes == _reference_uncontrollable_modes(a_f, b_f)
            short += bool(modes)
    assert short  # the given routing leaves modes uncontrollable


def test_random_instances_lumped_equals_networked():
    for seed in range(25):
        nds = random_nds(seed)
        net = check_fum_networked(nds)
        lum = check_fum_lumped(nds)
        assert [mc.is_fum for mc in net] == [mc.is_fum for mc in lum], f"seed {seed}"


def _is_unreachable_lambda_cycle(cycle, graph, scc):
    closing = list(zip(cycle, cycle[1:] + cycle[:1]))
    kinds = {(s, d): kind for s, d, kind in graph.edges}
    return (all(pair in kinds for pair in closing)
            and any(kinds[pair] == "lambda" for pair in closing)
            and not any(scc.input_reachable[v] for v in cycle))


def test_unreachable_lambda_edge_without_cycle_has_fixed_mode(random_networks):
    # An input-unreachable lambda edge off every unreachable cycle cannot
    # drop the network PBH rank at a parameter-dependent frequency; it only
    # exposes states the fixed-mode test already reports. So the cycle alone
    # decides the moving-mode question.
    edge_only = 0
    for label, nds in random_networks:
        graph = structgraph.build_nacg(nds, ratfun.nds_tfms(nds))
        scc = structgraph.scc_decompose(graph)
        cycle = structgraph.find_input_unreachable_lambda_cycle(graph)
        edge = structgraph.find_input_unreachable_lambda_edge(graph)
        if cycle is not None:
            assert edge is not None, label
            assert _is_unreachable_lambda_cycle(cycle, graph, scc), label
        elif edge is not None:
            edge_only += 1
            assert fums_of(check_fum_networked(nds)), label
    assert edge_only  # the implication is exercised


def _root_multiplicity(c, r):
    """How often x - r divides the polynomial c (constant term first)."""
    count = 0
    while len(c) > 1:
        quotient, acc = [], Fraction(0)
        for x in reversed(c[1:]):
            acc = acc * r + x
            quotient.append(acc)
        if acc * r + c[0]:
            break
        c, count = quotient[::-1], count + 1
    return count


def _assert_matches_kalman_oracle(nds, values):
    """realize's lifted polynomial and listed modes against the Fraction
    Kalman decomposition of the same closed loop, closed exactly on the
    lumped plant; returns the oracle's polynomial."""
    plant, n = assemble_lumped(nds), nds.M_x
    closed = plant.loop.close(plant.P_pattern.substitute(values))
    want = kalman_uncontrollable_polynomial([row[:n] for row in closed],
                                            [row[n:] for row in closed])
    got = verify.uncontrollable_polynomial(nds, values)
    assert got == want
    modes = verify.polynomial_modes(got)
    assert len(modes) == len(want) - 1
    assert modes == sorted(modes, key=ratfun._cluster_key)
    roots, _ = ex.rational_roots(want)
    for r in set(roots):
        listed = complex(r.numerator / r.denominator)
        assert roots.count(r) == _root_multiplicity(want, r) == modes.count(listed)
    return want


def test_uncontrollable_polynomial_matches_kalman_decomposition(
        sec7, sec7_designed3, sec7_designed2, sec7_empty):
    degrees = []
    networks = ([sec7, sec7_designed3, sec7_designed2, sec7_empty]
                + [random_nds(seed, 3, lft_prob=0.5) for seed in range(40)])
    for i, nds in enumerate(networks):
        for seed in range(3):
            values = nds.P_pattern.draw(random.Random(100 * i + seed), 6)
            try:
                degrees.append(len(_assert_matches_kalman_oracle(nds, values)) - 1)
            except ex.SingularMatrixError:  # an ill-posed draw, which realize redraws
                with pytest.raises(ex.SingularMatrixError):
                    verify.uncontrollable_polynomial(nds, values)
    # controllable draws, single and repeated modes are all exercised
    assert 0 in degrees and 1 in degrees and max(degrees) >= 3


def test_realization_fill_in_matches_kalman_decomposition(monkeypatch, sec7, sec7_designed2):
    draws, lifts = [], []
    closures, lift = verify._closures, verify._lift

    def drawing(loop, values):
        draws.append((loop, values))
        return closures(loop, values)

    def lifting(n, closed):
        lifts.append(n)
        return lift(n, closed)

    monkeypatch.setattr(verify, "_closures", drawing)
    monkeypatch.setattr(verify, "_lift", lifting)
    for nds in [sec7, sec7_designed2] + [random_nds(seed, 3) for seed in range(30)]:
        draws.clear()
        lifts.clear()
        res = randomized_realization_check(nds, seed=1, trials=2)
        if res.controllable_witness:
            assert not lifts
            continue
        assert lifts == [nds.M_x]
        loop, values = draws[-1]  # the fill-in lifts the last draw
        assert loop.nds is nds
        want = _assert_matches_kalman_oracle(nds, values)
        assert res.last_uncontrollable_modes == verify.polynomial_modes(want)


def _realize_report(nds, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        cli.serialize_document(nds, dict(cli.DEFAULT_OPTIONS))), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(["realize", str(path), "--out", str(out)]) == 1
    return json.loads(out.read_text(encoding="utf-8"))["result"]


def test_realization_fill_in_pinned(sec7, tmp_path):
    # sec7 at its default seed: lambda (2003756 lambda + 1) / 2003756, so the
    # second mode is a genuine draw-dependent mode, -1/2003756, not a split of 0
    res = _realize_report(sec7, tmp_path)
    assert res["last_uncontrollable_modes"] == ["0.0", "-4.990627601364637e-07"]
    assert -1 / 2003756 == -4.990627601364637e-07
    # hetero rung 16 seed 12: the exact Kalman rank is n - 1, one mode at 0,
    # where the float PBH listed 28
    res = _realize_report(_hetero(12, 16), tmp_path)
    assert res["last_uncontrollable_modes"] == ["0.0"]


def test_realization_runs_only_the_modular_path(monkeypatch, sec7, sec7_designed3):
    def unused(*args):
        raise AssertionError("the float fill-in ran")

    monkeypatch.setattr(verify, "realize_numeric", unused)
    monkeypatch.setattr(verify, "uncontrollable_modes", unused)
    solved = []
    int_solve = ex.int_solve
    monkeypatch.setattr(ex, "int_solve", lambda rows, n: solved.append(n) or int_solve(rows, n))
    results = [randomized_realization_check(nds, seed=0, trials=5)
               for nds in (sec7, sec7_designed3, _hetero(12, 16), _hetero(52, 16))]
    assert [r.controllable_witness for r in results] == [False, True, False, True]
    assert results[0].last_uncontrollable_modes and results[2].last_uncontrollable_modes
    assert solved == []
    # the exact solve runs only when the modular closure gives up: once per draw
    _exact_fallback(monkeypatch)
    res = randomized_realization_check(sec7_designed3, seed=0, trials=5)
    assert res.controllable_witness
    assert len(solved) == res.trials_used + res.redraws >= 1


def test_realization_closes_each_draw_once_at_the_prime(monkeypatch, sec7):
    # the fill-in lifts from the last trial's closure at PRIME, then closes
    # the same draw only mod the primes below it
    primes = []
    close_mod = OpenLoop.close_mod

    def recording(self, p, prime):
        primes.append(prime)
        return close_mod(self, p, prime)

    monkeypatch.setattr(OpenLoop, "close_mod", recording)
    res = randomized_realization_check(sec7, seed=0, trials=5)
    assert not res.controllable_witness and res.last_uncontrollable_modes
    assert primes.count(ex.PRIME) == res.trials_used + res.redraws
    assert len(primes) > res.trials_used + res.redraws
