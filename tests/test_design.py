import random
from collections import Counter

import numpy as np
import pytest

from netctrl import exactla as ex
from netctrl import ratfun, verify
from netctrl.cli import load_document, main
from netctrl.data import sec7_path
from netctrl.design import (InfeasibleDesignError, design_topology, eliminate_pdums,
                            extract_cover_sets, g_value, greedy_color, greedy_link_rows)
from netctrl.model import NdsModel, StructuredPattern, SubsystemModel
from netctrl.structgraph import (build_nacg, find_input_unreachable_lambda_cycle,
                                 unreachable_source_sccs_with_lambda_edge)

import oracles
from oracles import (brute_force_min_topology, clique_union_color, dense_extract_cover_sets,
                     dense_g_value, dense_greedy_link_rows, minimal_rows_exhaustive)
from randgen import design_network, identical_agents, random_fixed_subsystems


def _modes(nds, mode_filter="all"):
    spec = ratfun.spectrum(nds)
    lams = [l for l in spec.values
            if mode_filter == "all" or l.real >= -1e-9]
    return [ratfun.mode_data(nds, lam) for lam in lams]


def _controllable_alone():
    return SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[1]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[1]]))


def test_g_value_sec7(sec7_empty):
    modes_all = _modes(sec7_empty)
    assert g_value([], modes_all) == 8          # sum of output-block ranks
    assert g_value(range(6), modes_all) == 13   # every target reached
    modes_unstable = _modes(sec7_empty, "unstable")
    assert g_value([], modes_unstable) == 5
    assert g_value([2, 4], modes_unstable) == 8  # rows 3 and 5, 1-based


def test_greedy_rows_sec7(sec7_empty):
    rows_u, trace_u = greedy_link_rows(_modes(sec7_empty, "unstable"), 6)
    assert sorted(rows_u) == [2, 4]              # {3, 5} 1-based
    assert trace_u == [5, 7, 8]
    rows_a, trace_a = greedy_link_rows(_modes(sec7_empty), 6)
    assert sorted(rows_a) == [0, 2, 4]           # {1, 3, 5} 1-based
    assert trace_a[-1] == 13


def test_greedy_rows_trivial_when_covered():
    sub = _controllable_alone()
    nds = NdsModel([sub], StructuredPattern(1, 1, {}))
    rows, trace = greedy_link_rows(_modes(nds), 1)
    assert rows == []


def _greedy_per_candidate(modes, M_v):
    """Reference greedy: one g_value per candidate row, first strict gain wins."""
    target = sum(md.M_r for md in modes)
    chosen, trace = [], [g_value([], modes)]
    while trace[-1] < target:
        gains = [(g_value(chosen + [a], modes) - trace[-1], a)
                 for a in range(M_v) if a not in chosen]
        best_gain, best_row = max(gains, key=lambda g: (g[0], -g[1]), default=(0, None))
        if best_gain <= 0:
            return None
        chosen.append(best_row)
        trace.append(trace[-1] + best_gain)
    return chosen, trace


def test_greedy_rows_match_per_candidate_reference():
    compared = raised = 0
    for seed in range(120):
        subs = random_fixed_subsystems(seed, max_sub=4)
        nds = NdsModel(subs, StructuredPattern(sum(s.m_v0 for s in subs),
                                               sum(s.m_z0 for s in subs), {}))
        for mode_filter in ("all", "unstable"):
            modes = _modes(nds, mode_filter)
            want = _greedy_per_candidate(modes, nds.M_v)
            if want is None:
                with pytest.raises(InfeasibleDesignError):
                    greedy_link_rows(modes, nds.M_v)
                raised += 1
            else:
                assert greedy_link_rows(modes, nds.M_v) == want, f"seed {seed}"
                compared += 1
    assert compared >= 100 and raised > 0


def _stage1_or_error(greedy, covers, modes, M_v, M_z):
    """(rows, trace, covers) of one stage-1 implementation, or the error it raises."""
    try:
        rows, trace = greedy(modes, M_v)
        return rows, trace, covers(rows, modes, M_v, M_z)
    except InfeasibleDesignError as err:
        return str(err)


def _assert_stage1_matches_dense(nds, mode_filter, label):
    modes = _modes(nds, mode_filter)
    M_v, M_z = nds.M_v, nds.M_z
    got = _stage1_or_error(greedy_link_rows, extract_cover_sets, modes, M_v, M_z)
    want = _stage1_or_error(dense_greedy_link_rows, dense_extract_cover_sets,
                            modes, M_v, M_z)
    assert got == want, label
    rows = got[0] if isinstance(got, tuple) else []
    for j_set in ([], rows, range(M_v)):
        assert g_value(j_set, modes) == dense_g_value(j_set, modes), label
    return isinstance(got, tuple)


def test_stage1_matches_dense_oracle_random():
    # the per-block greedy, covers and coverage against the dense [Y Z] ones
    outcomes = Counter()
    for seed in range(120):
        nds = NdsModel.unrouted(random_fixed_subsystems(seed, max_sub=4))
        for mode_filter in ("all", "unstable"):
            outcomes[_assert_stage1_matches_dense(nds, mode_filter, f"seed {seed}")] += 1
    assert outcomes[True] >= 180 and outcomes[False] > 0


def test_stage1_matches_dense_oracle_sec7(sec7, sec7_designed2, sec7_designed3):
    for nds in (sec7, sec7_designed2, sec7_designed3):
        for mode_filter in ("all", "unstable"):
            assert _assert_stage1_matches_dense(nds, mode_filter, mode_filter)


@pytest.mark.parametrize("n", [16, 32])
def test_stage1_matches_dense_oracle_design_networks(n):
    assert _assert_stage1_matches_dense(NdsModel.unrouted(design_network(n)), "all",
                                        f"N = {n}")


def _record_ranked(monkeypatch) -> list:
    """Every matrix `exactla.float_rank` ranks, a stack as its matrices."""
    ranked = []
    float_rank = ex.float_rank

    def recording(m, tol=ex.RANK_TOL):
        m = np.asarray(m)
        ranked.extend(m.reshape((-1,) + m.shape[-2:]))
        return float_rank(m, tol)

    monkeypatch.setattr(ex, "float_rank", recording)
    return ranked


def _holding_blocks(matrix, modes) -> set:
    """The (mode, subsystem) blocks [y_i z_i] that hold every column of matrix."""
    holders = None
    for col in matrix.T:
        here = {(m, p) for m, md in enumerate(modes)
                for p, (block, _) in enumerate(md.column_blocks())
                if block.shape[0] == len(col) and block.dtype == col.dtype
                and any(np.array_equal(col, c) for c in block.T)}
        holders = here if holders is None else holders & here
    return holders or set()


def _gaussian_modes(seed: int, n_sub: int, n_modes: int) -> list:
    """Modes of n_sub subsystems with three v ports and one z port each,
    whose blocks [y_i z_i] are Gaussian with one to three rows, so that
    every column of every block is its own."""
    rng = np.random.default_rng(seed)
    modes = []
    for m in range(n_modes):
        per = []
        for p in range(n_sub):
            rows = 1 + (p + m) % 3
            yz = rng.standard_normal((rows, 4))
            per.append(ratfun.SubsystemModeData(t=np.zeros((rows, 0)), z=yz[:, 3:],
                                                y=yz[:, :3], yz=yz, m_r=rows))
        modes.append(ratfun.ModeData(lam=complex(-1 - m), per_sub=per,
                                     M_r=sum(s.m_r for s in per)))
    return modes


def test_greedy_reranks_only_the_chosen_subsystem(monkeypatch):
    # Each ranked matrix is the columns L of one block [y_i z_i], and no
    # (block, L) is ranked twice. L holds the block's z port and its
    # subsystem's rows chosen so far, plus at most one candidate row; so
    # after a step only the chosen subsystem's candidates are ranked again.
    modes = _gaussian_modes(0, n_sub=5, n_modes=4)
    where = {col.tobytes(): (m, p, j) for m, md in enumerate(modes)
             for p, s in enumerate(md.per_sub) for j, col in enumerate(s.yz.T)}
    ranked = _record_ranked(monkeypatch)
    rows, _ = greedy_link_rows(modes, 15)
    monkeypatch.undo()
    chosen = [[a % 3 for a in rows if a // 3 == p] for p in range(5)]
    assert sum(map(bool, chosen)) >= 3 and max(map(len, chosen)) >= 2
    seen = set()
    for matrix in ranked:
        places = [where.get(col.tobytes()) for col in matrix.T]
        assert None not in places and len({place[:2] for place in places}) == 1
        (m, p, _), local = places[0], [j for _, _, j in places]
        assert (m, p, tuple(local)) not in seen
        seen.add((m, p, tuple(local)))
        assert local[-1] == 3  # the z port
        k = 0  # L holds the first k rows chosen in its subsystem
        while k < len(chosen[p]) and chosen[p][k] in local:
            k += 1
        assert len(local) - 1 - k <= 1
    assert len(seen) == len(ranked) > 0


@pytest.mark.parametrize("seed", [0, 3, 8, 11])
def test_greedy_ranks_within_one_agent(monkeypatch, seed):
    # N repeats of one agent share its form, so one block per mode and its
    # ranks: every matrix stage 1 ranks is a column set of one agent's
    # block, and the number ranked does not grow with N.
    ranked = _record_ranked(monkeypatch)
    counts = []
    for agents in (2, 4, 8):
        subs = identical_agents(seed, agents, lft_prob=0)
        nds = NdsModel.unrouted(subs)
        modes = _modes(nds)
        ranked.clear()
        rows, _ = greedy_link_rows(modes, nds.M_v)
        extract_cover_sets(rows, modes, nds.M_v, nds.M_z)
        assert len(rows) == agents
        width = subs[0].m_v0 + subs[0].m_z0
        for matrix in ranked:
            assert matrix.shape[1] <= width
            assert _holding_blocks(matrix, modes)
        counts.append(len(ranked))
    assert counts[0] == counts[1] == counts[2] > 0


def test_cover_sets_sec7(sec7_empty):
    modes_u = _modes(sec7_empty, "unstable")
    rows_u, _ = greedy_link_rows(modes_u, 6)
    covers_u = extract_cover_sets(rows_u, modes_u, 6, 5)
    assert [[s + 1 for s in c] for c in covers_u] == [
        [3, 5, 7, 11], [3, 5, 7, 9, 11]]
    modes_a = _modes(sec7_empty)
    rows_a, _ = greedy_link_rows(modes_a, 6)
    covers_a = extract_cover_sets(rows_a, modes_a, 6, 5)
    assert [[s + 1 for s in c] for c in covers_a] == [
        [3, 5, 7, 11], [3, 5, 7, 9, 11], [1, 5, 7, 9, 11]]


def test_cover_set_inside_ports_only():
    sub = _controllable_alone()
    nds = NdsModel([sub], StructuredPattern(1, 1, {}))
    modes = _modes(nds)
    covers = extract_cover_sets([], modes, 1, 1)
    assert all(set(c) <= {1} for c in covers)  # only the port column (index M_v)


def test_greedy_color_sec7_unstable(sec7_empty):
    modes = _modes(sec7_empty, "unstable")
    rows, _ = greedy_link_rows(modes, 6)
    covers = extract_cover_sets(rows, modes, 6, 5)
    graph, positions = greedy_color(covers, 6, 5, [md.M_r for md in modes])
    # 1-based: vertex 5 -> color 2 first, vertex 3 -> color 4 second
    assert graph.order == (4, 2)
    assert graph.colors[4] == frozenset({1})
    assert graph.colors[2] == frozenset({3})
    assert positions == [(2, 3), (4, 1)]        # (3,4) and (5,2) 1-based


def test_greedy_color_sec7_all(sec7_empty):
    modes = _modes(sec7_empty)
    rows, _ = greedy_link_rows(modes, 6)
    covers = extract_cover_sets(rows, modes, 6, 5)
    graph, positions = greedy_color(covers, 6, 5, [md.M_r for md in modes])
    assert graph.order == (4, 2, 0)
    assert graph.colors[0] == frozenset({3})    # reuses color 4 (1-based)
    assert positions == [(0, 3), (2, 3), (4, 1)]


def test_greedy_color_ports_only_no_entries():
    graph, positions = greedy_color([[3, 4]], 3, 2, [2])
    assert positions == []
    assert graph.colors[3] == frozenset({0})
    assert graph.colors[4] == frozenset({1})


def test_greedy_color_saturated_vertex_gets_color_block():
    # vertex 0 faces both output colors, so it takes the largest target of
    # its covers as a block of colors and its colored edges are dropped
    graph, positions = greedy_color([[0, 1], [0, 2]], 1, 2, [2, 1])
    assert graph.colors[0] == frozenset({0, 1})
    assert positions == [(0, 0), (0, 1)]
    assert frozenset((0, 1)) in graph.removed_edges
    assert frozenset((0, 2)) in graph.removed_edges


def test_greedy_color_matches_clique_union_random():
    # the cover bookkeeping against the clique-union graph, on seeded covers
    rng = random.Random(7)
    cases = Counter()
    for _ in range(2000):
        M_v, M_z = rng.randint(0, 8), rng.randint(1, 6)
        ground = range(M_v + M_z)
        covers = [sorted(rng.sample(ground, rng.randint(0, len(ground))))
                  for _ in range(rng.randint(0, 6))]
        targets = [rng.randint(1, M_z) for _ in covers]
        want = clique_union_color(covers, M_v, M_z, targets)
        assert greedy_color(covers, M_v, M_z, targets) == want, (covers, M_v, M_z, targets)
        cases["no covers"] += not covers
        cases["port-only cover"] += any(c and min(c) >= M_v for c in covers)
        cases["row in no port's cover"] += any(
            all(max(c) < M_v for c in covers if v in c) for v in want[0].vertices if v < M_v)
        cases["saturated"] += bool(want[0].removed_edges)
    assert len(cases) == 4 and min(cases.values()) >= 50, cases


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_greedy_color_matches_clique_union_design_networks(n):
    nds = NdsModel.unrouted(design_network(n))
    modes = ratfun.modes(nds, ratfun.spectrum(nds).values)
    rows, _ = greedy_link_rows(modes, nds.M_v)
    covers = extract_cover_sets(rows, modes, nds.M_v, nds.M_z)
    targets = [md.M_r for md in modes]
    assert (greedy_color(covers, nds.M_v, nds.M_z, targets)
            == clique_union_color(covers, nds.M_v, nds.M_z, targets))


def _cycle_sub(name):
    # one-state block whose single internal transfer entry depends on the
    # frequency and whose external input is disconnected
    return SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[1]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]), name=name)


def test_eliminate_pdums_sec7(sec7_designed3, sec7_designed2):
    assert eliminate_pdums(sec7_designed3) == []
    assert eliminate_pdums(sec7_designed2) == []


def test_eliminate_pdums_two_cycles():
    subs = [_cycle_sub("c1"), _cycle_sub("c2"), _controllable_alone()]
    # self-links close a dependent cycle inside each disconnected block
    scm = StructuredPattern(3, 3, {(0, 0): "phi_0_0", (1, 1): "phi_1_1"})
    nds = NdsModel(subs, scm)
    added = eliminate_pdums(nds)
    assert len(added) == 2
    assert all(d["provenance"].startswith("source") for d in added)
    # the first link anchors at the only reachable output; the second may use
    # the output freed by the first addition
    assert added[0]["from"] == "z31"
    assert {d["from"] for d in added} == {"z31", "z11"}
    positions = {d["position"] for d in added}
    phi = StructuredPattern(3, 3, {(0, 0): "phi_0_0", (1, 1): "phi_1_1",
                                   **{p: f"fix_{p[0]}_{p[1]}" for p in positions}})
    assert verify.check_structural_controllability(NdsModel(subs, phi)).pdum is None


def test_residual_sweep_wires_cycle_below_lambda_free_source():
    # the lambda cycle left after stage 1 sits below an unreachable source
    # component without a lambda edge, so only the residual sweep wires it
    subs = random_fixed_subsystems(179, 8, max_state=3, max_port=2)
    result = design_topology(subs, "unstable")
    assert result.verified
    assert result.stage2_links == [{"position": (1, 2), "from": "z21", "to": "v12",
                                    "provenance": "residual-cycle"}]
    phi1 = StructuredPattern.from_positions(
        result.phi.rows, result.phi.cols, [d["position"] for d in result.stage1_links], "phi")
    nds1 = NdsModel(subs, phi1)
    graph = build_nacg(nds1, ratfun.nds_tfms(nds1))
    assert find_input_unreachable_lambda_cycle(graph) is not None
    assert unreachable_source_sccs_with_lambda_edge(graph) == []


def test_eliminate_pdums_ignores_constant_cycles():
    # constant-edge loop: no frequency dependence, nothing to do
    const_sub = SubsystemModel(
        A_xx0=ex.mat([[0]]), A_xv0=ex.mat([[0]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[0]]), A_zv0=ex.mat([[1]]), B_zu0=ex.mat([[0]]))
    nds = NdsModel([const_sub, _controllable_alone()],
                   StructuredPattern(2, 2, {(0, 0): "phi_0_0"}))
    assert eliminate_pdums(nds) == []


def test_eliminate_pdums_requires_reachable_output():
    subs = [_cycle_sub("c1")]
    nds = NdsModel(subs, StructuredPattern(1, 1, {(0, 0): "phi_0_0"}))
    with pytest.raises(InfeasibleDesignError):
        eliminate_pdums(nds)


def test_design_topology_sec7(sec7):
    res_u = design_topology(sec7.subsystems, "unstable")
    assert [(r + 1, c + 1) for r, c in res_u.positions] == [(3, 4), (5, 2)]
    assert res_u.verified
    assert res_u.stage2_links == []
    assert res_u.bound_report["bound_holds"]
    res_a = design_topology(sec7.subsystems, "all")
    assert [(r + 1, c + 1) for r, c in res_a.positions] == [(1, 4), (3, 4), (5, 2)]
    assert res_a.verified
    assert res_a.verdict.structurally_controllable
    d = res_a.to_dict()
    assert d["j_grd"] == [1, 3, 5]
    assert d["phi_positions"] == [[1, 4], [3, 4], [5, 2]]


def test_design_topology_zero_links_when_controllable():
    res = design_topology([_controllable_alone()], "all")
    assert res.positions == []
    assert res.verified


def test_design_rejects_free_blocks(sec7):
    import dataclasses
    sub = dataclasses.replace(
        sec7.subsystems[0],
        E1=ex.mat([[1], [0]]), E2=ex.mat([[0], [0]]),
        F1=ex.mat([[1, 0]]), F2=ex.mat([[0, 0]]), F3=ex.mat([[0]]),
        H=ex.mat([[0]]),
        param_block=StructuredPattern(1, 1, {(0, 0): "p1_0_0"}))
    with pytest.raises(InfeasibleDesignError):
        design_topology([sub] + sec7.subsystems[1:], "all")


def test_design_infeasible_reported():
    sub = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[0]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    with pytest.raises(InfeasibleDesignError) as err:
        design_topology([sub], "all")
    assert err.value.report is not None
    assert not err.value.report.feasible


def test_brute_force_sec7_minimum(sec7):
    best = brute_force_min_topology(sec7.subsystems, max_links=3)
    assert best is not None
    assert best.num_free == 3
    nds = NdsModel(sec7.subsystems, best)
    assert verify.check_structural_controllability(nds).structurally_controllable


def test_brute_force_rejects_unreachable_lambda_edge_first(monkeypatch, sec7):
    # an unreachable lambda edge off every cycle comes with a fixed mode, so
    # the search rejects it before any intersection
    exact = oracles.matroid_intersection_rank
    calls = []

    def counting(o1, o2, start=frozenset()):
        calls.append(1)
        return exact(o1, o2, start)

    monkeypatch.setattr(oracles, "matroid_intersection_rank", counting)
    best = brute_force_min_topology(sec7.subsystems, max_links=3)
    assert sorted(best.entries) == [(0, 1), (2, 1), (4, 3)]
    assert len(calls) <= 173


def test_brute_force_zero_links():
    best = brute_force_min_topology([_controllable_alone()])
    assert best is not None and best.num_free == 0


def test_brute_force_infeasible_returns_none():
    sub = SubsystemModel(
        A_xx0=ex.mat([[1]]), A_xv0=ex.mat([[0]]), B_xu0=ex.mat([[0]]),
        A_zx0=ex.mat([[1]]), A_zv0=ex.mat([[0]]), B_zu0=ex.mat([[0]]))
    assert brute_force_min_topology([sub], max_links=1) is None


def test_brute_force_guard(sec7):
    subs = [sec7.subsystems[0]] + list(sec7.subsystems)  # 8 x 7 = 56 positions
    with pytest.raises(InfeasibleDesignError):
        brute_force_min_topology(subs)


def test_design_not_worse_than_brute_force():
    checked = 0
    for seed in range(40):
        subs = random_fixed_subsystems(seed, max_sub=2, max_state=2, max_port=2)
        try:
            res = design_topology(subs, "all")
        except InfeasibleDesignError:
            continue
        assert res.verified, f"seed {seed}"
        assert res.bound_report["bound_holds"], f"seed {seed}"
        n_pos = sum(s.m_v0 for s in subs) * sum(s.m_z0 for s in subs)
        if n_pos <= 16:
            best = brute_force_min_topology(subs, max_links=len(res.positions))
            assert best is not None
            assert best.num_free <= len(res.positions), f"seed {seed}"
            checked += 1
    assert checked >= 5


def test_greedy_bound_against_exhaustive_rows(sec7_empty):
    import math
    modes = _modes(sec7_empty)
    rows, _ = greedy_link_rows(modes, 6)
    best = minimal_rows_exhaustive(modes, 6)
    assert best is not None
    assert len(rows) <= (1 + math.log(6)) * max(1, len(best))


def _count_null_space_builds(monkeypatch) -> list:
    """Record the shape of every mode matrix that is factored; the factors
    are built in stacks, so each stack counts its matrices."""
    calls = []
    original = ratfun.svd_factors

    def counting(stack, tol):
        calls.extend([stack.shape[1:]] * stack.shape[0])
        return original(stack, tol)

    monkeypatch.setattr(ratfun, "svd_factors", counting)
    return calls


@pytest.mark.parametrize("instance", ["sec7", "random seed 12"])
def test_each_block_built_once_per_command(monkeypatch, instance):
    # Feasibility, nds0, nds1 and the final verdict all read the subsystems'
    # analysis forms, so each (form, pooled eigenvalue) block is built once.
    if instance == "sec7":
        subs = load_document(sec7_path())[0].subsystems
    else:
        subs = random_fixed_subsystems(12, max_sub=4)
    calls = _count_null_space_builds(monkeypatch)
    result = design_topology(subs, "all")
    assert result.verified
    forms = {id(s.analysis): s.analysis for s in subs}.values()
    empty = StructuredPattern(sum(s.m_v0 for s in subs), sum(s.m_z0 for s in subs), {})
    pooled = ratfun.spectrum(NdsModel(subs, empty)).m
    assert len(calls) == len(forms) * pooled
    assert all(len(a.blocks) == pooled for a in forms)


def test_infeasible_design_builds_no_basis(monkeypatch):
    # seed 5 at max_sub 8: subsystem 5 is uncontrollable at 2, so the
    # design stops at feasibility, which reads ranks only
    subs = random_fixed_subsystems(5, max_sub=8)
    calls = _count_null_space_builds(monkeypatch)
    with pytest.raises(InfeasibleDesignError, match="uncontrollable at 2"):
        design_topology(subs, "all")
    forms = {id(s.analysis): s.analysis for s in subs}.values()
    assert calls and all(not a.blocks for a in forms)
    assert len(calls) == sum(len(a.factors) for a in forms)


def _m_def_at_all_pooled(subs, mode_filter):
    """Reference: M_def with every subsystem ranked at every kept pooled
    eigenvalue, as the design computed it before it ranked each subsystem
    at its own eigenvalues only."""
    nds = NdsModel.unrouted(subs)
    lams = ratfun.filter_modes(ratfun.spectrum(nds).values, mode_filter)
    return sum(int(a.pbh_deficiencies(lams, ratfun.RANK_TOL).sum()) for a in nds.analysis)


@pytest.mark.parametrize("mode_filter", ["all", "unstable"])
def test_m_def_matches_all_pooled_route(mode_filter):
    designs = deficient = 0
    for seed in range(40):
        max_sub = 4 if seed % 2 else 8
        try:
            result = design_topology(random_fixed_subsystems(seed, max_sub), mode_filter)
        except InfeasibleDesignError:
            continue
        want = _m_def_at_all_pooled(random_fixed_subsystems(seed, max_sub), mode_filter)
        assert result.bound_report["M_def"] == want, f"seed {seed}"
        designs += 1
        deficient += want > 0
    assert designs >= 10 and deficient >= 5


@pytest.mark.parametrize("instance", ["sec7", "random seed 12"])
def test_owner_pbh_stacked_once_per_design(monkeypatch, instance):
    # The final verdict's owner rule and M_def rank the same forms at the
    # same values, so each (form, value) goes into one PBH stack.
    if instance == "sec7":
        subs = load_document(sec7_path())[0].subsystems
    else:
        subs = random_fixed_subsystems(12, max_sub=4)
    asked, inside, stacked = [], [], []
    deficiencies, pbh_stack = ratfun.AugmentedSubsystem.pbh_deficiencies, ratfun.pbh_stack

    def ranking(a, lams, tol):
        asked.append(id(a))
        inside.append(id(a))
        try:
            return deficiencies(a, lams, tol)
        finally:
            inside.pop()

    def stacking(a, b, values, dtype):
        if inside:
            stacked.extend((inside[-1], complex(v)) for v in values)
        return pbh_stack(a, b, values, dtype)

    monkeypatch.setattr(ratfun.AugmentedSubsystem, "pbh_deficiencies", ranking)
    monkeypatch.setattr(ratfun, "pbh_stack", stacking)
    assert design_topology(subs, "all").verified
    assert len(asked) > len(set(asked))  # some form is asked twice
    assert stacked and len(stacked) == len(set(stacked))


def test_each_command_builds_its_own_blocks(monkeypatch, tmp_path):
    # A second call on the same file builds as much as the first: nothing
    # computed for one command outlives it.
    calls = _count_null_space_builds(monkeypatch)
    counts = []
    for k in range(2):
        before = len(calls)
        assert main(["design", sec7_path(), "--out", str(tmp_path / f"d{k}.json")]) == 0
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0
