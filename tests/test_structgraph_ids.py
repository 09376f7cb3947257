"""The connection graph on integer ids, checked against the tuple reference.

`tests/oracles.py` keeps the whole-graph queries on vertex tuples; the
library numbers vertices in sorted tuple order and seeks components only
among the input-unreachable vertices. Both must give the same components,
reachability, witnesses, source components and links.
"""

import dataclasses
import random
from fractions import Fraction

from netctrl import ratfun, structgraph, verify
from netctrl.design import InfeasibleDesignError, eliminate_pdums
from netctrl.model import NdsModel, StructuredPattern, SubsystemModel
from netctrl.structgraph import (StructureGraph, build_nacg,
                                 find_input_unreachable_lambda_cycle,
                                 find_input_unreachable_lambda_edge, scc_decompose,
                                 to_dot, unreachable_source_sccs_with_lambda_edge,
                                 vertex_name)

import oracles
from randgen import random_fixed_subsystems


def _partition(dec):
    return {frozenset(c) for c in dec.components}


def _assert_matches_reference(g, label):
    ref = oracles.scc_decompose(g)
    dec = scc_decompose(g)
    assert _partition(dec) == _partition(ref), label
    assert dec.components == ref.components, label
    assert dec.condensation == ref.condensation, label
    assert dec.input_reachable == ref.input_reachable, label
    for v in g.vertices:
        same = {w for w in g.vertices if dec.comp_of[w] == dec.comp_of[v]}
        assert same == {w for w in g.vertices if ref.comp_of[w] == ref.comp_of[v]}, label
    assert (find_input_unreachable_lambda_cycle(g)
            == oracles.find_input_unreachable_lambda_cycle(g)), label
    assert (unreachable_source_sccs_with_lambda_edge(g)
            == oracles.unreachable_source_sccs_with_lambda_edge(g)), label
    assert (find_input_unreachable_lambda_edge(g)
            == oracles.find_input_unreachable_lambda_edge(g)), label


def test_networked_and_lumped_graphs_match_reference(sec7, sec7_designed3, sec7_designed2,
                                                     sec7_empty, random_networks):
    sec7_models = [("sec7", sec7), ("sec7_designed3", sec7_designed3),
                   ("sec7_designed2", sec7_designed2), ("sec7_empty", sec7_empty)]
    witnesses = 0
    for label, model in sec7_models + random_networks:
        tfms = ratfun.nds_tfms(model)
        nacg = build_nacg(model, tfms)
        # the integer graph's tuple views are the graph built from its tuples
        rebuilt = StructureGraph(nacg.vertices, nacg.edges)
        assert rebuilt.vertices == nacg.vertices and rebuilt.edges == nacg.edges, label
        assert rebuilt.succ == nacg.succ and rebuilt.lam == nacg.lam, label
        assert rebuilt == nacg and hash(rebuilt) == hash(nacg), label
        _assert_matches_reference(nacg, label)
        _assert_matches_reference(oracles.build_lumped_acg(model, tfms), label)
        witnesses += find_input_unreachable_lambda_cycle(nacg) is not None
    assert witnesses  # the witness path is exercised


def test_tuple_graphs_with_added_edges_match_reference():
    rng = random.Random(41)
    kinds = ("const", "lambda", "link")
    for trial in range(30):
        verts = [("u", 1, p) for p in range(1, rng.randint(1, 2) + 1)]
        verts += [(k, i, p) for k in "vz" for i in (1, 2)
                  for p in range(1, rng.randint(1, 4) + 1)]
        edges = [(a, b, rng.choice(kinds)) for a in verts for b in verts
                 if b[0] != "u" and rng.random() < 0.15]
        g = StructureGraph(verts, edges)
        _assert_matches_reference(g, f"trial {trial}")
        extra = [(rng.choice(verts), rng.choice(verts[1:]), rng.choice(kinds))
                 for _ in range(rng.randint(1, 4))]
        before = (g.edges, g.succ, g.kinds, g.lam)
        g2 = g.with_edges(extra)
        assert g2.edges == tuple(sorted(set(g.edges) | set(extra)))
        assert (g.edges, g.succ, g.kinds, g.lam) == before  # g itself is unchanged
        assert (g2 == g) == (set(extra) <= set(g.edges))
        _assert_matches_reference(g2, f"trial {trial} with edges")


def _reference_eliminate_pdums(nds):
    """`design.eliminate_pdums` on the whole-graph tuple queries, with a full
    decomposition after every added link."""
    graph = build_nacg(nds, ratfun.nds_tfms(nds))
    scc = oracles.scc_decompose(graph)
    targets = oracles.unreachable_source_sccs_with_lambda_edge(graph, scc)
    added = []

    def add_link(into_comp, current_graph, provenance):
        dec = oracles.scc_decompose(current_graph)
        z_cands = sorted(v for v in current_graph.vertices
                         if v[0] == "z" and dec.input_reachable[v])
        v_cands = sorted(v for v in into_comp if v[0] == "v")
        if not z_cands:
            raise InfeasibleDesignError("no input-reachable output vertex")
        if not v_cands:
            raise InfeasibleDesignError("no internal-input vertex")
        z_l, v_j = z_cands[0], v_cands[0]
        row = nds.offsets["v"][v_j[1] - 1] + (v_j[2] - 1)
        col = nds.offsets["z"][z_l[1] - 1] + (z_l[2] - 1)
        added.append({"position": (row, col), "from": vertex_name(z_l),
                      "to": vertex_name(v_j), "provenance": provenance})
        return current_graph.with_edges([(z_l, v_j, "link")])

    for idx, comp in enumerate(sorted(targets, key=lambda c: c[0])):
        graph = add_link(comp, graph, f"source-component-{idx + 1}")
    for _ in range(len(graph.vertices)):
        cycle = oracles.find_input_unreachable_lambda_cycle(graph)
        if cycle is None:
            break
        dec = oracles.scc_decompose(graph)
        graph = add_link(dec.components[dec.comp_of[cycle[0]]], graph, "residual-cycle")
    return added


def _outcome(fn, nds):
    try:
        return fn(nds)
    except InfeasibleDesignError:
        return "infeasible"


def _without_inputs(sub):
    return dataclasses.replace(sub, B_xu0=[[Fraction(0)] * sub.m_u for _ in range(sub.m_x)],
                               B_zu0=[[Fraction(0)] * sub.m_u for _ in range(sub.m_z0)])


def test_eliminate_pdums_matches_reference(monkeypatch):
    # every subsystem but the first loses its external inputs half the
    # time, so that the routing leaves lambda cycles no input reaches;
    # the residual sweep takes each cycle's component from the witness
    # search, and decomposes no whole graph
    def whole_graph(g):
        raise AssertionError("eliminate_pdums decomposed the whole graph")

    monkeypatch.setattr(structgraph, "scc_decompose", whole_graph)
    wired = set()
    for seed in range(300):
        rng = random.Random(seed)
        subs = [_without_inputs(s) if i and rng.random() < 0.5 else s
                for i, s in enumerate(random_fixed_subsystems(seed, max_sub=4))]
        mv, mz = sum(s.m_v0 for s in subs), sum(s.m_z0 for s in subs)
        density = rng.choice((0.1, 0.25, 0.4))
        phi = StructuredPattern.from_positions(
            mv, mz, [(r, c) for r in range(mv) for c in range(mz) if rng.random() < density],
            "phi")
        nds = NdsModel(subs, phi)
        got = _outcome(eliminate_pdums, nds)
        assert got == _outcome(_reference_eliminate_pdums, nds), f"seed {seed}"
        if got != "infeasible":
            wired.update(d["provenance"].split("-")[0] for d in got)
    assert wired == {"source", "residual"}  # both sweeps add links


def _count_scc_passes(monkeypatch):
    passes = []
    tarjan = structgraph._tarjan

    def counting(succ, roots, skip):
        comps = tarjan(succ, roots, skip)
        passes.append(sum(len(c) for c in comps))
        return comps

    monkeypatch.setattr(structgraph, "_tarjan", counting)
    return passes


def test_check_seeks_components_only_among_unreachable_vertices(monkeypatch, sec7,
                                                                 sec7_designed3):
    unreachable = {}
    for label, model in (("sec7", sec7), ("sec7_designed3", sec7_designed3)):
        reach = build_nacg(model, ratfun.nds_tfms(model)).input_reach()
        unreachable[label] = len(reach) - sum(reach)
    assert unreachable == {"sec7": 7, "sec7_designed3": 5}
    passes = _count_scc_passes(monkeypatch)
    # sec7_designed3 leaves 5 vertices unreachable, but no lambda edge with
    # both ends among them: no component is sought
    assert verify.check_structural_controllability(sec7_designed3).pdum is None
    assert passes == []
    # sec7: one pass over its 7 unreachable vertices, not all 14
    assert verify.check_structural_controllability(sec7).pdum is not None
    assert passes == [7]


def _ported_subsystem(m_v):
    return SubsystemModel(A_xx0=[[0]], A_xv0=[[1] * m_v], B_xu0=[[1]],
                          A_zx0=[[1]], A_zv0=[[0] * m_v], B_zu0=[[0]])


def test_vertex_names_are_distinct():
    # subsystem 1 has 12 internal inputs, subsystems 2..11 two each: port
    # 12 of subsystem 1 and port 2 of subsystem 11 were both "v112"
    subs = [_ported_subsystem(12)] + [_ported_subsystem(2) for _ in range(10)]
    nds = NdsModel(subs, StructuredPattern(sum(s.m_v0 for s in subs),
                                           sum(s.m_z0 for s in subs), {}))
    g = build_nacg(nds, ratfun.nds_tfms(nds))
    names = [vertex_name(v) for v in g.vertices]
    assert len(names) == 54
    assert len(set(names)) == len(names)
    assert vertex_name(("v", 1, 12)) == "v1_12" and vertex_name(("v", 11, 2)) == "v112"
    assert vertex_name(("v", 1, 9)) == "v19"
    node_lines = [line for line in to_dot(g).splitlines() if "[shape=" in line]
    assert len(node_lines) == len(set(node_lines)) == len(g.vertices)
