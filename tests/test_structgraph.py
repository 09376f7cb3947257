import random

import pytest

from netctrl import ratfun
from netctrl.cli import parse_document
from netctrl.model import NdsModel
from netctrl.structgraph import (StructureGraph, build_nacg,
                                 find_input_unreachable_lambda_cycle,
                                 find_input_unreachable_lambda_edge,
                                 scc_decompose, to_dot,
                                 unreachable_source_sccs_with_lambda_edge,
                                 vertex_name)

from oracles import build_acg, build_lumped_acg, successors


def _names(vertices):
    return [vertex_name(v) for v in vertices]


def _mk(vertices, edges):
    return StructureGraph(tuple(sorted(vertices)), tuple(sorted(edges)))


V = lambda i, p: ("v", i, p)
Z = lambda i, p: ("z", i, p)
U = lambda i, p: ("u", i, p)


def _subsystem_graph(sub):
    """The connection graph of one subsystem alone, numbered subsystem 1."""
    nds = NdsModel.unrouted([sub])
    return build_nacg(nds, ratfun.nds_tfms(nds))


def test_subsystem_graph_sec7_first(sec7):
    g = _subsystem_graph(sec7.subsystems[0])
    assert set(g.edges) == {
        (V(1, 2), Z(1, 1), "const"),
        (V(1, 1), Z(1, 2), "lambda"),
        (U(1, 1), Z(1, 2), "lambda"),
    }
    # a subsystem without outputs keeps its input vertex: the oscillator
    # driven by a static subsystem (z = u) has no class rows to count v11
    oscillator, _, _ = parse_document({"subsystems": [
        {"A_xx": [[0, 1], [-1, 0]], "A_xv": [[0], [1]], "B_xu": [[], []],
         "A_zx": [], "A_zv": [], "B_zu": []},
        {"A_xx": [], "A_xv": [], "B_xu": [],
         "A_zx": [[]], "A_zv": [[0]], "B_zu": [[1]]}],
        "scm": {"free": [[1, 1]]}})
    parts = [_subsystem_graph(sub) for sub in oscillator.subsystems]
    assert parts[0].vertices == (V(1, 1),) and parts[0].edges == ()
    assert set(parts[1].vertices) == {V(1, 1), Z(1, 1), U(1, 1)}
    assert parts[1].edges == ((U(1, 1), Z(1, 1), "const"),)
    nacg = build_nacg(oscillator, ratfun.nds_tfms(oscillator))
    assert set(nacg.vertices) == {(kind, i + 1, port) for i, part in enumerate(parts)
                                  for kind, _, port in part.vertices}


def test_build_acg_rejects_nonsquare():
    zero = ratfun.EntryClass("zero")
    with pytest.raises(ValueError):
        build_acg([[zero, zero]], [])


def test_build_acg_all_zero_has_no_edges():
    zero = ratfun.EntryClass("zero")
    g = build_acg([[zero, zero], [zero, zero]], [[zero], [zero]])
    assert g.edges == ()
    assert len(g.vertices) == 3


def test_build_acg_single_lambda_entry():
    zero = ratfun.EntryClass("zero")
    lam = ratfun.EntryClass("lambda")
    # entry (2,1) nonzero means an edge from the first output to the second
    g = build_acg([[zero, zero], [lam, zero]], [])
    assert g.edges == ((Z(0, 1), Z(0, 2), "lambda"),)


def test_nacg_sec7_links(sec7):
    g = build_nacg(sec7, ratfun.nds_tfms(sec7))
    links = {(vertex_name(s), vertex_name(d)) for s, d, k in g.edges if k == "link"}
    assert links == {("z31", "v11"), ("z21", "v12"), ("z32", "v21"),
                     ("z12", "v31"), ("z11", "v32")}


def test_nacg_designed_links(sec7_designed3):
    g = build_nacg(sec7_designed3, ratfun.nds_tfms(sec7_designed3))
    links = {(vertex_name(s), vertex_name(d)) for s, d, k in g.edges if k == "link"}
    assert links == {("z12", "v31"), ("z31", "v11"), ("z31", "v21")}


def test_nacg_empty_routing_is_disjoint_union(sec7_empty):
    g = build_nacg(sec7_empty, ratfun.nds_tfms(sec7_empty))
    assert all(k != "link" for _, _, k in g.edges)


def test_scc_dag_gives_singletons():
    g = _mk([Z(1, 1), Z(1, 2), Z(1, 3)],
            [(Z(1, 1), Z(1, 2), "const"), (Z(1, 2), Z(1, 3), "const")])
    dec = scc_decompose(g)
    assert all(len(c) == 1 for c in dec.components)
    assert len(dec.components) == 3


def test_scc_three_cycle():
    g = _mk([Z(1, 1), Z(1, 2), Z(1, 3)],
            [(Z(1, 1), Z(1, 2), "const"), (Z(1, 2), Z(1, 3), "const"),
             (Z(1, 3), Z(1, 1), "const")])
    dec = scc_decompose(g)
    assert len(dec.components) == 1
    assert len(dec.components[0]) == 3


def test_scc_matches_mutual_reachability_oracle():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 9)
        verts = [Z(1, i + 1) for i in range(n)]
        edges = [(a, b, "const") for a in verts for b in verts
                 if a != b and rng.random() < 0.25]
        g = _mk(verts, edges)
        dec = scc_decompose(g)
        adj = successors(g)

        def reach(a):
            seen = {a}
            stack = [a]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        reachable = {v: reach(v) for v in verts}
        for a in verts:
            for b in verts:
                same = dec.comp_of[a] == dec.comp_of[b]
                mutual = b in reachable[a] and a in reachable[b]
                assert same == mutual


def test_sec7_six_vertex_unreachable_component(sec7):
    g = build_nacg(sec7, ratfun.nds_tfms(sec7))
    dec = scc_decompose(g)
    big = max(dec.components, key=len)
    assert sorted(_names(big)) == ["v12", "v21", "v32", "z11", "z21", "z32"]
    assert not any(dec.input_reachable[v] for v in big)


def test_witness_cycle_sec7(sec7):
    g = build_nacg(sec7, ratfun.nds_tfms(sec7))
    cycle = find_input_unreachable_lambda_cycle(g)
    assert _names(cycle) == ["v12", "z11", "v32", "z32", "v21", "z21"]


def test_witness_cycle_absent_after_design(sec7_designed3, sec7_designed2):
    for model in (sec7_designed3, sec7_designed2):
        g = build_nacg(model, ratfun.nds_tfms(model))
        assert find_input_unreachable_lambda_cycle(g) is None


def test_reachable_lambda_cycle_is_no_witness():
    g = _mk([U(1, 1), Z(1, 1), Z(1, 2)],
            [(U(1, 1), Z(1, 1), "const"), (Z(1, 1), Z(1, 2), "lambda"),
             (Z(1, 2), Z(1, 1), "const")])
    assert find_input_unreachable_lambda_cycle(g) is None
    assert find_input_unreachable_lambda_edge(g) is None


def test_unreachable_lambda_edge_needs_both_endpoints(sec7_empty):
    # the first subsystem's dependent edge ends at an input-reachable vertex,
    # so it is not a witness even though its start vertex is unreachable
    g = build_nacg(sec7_empty, ratfun.nds_tfms(sec7_empty))
    dec = scc_decompose(g)
    assert not dec.input_reachable[V(1, 1)]
    assert dec.input_reachable[Z(1, 2)]
    witness = find_input_unreachable_lambda_edge(g)
    assert witness is not None
    assert witness[0] != V(1, 1)


def test_isolated_lambda_edge_is_witness():
    g = _mk([V(1, 1), Z(1, 1)], [(V(1, 1), Z(1, 1), "lambda")])
    assert find_input_unreachable_lambda_edge(g) == (V(1, 1), Z(1, 1), "lambda")
    # no cycle though
    assert find_input_unreachable_lambda_cycle(g) is None


def test_source_components_two_disjoint_cycles():
    g = _mk([U(1, 1), Z(1, 9), V(1, 1), Z(1, 1), V(2, 1), Z(2, 1)],
            [(U(1, 1), Z(1, 9), "const"),
             (V(1, 1), Z(1, 1), "lambda"), (Z(1, 1), V(1, 1), "link"),
             (V(2, 1), Z(2, 1), "lambda"), (Z(2, 1), V(2, 1), "link")])
    comps = unreachable_source_sccs_with_lambda_edge(g)
    assert len(comps) == 2
    # the witness comes from the first component in component order
    assert find_input_unreachable_lambda_cycle(g) == [V(1, 1), Z(1, 1)]


def test_source_components_skip_lambda_free():
    g = _mk([V(1, 1), Z(1, 1)],
            [(V(1, 1), Z(1, 1), "const"), (Z(1, 1), V(1, 1), "link")])
    assert unreachable_source_sccs_with_lambda_edge(g) == []


def test_source_components_fully_reachable(sec7_designed3):
    g = build_nacg(sec7_designed3, ratfun.nds_tfms(sec7_designed3))
    assert unreachable_source_sccs_with_lambda_edge(g) == []


def test_adding_edges_grows_reachability():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(3, 8)
        verts = [U(1, 1)] + [Z(1, i + 1) for i in range(n)]
        edges = [(a, b, "const") for a in verts for b in verts[1:]
                 if a != b and rng.random() < 0.2]
        g = _mk(verts, edges)
        before = {v for v, ok in scc_decompose(g).input_reachable.items() if ok}
        extra = (verts[rng.randint(0, n)], verts[rng.randint(1, n)], "link")
        g2 = g.with_edges([extra])
        after = {v for v, ok in scc_decompose(g2).input_reachable.items() if ok}
        assert before <= after


def test_lumped_and_networked_cycle_tests_agree(sec7, sec7_designed3, sec7_designed2,
                                                sec7_empty, random_networks):
    sec7_models = [("sec7", sec7), ("sec7_designed3", sec7_designed3),
                   ("sec7_designed2", sec7_designed2), ("sec7_empty", sec7_empty)]
    for label, model in sec7_models + random_networks:
        tfms = ratfun.nds_tfms(model)
        nacg = build_nacg(model, tfms)
        lumped = build_lumped_acg(model, tfms)
        a = find_input_unreachable_lambda_cycle(nacg) is not None
        b = find_input_unreachable_lambda_cycle(lumped) is not None
        assert a == b, label


def test_dot_export_styles(sec7):
    g = build_nacg(sec7, ratfun.nds_tfms(sec7))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"v11" -> "z12" [style=dashed];' in dot
    assert '"z11" -> "v32" [style=bold];' in dot
    assert '"u11" [shape=box];' in dot
    assert dot.count("style=bold") == 5
