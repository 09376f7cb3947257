"""Typed connection digraphs and the reachability/cycle queries on them.

Two graph flavors share one representation:

* the per-plant connection graph over square internal-transfer data
  (internal-output vertices only, plus external inputs), and
* the networked graph: one subgraph per subsystem with internal-input,
  internal-output and external-input vertices, glued by routing-link edges.

Vertices are (kind, subsystem, port) tuples with 1-based subsystem/port
numbers; kind is "u", "v" or "z". Edges carry a kind tag: "const" and
"lambda" for transfer entries (the latter marks genuine frequency
dependence) and "link" for routing entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import NdsModel, assemble_lumped
from .ratfun import EntryClass

Vertex = tuple[str, int, int]
Edge = tuple[Vertex, Vertex, str]

_ZERO = EntryClass("zero")


def vertex_name(v: Vertex) -> str:
    kind, sub, port = v
    return f"{kind}{sub}{port}" if sub else f"{kind}{port}"


@dataclass(frozen=True)
class StructureGraph:
    vertices: tuple
    edges: tuple

    def successors(self) -> dict:
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for s, d, _ in self.edges:
            adj[s].append(d)
        for v in adj:
            adj[v].sort()
        return adj

    def with_edges(self, extra: Iterable[Edge]) -> "StructureGraph":
        return StructureGraph(self.vertices, tuple(sorted(set(self.edges) | set(extra))))


def _graph(vertices: Iterable[Vertex], edges: Iterable[Edge]) -> StructureGraph:
    return StructureGraph(tuple(sorted(set(vertices))), tuple(sorted(set(edges))))


def build_subsystem_acg(index: int, gzv_classes: list, gzu_classes: list) -> StructureGraph:
    """Connection graph of one subsystem (1-based index) from entry classes."""
    m_z = len(gzv_classes)
    m_v = len(gzv_classes[0]) if m_z else 0
    m_u = len(gzu_classes[0]) if gzu_classes else 0
    if gzu_classes and len(gzu_classes) != m_z:
        raise ValueError("class matrices disagree on the output count")
    verts = [("v", index, p + 1) for p in range(m_v)]
    verts += [("z", index, q + 1) for q in range(m_z)]
    verts += [("u", index, p + 1) for p in range(m_u)]
    edges = []
    for q in range(m_z):
        for p in range(m_v):
            cls = gzv_classes[q][p]
            if not cls.is_zero:
                kind = "lambda" if cls.is_lambda else "const"
                edges.append((("v", index, p + 1), ("z", index, q + 1), kind))
        for p in range(m_u):
            cls = gzu_classes[q][p]
            if not cls.is_zero:
                kind = "lambda" if cls.is_lambda else "const"
                edges.append((("u", index, p + 1), ("z", index, q + 1), kind))
    return _graph(verts, edges)


def build_acg(gzv_classes: list, gzu_classes: list) -> StructureGraph:
    """Square-form connection graph: output-to-output and input-to-output edges."""
    k = len(gzv_classes)
    if any(len(row) != k for row in gzv_classes):
        raise ValueError("square class matrix required")
    q_in = len(gzu_classes[0]) if gzu_classes else 0
    verts = [("z", 0, a + 1) for a in range(k)] + [("u", 0, j + 1) for j in range(q_in)]
    edges = []
    for a in range(k):
        for b in range(k):
            cls = gzv_classes[a][b]
            if not cls.is_zero:
                kind = "lambda" if cls.is_lambda else "const"
                edges.append((("z", 0, b + 1), ("z", 0, a + 1), kind))
        for j in range(q_in):
            cls = gzu_classes[a][j]
            if not cls.is_zero:
                kind = "lambda" if cls.is_lambda else "const"
                edges.append((("u", 0, j + 1), ("z", 0, a + 1), kind))
    return _graph(verts, edges)


def link_edges(nds: NdsModel, positions: Iterable[tuple[int, int]]) -> list[Edge]:
    """One routing-link edge z -> v per (input row, output column) position."""
    edges = []
    for r, c in positions:
        j, q = nds.locate("v", r)
        i, p = nds.locate("z", c)
        edges.append((("z", i + 1, p + 1), ("v", j + 1, q + 1), "link"))
    return edges


def build_nacg(nds: NdsModel, tfms: list) -> StructureGraph:
    """Glue per-subsystem graphs with one link edge per routing pattern entry."""
    graphs = [build_subsystem_acg(i + 1, t.gzv_classes, t.gzu_classes)
              for i, t in enumerate(tfms)]
    verts: list[Vertex] = []
    edges: list[Edge] = []
    for g in graphs:
        verts.extend(g.vertices)
        edges.extend(g.edges)
    edges.extend(link_edges(nds, assemble_lumped(nds).P_pattern.positions()))
    return _graph(verts, edges)


def build_lumped_acg(nds: NdsModel, tfms: list) -> StructureGraph:
    """Square-form graph of the diagonalized lumped plant.

    Vertex a stands for the a-th free routing/parameter entry; the transfer
    between two entries is the (output column, input row) selection of the
    block-diagonal internal transfer matrix, so edge existence and frequency
    dependence come straight from the per-subsystem entry classes.
    """
    positions = assemble_lumped(nds).P_pattern.positions()
    k = len(positions)
    outputs = [nds.locate("z", c) for _, c in positions]
    inputs = [nds.locate("v", r) for r, _ in positions]
    gzv_cls = [[tfms[iz].gzv_classes[pz][pv] if iz == iv else _ZERO
                for iv, pv in inputs] for iz, pz in outputs]
    u_off = nds.offsets["u"]
    gzu_cls = [[_ZERO] * nds.M_u for _ in range(k)]
    for a, (iz, pz) in enumerate(outputs):
        for pu in range(nds.analysis[iz].m_u):
            gzu_cls[a][u_off[iz] + pu] = tfms[iz].gzu_classes[pz][pu]
    return build_acg(gzv_cls, gzu_cls)


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple       # tuple[tuple[Vertex, ...], ...]
    comp_of: dict           # Vertex -> component index
    condensation: tuple     # tuple[(int, int), ...] inter-component edges
    input_reachable: dict   # Vertex -> bool

    def component_reachable(self, idx: int) -> bool:
        return any(self.input_reachable[v] for v in self.components[idx])


def _tarjan(vertices, adj) -> list[list[Vertex]]:
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set = set()
    stack: list[Vertex] = []
    counter = [0]
    comps: list[list[Vertex]] = []
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def scc_decompose(g: StructureGraph) -> SccDecomposition:
    """Strongly connected components, condensation edges and input reachability."""
    adj = g.successors()
    comps = _tarjan(list(g.vertices), adj)
    comps = sorted((tuple(sorted(c)) for c in comps), key=lambda c: c[0])
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    cond = set()
    for s, d, _ in g.edges:
        cs, cd = comp_of[s], comp_of[d]
        if cs != cd:
            cond.add((cs, cd))
    reach: dict[Vertex, bool] = {v: False for v in g.vertices}
    frontier = [v for v in g.vertices if v[0] == "u"]
    for v in frontier:
        reach[v] = True
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if not reach[w]:
                    reach[w] = True
                    nxt.append(w)
        frontier = nxt
    return SccDecomposition(tuple(comps), comp_of, tuple(sorted(cond)), reach)


def _path_in_subset(adj, allowed: set, start: Vertex, goal: Vertex) -> Optional[list]:
    """Shortest path start->goal using only allowed vertices (BFS, sorted ties)."""
    if start == goal:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in allowed or w in prev:
                    continue
                prev[w] = v
                if w == goal:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def _canonical_cycle(cycle: list) -> list:
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def find_input_unreachable_lambda_cycle(g: StructureGraph,
                                        scc: Optional[SccDecomposition] = None) -> Optional[list]:
    """Witness cycle through a frequency-dependent edge no input can reach.

    All vertices of a cycle share a component, so it suffices to scan
    input-unreachable components for an internal lambda edge and walk back
    from its head to its tail inside that component.
    """
    scc = scc if scc is not None else scc_decompose(g)
    adj = g.successors()
    for idx, comp in enumerate(scc.components):
        if scc.component_reachable(idx):
            continue
        comp_set = set(comp)
        for s, d, kind in sorted(g.edges):
            if kind != "lambda" or s not in comp_set or d not in comp_set:
                continue
            back = _path_in_subset(adj, comp_set, d, s)
            if back is None:
                continue  # lambda self-structure without a closing path (not in this SCC)
            cycle = back if back[-1] != back[0] or len(back) == 1 else back[:-1]
            return _canonical_cycle(cycle)
    return None


def find_input_unreachable_lambda_edge(g: StructureGraph,
                                       scc: Optional[SccDecomposition] = None) -> Optional[Edge]:
    """First frequency-dependent edge with both endpoints unreachable from inputs."""
    scc = scc if scc is not None else scc_decompose(g)
    for s, d, kind in sorted(g.edges):
        if kind == "lambda" and not scc.input_reachable[s] and not scc.input_reachable[d]:
            return (s, d, kind)
    return None


def unreachable_source_sccs_with_lambda_edge(g: StructureGraph,
                                             scc: Optional[SccDecomposition] = None) -> list:
    """Input-unreachable components with no incoming edge and an internal lambda edge."""
    scc = scc if scc is not None else scc_decompose(g)
    has_incoming = {d for _, d in scc.condensation}
    out = []
    for idx, comp in enumerate(scc.components):
        if idx in has_incoming or scc.component_reachable(idx):
            continue
        comp_set = set(comp)
        if any(kind == "lambda" and s in comp_set and d in comp_set
               for s, d, kind in g.edges):
            out.append(comp)
    return out


_SHAPES = {"u": "box", "v": "ellipse", "z": "diamond"}


def to_dot(g: StructureGraph, name: str = "nacg") -> str:
    """Graphviz rendering: dashed lambda edges, bold link edges."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{vertex_name(v)}" [shape={_SHAPES[v[0]]}];')
    for s, d, kind in g.edges:
        attr = ""
        if kind == "lambda":
            attr = " [style=dashed]"
        elif kind == "link":
            attr = " [style=bold]"
        lines.append(f'  "{vertex_name(s)}" -> "{vertex_name(d)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
