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

from .model import AugmentedSubsystem, NdsModel
from .model import assemble_lumped  # noqa: F401 -- perfbench/spans.py patches it here
from .ratfun import SubsystemTfms

Vertex = tuple[str, int, int]
Edge = tuple[Vertex, Vertex, str]

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


def _class_edges(classes: list, src: str, dst: str, index: int) -> list[Edge]:
    """Edge (src, index, p) -> (dst, index, q), 1-based ports, for each nonzero
    class classes[q][p]: "lambda" when frequency dependent, else "const"."""
    return [((src, index, p + 1), (dst, index, q + 1), "lambda" if cls.is_lambda else "const")
            for q, row in enumerate(classes) for p, cls in enumerate(row) if not cls.is_zero]


def build_subsystem_acg(index: int, aug: AugmentedSubsystem,
                        tfms: SubsystemTfms) -> StructureGraph:
    """Connection graph of one subsystem (1-based index) from its entry classes.

    The vertices come from the form's port counts: a subsystem without
    outputs has no class rows to carry its input count.
    """
    verts = [(kind, index, p + 1) for kind in "uvz"
             for p in range(getattr(aug, f"m_{kind}"))]
    edges = (_class_edges(tfms.gzv_classes, "v", "z", index)
             + _class_edges(tfms.gzu_classes, "u", "z", index))
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
    parts = [build_subsystem_acg(i + 1, a, t)
             for i, (a, t) in enumerate(zip(nds.analysis, tfms))]
    edges = [e for g in parts for e in g.edges]
    edges.extend(link_edges(nds, nds.P_pattern.positions()))
    return _graph([v for g in parts for v in g.vertices], edges)


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


def _lambda_cycle_components(g: StructureGraph, scc: SccDecomposition) -> dict:
    """Input-unreachable components that hold an internal lambda edge.

    This is the one moving-mode criterion. Maps each such component index to
    its first internal lambda edge in sorted edge order. Both endpoints of
    an internal edge share a component, so the edge closes into a cycle.
    """
    marked: dict[int, Edge] = {}
    for s, d, kind in sorted(g.edges):
        if kind != "lambda":
            continue
        c = scc.comp_of[s]
        if c == scc.comp_of[d] and c not in marked and not scc.component_reachable(c):
            marked[c] = (s, d, kind)
    return marked


def find_input_unreachable_lambda_cycle(g: StructureGraph,
                                        scc: Optional[SccDecomposition] = None) -> Optional[list]:
    """Witness cycle through a frequency-dependent edge no input can reach.

    The first marked component (by component order) supplies the witness:
    its first internal lambda edge, closed by the shortest path back from the
    edge's head to its tail inside the component, rotated to start at the
    smallest vertex.
    """
    scc = scc if scc is not None else scc_decompose(g)
    marked = _lambda_cycle_components(g, scc)
    if not marked:
        return None
    idx = min(marked)
    s, d, _ = marked[idx]
    back = _path_in_subset(g.successors(), set(scc.components[idx]), d, s)
    return _canonical_cycle(back)


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
    marked = _lambda_cycle_components(g, scc)
    return [scc.components[idx] for idx in sorted(marked) if idx not in has_incoming]


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
