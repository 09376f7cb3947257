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

Inside, a graph numbers its vertices 0, 1, ... in the sorted order of their
tuples, and keeps integer adjacency and its lambda edges on those ids.
The networked graph numbers the u ports by their global index
(`NdsModel.offsets`), then the v ports, then the z ports, which is exactly
that order, so `build_nacg` fills the adjacency straight from the port map
and the entry classes, and makes no tuple edge. A graph built from tuples
numbers them by sorting. Since ids keep the tuple order, every order the
queries promise (sorted edges, components by smallest vertex, sorted BFS
ties, the witness's rotation) is the same on ids as on tuples. The edge
views (`edges`, `successors()`) and the tuple-keyed decomposition that
`scc_decompose` returns are built only when asked for.

The moving-mode queries compute input reachability first, with one search
from the u vertices. A strongly connected component that holds an
unreachable vertex holds only unreachable vertices, and no edge enters it
from a reachable one. So components are sought among the unreachable
vertices alone (Tarjan 1972), and not at all when no lambda edge has both
ends unreachable.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .model import AugmentedSubsystem, NdsModel
from .model import assemble_lumped  # noqa: F401 -- perfbench/spans.py patches it here
from .ratfun import SubsystemTfms

Vertex = tuple[str, int, int]
Edge = tuple[Vertex, Vertex, str]


def vertex_name(v: Vertex) -> str:
    """`v12` for port 2 of subsystem 1; a port of 10 or more follows an
    underscore (`v1_12`), so distinct vertices get distinct names."""
    kind, sub, port = v
    if not sub:
        return f"{kind}{port}"
    return f"{kind}{sub}{port}" if port < 10 else f"{kind}{sub}_{port}"


class StructureGraph:
    """A connection digraph on vertex ids in sorted tuple order.

    `StructureGraph(vertices, edges)` takes tuples. `succ[i]` holds the heads
    of vertex i's edges in ascending order and `kinds[i]` their kinds; `lam`
    holds the (tail, head) id pairs of the lambda edges in sorted edge order.
    The u vertices, which sort first, are the ids below `n_u`. All of these
    are tuples, so graphs derived by `with_edges` share them safely. Two
    graphs are equal when their vertices and edges are.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        verts = tuple(sorted(set(vertices)))
        ids = {v: i for i, v in enumerate(verts)}
        succ: list[list[int]] = [[] for _ in verts]
        kinds: list[list[str]] = [[] for _ in verts]
        lam = []
        for s, d, kind in sorted(set(edges)):
            i, j = ids[s], ids[d]
            succ[i].append(j)
            kinds[i].append(kind)
            if kind == "lambda":
                lam.append((i, j))
        self.vertices, self.n_u, self.lam = verts, sum(v[0] == "u" for v in verts), tuple(lam)
        self.succ, self.kinds = tuple(map(tuple, succ)), tuple(map(tuple, kinds))

    @classmethod
    def _from_ids(cls, vertices: tuple, succ: tuple, kinds: tuple, lam: tuple,
                  n_u: int) -> "StructureGraph":
        g = cls.__new__(cls)
        g.vertices, g.succ, g.kinds, g.lam, g.n_u = vertices, succ, kinds, lam, n_u
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureGraph):
            return NotImplemented
        return (self.vertices, self.succ, self.kinds) == (other.vertices, other.succ, other.kinds)

    def __hash__(self) -> int:
        return hash((self.vertices, self.succ, self.kinds))

    def __repr__(self) -> str:
        return f"StructureGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    @cached_property
    def _ids(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edges(self) -> tuple:
        verts = self.vertices
        return tuple((verts[i], verts[j], k)
                     for i, (heads, ks) in enumerate(zip(self.succ, self.kinds))
                     for j, k in zip(heads, ks))

    def successors(self) -> dict:
        verts = self.vertices
        return {v: [verts[j] for j in heads] for v, heads in zip(verts, self.succ)}

    def with_edges(self, extra: Iterable[Edge]) -> "StructureGraph":
        succ, kinds, lam = list(self.succ), list(self.kinds), list(self.lam)
        for s, d, kind in extra:
            i, j = self._ids[s], self._ids[d]
            out = list(zip(succ[i], kinds[i]))
            if (j, kind) in out:
                continue
            insort(out, (j, kind))
            succ[i], kinds[i] = tuple(h for h, _ in out), tuple(k for _, k in out)
            if kind == "lambda":
                insort(lam, (i, j))
        return StructureGraph._from_ids(self.vertices, tuple(succ), tuple(kinds), tuple(lam),
                                        self.n_u)

    def input_reach(self) -> bytearray:
        """One flag per vertex, in `vertices` order: is it reachable from a u vertex?"""
        reach = bytearray(len(self.succ))
        stack = list(range(self.n_u))
        reach[:self.n_u] = b"\x01" * self.n_u
        succ = self.succ
        while stack:
            for w in succ[stack.pop()]:
                if not reach[w]:
                    reach[w] = 1
                    stack.append(w)
        return reach


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
    return StructureGraph(verts, edges)


def link_edges(nds: NdsModel, positions: Iterable[tuple[int, int]]) -> list[Edge]:
    """One routing-link edge z -> v per (input row, output column) position."""
    edges = []
    for r, c in positions:
        j, q = nds.locate("v", r)
        i, p = nds.locate("z", c)
        edges.append((("z", i + 1, p + 1), ("v", j + 1, q + 1), "link"))
    return edges


def _out_edges(classes: list, m_in: int) -> list[tuple[tuple, tuple, tuple]]:
    """Per input port p of one subsystem: the output ports q with a nonzero
    class classes[q][p], ascending, their edge kinds, and the lambda ones."""
    out = []
    for p in range(m_in):
        col = [(q, row[p]) for q, row in enumerate(classes) if not row[p].is_zero]
        out.append((tuple(q for q, _ in col),
                    tuple("lambda" if cls.is_lambda else "const" for _, cls in col),
                    tuple(q for q, cls in col if cls.is_lambda)))
    return out


def build_nacg(nds: NdsModel, tfms: list) -> StructureGraph:
    """The networked graph: each subsystem's transfer edges, one link edge per
    entry of `NdsModel.P_pattern`.

    Vertex ids follow the port map: u ports, then v ports, then z ports, each
    by global index. Identical agents share their class matrices, whose
    per-port edges are read once.
    """
    off = nds.offsets
    base = {"u": 0, "v": nds.M_u, "z": nds.M_u + nds.M_v}
    n = base["z"] + nds.M_z
    succ: list = [()] * n
    kinds: list = [()] * n
    lam: list[tuple[int, int]] = []
    local: dict[int, list] = {}
    for kind in "uv":
        offs = off[kind]
        for i, t in enumerate(tfms):
            classes = t.gzu_classes if kind == "u" else t.gzv_classes
            if id(classes) not in local:
                local[id(classes)] = _out_edges(classes, offs[i + 1] - offs[i])
            z0 = base["z"] + off["z"][i]
            s = base[kind] + offs[i]
            for heads, ks, lam_heads in local[id(classes)]:
                succ[s] = tuple([z0 + q for q in heads])
                kinds[s] = ks
                lam.extend((s, z0 + q) for q in lam_heads)
                s += 1
    z0, v0 = base["z"], base["v"]
    links: list[list[int]] = [[] for _ in range(nds.M_z)]
    for r, c in nds.P_pattern.entries:
        links[c].append(v0 + r)
    for c, heads in enumerate(links):
        succ[z0 + c] = tuple(sorted(heads))
        kinds[z0 + c] = ("link",) * len(heads)
    verts = tuple((kind, i + 1, p + 1) for kind in "uvz"
                  for i, (a, b) in enumerate(zip(off[kind], off[kind][1:])) for p in range(b - a))
    return StructureGraph._from_ids(verts, tuple(succ), tuple(kinds), tuple(lam), nds.M_u)


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple       # tuple[tuple[Vertex, ...], ...]
    comp_of: dict           # Vertex -> component index
    condensation: tuple     # tuple[(int, int), ...] inter-component edges
    input_reachable: dict   # Vertex -> bool

    def component_reachable(self, idx: int) -> bool:
        return any(self.input_reachable[v] for v in self.components[idx])


def _tarjan(succ: list, roots: Iterable[int], skip) -> list[list[int]]:
    """Strongly connected components (Tarjan 1972, iterative) of the subgraph
    on the vertices v with `skip[v]` false, searched from `roots` in order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    for root in roots:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if skip[w]:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
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
    n = len(g.succ)
    comps = sorted((sorted(c) for c in _tarjan(g.succ, range(n), bytes(n))), key=lambda c: c[0])
    comp_of = [0] * n
    for k, c in enumerate(comps):
        for v in c:
            comp_of[v] = k
    cond = {(comp_of[s], comp_of[d]) for s, heads in enumerate(g.succ) for d in heads
            if comp_of[s] != comp_of[d]}
    verts = g.vertices
    reach = g.input_reach()
    return SccDecomposition(tuple(tuple(verts[v] for v in c) for c in comps),
                            {v: comp_of[i] for i, v in enumerate(verts)},
                            tuple(sorted(cond)),
                            {v: bool(reach[i]) for i, v in enumerate(verts)})


def _lambda_cycle_components(g: StructureGraph):
    """Input-unreachable components that hold an internal lambda edge.

    This is the one moving-mode criterion. Returns (comp, marked): comp maps
    each unreachable vertex to its component's smallest vertex, and marked
    maps each such label of a component to its first internal lambda edge in
    sorted edge order. Both endpoints of an internal edge share a component,
    so the edge closes into a cycle.
    """
    reach = g.input_reach()
    if not any(not reach[s] and not reach[d] for s, d in g.lam):
        return {}, {}
    comps = _tarjan(g.succ, [v for v in range(len(reach)) if not reach[v]], reach)
    comp = {v: min(c) for c in comps for v in c}
    marked: dict[int, tuple[int, int]] = {}
    for s, d in g.lam:
        c = comp.get(s)
        if c is not None and c == comp.get(d) and c not in marked:
            marked[c] = (s, d)
    return comp, marked


def _path_in_subset(succ, allowed: set, start: int, goal: int) -> Optional[list]:
    """Shortest path start->goal using only allowed vertices (BFS, sorted ties)."""
    if start == goal:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
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


def _witness(g: StructureGraph) -> Optional[tuple[list, tuple]]:
    """The witness cycle of `find_input_unreachable_lambda_cycle` and the
    sorted vertices of the component that holds it, or None."""
    comp, marked = _lambda_cycle_components(g)
    if not marked:
        return None
    label = min(marked)
    s, d = marked[label]
    members = sorted(v for v, c in comp.items() if c == label)
    cycle = _path_in_subset(g.succ, set(members), d, s)
    k = cycle.index(min(cycle))
    verts = g.vertices
    return [verts[v] for v in cycle[k:] + cycle[:k]], tuple(verts[v] for v in members)


def find_input_unreachable_lambda_cycle(g: StructureGraph) -> Optional[list]:
    """Witness cycle through a frequency-dependent edge no input can reach.

    The first marked component (by component order) supplies the witness:
    its first internal lambda edge, closed by the shortest path back from the
    edge's head to its tail inside the component, rotated to start at the
    smallest vertex.
    """
    found = _witness(g)
    return None if found is None else found[0]


def find_input_unreachable_lambda_edge(g: StructureGraph) -> Optional[Edge]:
    """First frequency-dependent edge with both endpoints unreachable from inputs."""
    reach = g.input_reach()
    for s, d in g.lam:
        if not reach[s] and not reach[d]:
            return (g.vertices[s], g.vertices[d], "lambda")
    return None


def unreachable_source_sccs_with_lambda_edge(g: StructureGraph) -> list:
    """Input-unreachable components with no incoming edge and an internal lambda edge."""
    comp, marked = _lambda_cycle_components(g)
    # an edge into an unreachable component starts at an unreachable vertex
    has_incoming = {comp[d] for s, c in comp.items() for d in g.succ[s]
                    if d in comp and comp[d] != c}
    return [tuple(g.vertices[v] for v in sorted(comp) if comp[v] == c)
            for c in sorted(marked) if c not in has_incoming]


_SHAPES = {"u": "box", "v": "ellipse", "z": "diamond"}


def to_dot(g: StructureGraph) -> str:
    """Graphviz rendering of digraph nacg: dashed lambda edges, bold link edges."""
    lines = ["digraph nacg {", "  rankdir=LR;"]
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
