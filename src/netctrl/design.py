"""Two-stage minimal interconnection design plus a guarded exhaustive search.

Stage 1 picks internal-input rows by a submodular greedy until every
per-mode rank target is reachable, extracts per-mode cover sets, and turns
them into concrete routing entries by a greedy coloring in which two
columns clash when a cover holds both (`greedy_color`). Stage 2 wires
any remaining unreachable frequency-dependent source components to the
input-reachable region, one link each.

Stage 1 works per subsystem. At every mode [Y_J | Z] is block-diagonal by
subsystem, so its rank is the sum of the ranks of the blocks
[y_i,J | z_i], and adding a row or a port changes only its owner's term.
Each block is ranked alone, at its own cutoff tol * max(1, s0), through
`matroid.BlockRanks`, the cache the fixed-mode intersection ranks [Y Z]
through; a block with no rows, or already at full row rank, gains nothing
and takes no SVD. No dense [Y Z] is built. The exhaustive search orders
its modes by owner deficiency (`ratfun.owner_deficiencies`), which is
M_r - rank Z at every mode.

Ground elements inside this module are 0-based column indices of the
per-mode matrices [Y_i Z_i]: indices below M_v are internal-input rows,
the rest are output-port columns. Reported results are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import ratfun, structgraph, verify
from .matroid import (BlockRanks, GenericPattern, NumericColumns, matroid_intersection_rank,
                      scan_blocks)
from .model import NdsModel, StructuredPattern, SubsystemModel
from .ratfun import ModeData
from .verify import FeasibilityReport


class InfeasibleDesignError(RuntimeError):
    def __init__(self, message: str, report: Optional[FeasibilityReport] = None):
        super().__init__(message)
        self.report = report


class _BlockRanks:
    """Stage 1's view of [Y Z] at each mode, one subsystem block at a time.

    At every mode [Y Z] is block-diagonal by subsystem, so a column set's
    rank is the sum of its parts' ranks in the blocks [y_i z_i] they fall
    in (`ModeData.column_blocks`). `ranks` ranks (block, local columns)
    queries through one `matroid.BlockRanks`: each part alone, at its own
    cutoff, identical agents sharing their block's ranks, and the misses of
    one call stacked per shape and dtype.
    """

    def __init__(self, modes: list[ModeData], tol: float):
        self.ranks = BlockRanks(tol).ranks
        # parts[m][p]: block p of mode m; the blocks' columns are the same at every mode
        self.parts = [[s.yz for s in md.per_sub] for md in modes]
        columns = [cols for _, cols in modes[0].column_blocks()] if modes else []
        m_v = sum(s.y.shape[1] for s in modes[0].per_sub) if modes else 0
        self.where = {c: (p, j) for p, cols in enumerate(columns)
                      for j, c in enumerate(cols)}  # column of [Y Z] -> (block, local column)
        self.z_ports = [frozenset(j for j, c in enumerate(cols) if c >= m_v)
                        for cols in columns]

    def stage1_columns(self, j_set) -> list[frozenset]:
        """Each block's local columns in [Y_J | Z]: its z ports and its rows in J."""
        local = [set(z) for z in self.z_ports]
        for a in j_set:
            p, j = self.where[a]
            local[p].add(j)
        return [frozenset(cols) for cols in local]

    def block_ranks(self, local: list[frozenset]) -> list[list[int]]:
        """rank of block p at each mode m with local columns local[p], as [m][p]."""
        flat = iter(self.ranks([(block, cols) for blocks in self.parts
                                for block, cols in zip(blocks, local)]))
        return [[next(flat) for _ in blocks] for blocks in self.parts]


def g_value(j_set, modes: list[ModeData], rank_tol: float = ratfun.RANK_TOL) -> int:
    """Sum over modes of rank([Y restricted to the chosen rows | Z]), as a
    sum of block ranks (`_BlockRanks`)."""
    if not modes:
        return 0
    ranks = _BlockRanks(modes, rank_tol)
    return sum(map(sum, ranks.block_ranks(ranks.stage1_columns(j_set))))


def greedy_link_rows(modes: list[ModeData], M_v: int, rank_tol: float = ratfun.RANK_TOL,
                     ranks: Optional[_BlockRanks] = None) -> tuple[list[int], list[int]]:
    """Greedy row selection until the coverage function hits its ceiling.

    Returns the selected rows in insertion order together with the trace of
    coverage values (one entry per iteration, starting at the empty set);
    ties go to the smallest row index.

    Coverage is a sum of block ranks (`_BlockRanks`), each block at its own
    cutoff, and row a lies in one block per mode, its owner subsystem's.
    So a candidate's gain is the change of its owner block's rank, summed
    over the modes; a block with no rows or already at full row rank gains
    nothing and takes no SVD. Gains are kept between steps: a step changes
    only the chosen row's blocks, so only the candidates of its subsystem
    are ranked again. A caller that ranks the same modes again passes its
    `_BlockRanks` of them as `ranks`.
    """
    ranks = ranks or _BlockRanks(modes, rank_tol)
    local = ranks.stage1_columns(())
    now = ranks.block_ranks(local)
    gain: dict[int, int] = {}

    def rank_gains(rows: list[int]) -> None:
        queries, owners = [], []
        for a in rows:
            p, j = ranks.where[a]
            gain[a] = 0
            cols = local[p] | {j}
            for m, blocks in enumerate(ranks.parts):
                if now[m][p] < blocks[p].shape[0]:
                    queries.append((blocks[p], cols))
                    owners.append((a, now[m][p]))
        for (a, before), after in zip(owners, ranks.ranks(queries)):
            gain[a] += after - before

    target = sum(md.M_r for md in modes)
    chosen: list[int] = []
    current = sum(map(sum, now))
    trace = [current]
    if current < target:
        rank_gains(list(range(M_v)))
    while current < target:
        # the largest gain, ties to the smallest row
        best = max(gain, key=lambda a: (gain[a], -a), default=None)
        if best is None or gain[best] <= 0:
            raise InfeasibleDesignError(
                "coverage cannot reach its ceiling; the feasibility conditions fail")
        chosen.append(best)
        current += gain.pop(best)
        trace.append(current)
        p, j = ranks.where[best]
        local[p] |= {j}
        grown = [m for m, blocks in enumerate(ranks.parts) if now[m][p] < blocks[p].shape[0]]
        for m, r in zip(grown, ranks.ranks([(ranks.parts[m][p], local[p]) for m in grown])):
            now[m][p] = r
        rank_gains([a for a in gain if ranks.where[a][0] == p])
    return chosen, trace


def extract_cover_sets(j_grd: list[int], modes: list[ModeData], M_v: int, M_z: int,
                       rank_tol: float = ratfun.RANK_TOL,
                       ranks: Optional[_BlockRanks] = None) -> list[list[int]]:
    """Per-mode column covers: output ports first, then selected rows.

    Port columns are taken greedily on positive rank gain. Selected rows are
    then scanned in ascending order; a row with positive gain is taken, and
    once the mode's target rank is met the remaining selected rows are
    absorbed as well, so every cover stays inside ports + selected rows while
    sharing the full selection wherever it is free to.

    A cover's rank is a sum of block ranks (`_BlockRanks`), so each port or
    row test ranks only its owner block, at that block's own cutoff, and
    depends only on the earlier tests in that block. A block with no rows
    or already at full row rank gains nothing and takes no SVD; the target
    is met exactly when every block is at full row rank. So the blocks of
    all modes scan their own ports and rows side by side (`scan_blocks`),
    and each round of their next tests is one `ranks` call. `ranks` is as
    in `greedy_link_rows`.
    """
    if not modes:
        return []
    ranks = ranks or _BlockRanks(modes, rank_tol)
    scan = [*range(M_v, M_v + M_z), *sorted(j_grd)]
    chain: list[list[tuple[int, int]]] = [[] for _ in ranks.z_ports]
    for pos, s in enumerate(scan):  # each block's (scan position, local column)
        p, j = ranks.where[s]
        chain[p].append((pos, j))
    kept = iter(scan_blocks(ranks.ranks, [(block, [j for _, j in chain[p]])
                                          for blocks in ranks.parts
                                          for p, block in enumerate(blocks)]))
    covers = []
    for md, blocks in zip(modes, ranks.parts):
        taken: list[int] = []  # scan positions taken on a gain
        full_at = -1  # scan position at which the last block filled
        for p, block in enumerate(blocks):
            ks = next(kept)
            taken += [chain[p][k][0] for k in ks]
            if ks and len(ks) == len(block):
                full_at = max(full_at, chain[p][ks[-1]][0])
        if len(taken) != md.M_r:
            raise InfeasibleDesignError(
                f"cover extraction stalled at rank {len(taken)} < {md.M_r}")
        absorbed = range(max(M_z, full_at + 1), len(scan))
        covers.append(sorted(scan[pos] for pos in [*taken, *absorbed]))
    return covers


@dataclass(frozen=True)
class ColoringGraph:
    vertices: tuple
    colors: dict                    # vertex -> frozenset of colors (0-based)
    order: tuple                    # vertices in coloring order (pre-colored excluded)
    removed_edges: frozenset        # edges dropped by the multi-color rule


def greedy_color(cover_sets: list[list[int]], M_v: int, M_z: int,
                 mode_targets: list[int]) -> tuple[ColoringGraph, list[tuple[int, int]]]:
    """Color the covers' clique-union graph and read routing entries off the colors.

    Two vertices are adjacent when one cover holds both. Port vertices carry
    their own column as a fixed color. Among uncolored vertices the one
    seeing the most distinct neighbor colors goes first (ties to the larger
    index). A vertex facing all M_z colors receives the largest target of
    the covers containing it as a block of distinct colors and its colored
    edges are removed for good; otherwise it gets one color, preferring the
    smallest already-open color that does not clash, else the smallest fresh
    one. Row vertex v with color c maps to routing entry (v, c).

    No graph is built; this is DSatur's bookkeeping (Brelaz 1979) on the
    covers. A removed edge joins two colored vertices, so an uncolored
    vertex never meets one, and the colors it sees are those of the colored
    vertices that share a cover with it. Each uncolored row keeps that set:
    its covers' port colors up front, then each cover-mate's colors as it is
    colored.
    """
    vertices = sorted(set().union(*cover_sets)) if cover_sets else []
    colors: dict[int, set[int]] = {v: {v - M_v} for v in vertices if v >= M_v}
    used = {v - M_v for v in colors}
    seen: dict[int, set[int]] = {v: set() for v in vertices if v < M_v}  # uncolored rows
    covers_of: dict[int, list[int]] = {v: [] for v in seen}
    rows = [[v for v in cover if v < M_v] for cover in cover_sets]
    for i, cover in enumerate(cover_sets):
        ports = {u - M_v for u in cover if u >= M_v}
        for v in rows[i]:
            seen[v] |= ports
            covers_of[v].append(i)
    removed: set[frozenset] = set()
    order: list[int] = []
    while seen:
        v_star = max(seen, key=lambda v: (len(seen[v]), v))
        sat = seen.pop(v_star)
        if len(sat) >= M_z:
            colors[v_star] = set(range(max(mode_targets[i] for i in covers_of[v_star])))
            removed.update(frozenset((u, v_star)) for i in covers_of[v_star]
                           for u in cover_sets[i] if u != v_star and u not in seen)
        else:  # the smallest open color that does not clash, else the smallest fresh one
            colors[v_star] = {min(used - sat or set(range(M_z)) - used)}
        used |= colors[v_star]
        order.append(v_star)
        for i in covers_of[v_star]:
            for u in rows[i]:
                if u in seen:
                    seen[u] |= colors[v_star]
    graph = ColoringGraph(tuple(vertices), {v: frozenset(c) for v, c in colors.items()},
                          tuple(order), frozenset(removed))
    positions = sorted((v, c) for v, cs in colors.items() if v < M_v for c in cs)
    return graph, positions


def eliminate_pdums(nds: NdsModel) -> list[dict]:
    """Wire unreachable frequency-dependent source components to the inputs.

    Each qualifying source component receives one link from the smallest
    currently input-reachable output vertex to its smallest internal-input
    vertex; reachability is refreshed after every addition. A residual sweep
    then wires the component of each input-unreachable lambda cycle still
    left, as the witness search finds it, with provenance "residual-cycle".
    It fires when a lambda-cycle component lies downstream
    only of unreachable source components that hold no lambda edge: the
    source scan skips those, and the links it adds elsewhere do not reach it.
    """
    graph = structgraph.build_nacg(nds, ratfun.nds_tfms(nds))
    targets = structgraph.unreachable_source_sccs_with_lambda_edge(graph)
    added: list[dict] = []

    def add_link(into_comp, current_graph, provenance):
        # vertices sort by kind, so the first reachable z is the smallest
        z_l = next((v for v, ok in zip(current_graph.vertices, current_graph.input_reach())
                    if ok and v[0] == "z"), None)
        v_cands = sorted(v for v in into_comp if v[0] == "v")
        if z_l is None:
            raise InfeasibleDesignError(
                "no input-reachable output vertex exists to anchor a link")
        if not v_cands:
            raise InfeasibleDesignError(
                "component without internal-input vertex cannot be wired")
        v_j = v_cands[0]
        row = nds.offsets["v"][v_j[1] - 1] + (v_j[2] - 1)
        col = nds.offsets["z"][z_l[1] - 1] + (z_l[2] - 1)
        added.append({"position": (row, col),
                      "from": structgraph.vertex_name(z_l),
                      "to": structgraph.vertex_name(v_j),
                      "provenance": provenance})
        return current_graph.with_edges([(z_l, v_j, "link")])

    for idx, comp in enumerate(sorted(targets, key=lambda c: c[0])):
        graph = add_link(comp, graph, f"source-component-{idx + 1}")
    for _ in range(len(graph.vertices)):
        found = structgraph._witness(graph)
        if found is None:
            break
        graph = add_link(found[1], graph, "residual-cycle")
    return added


@dataclass(frozen=True)
class DesignResult:
    phi: StructuredPattern
    stage1_links: list                # dicts with 0-based "position"
    stage2_links: list
    j_grd: list                       # 0-based rows, insertion order
    cover_sets: list                  # 0-based, per mode
    coloring: ColoringGraph
    mode_lams: list
    mode_filter: str
    bound_report: dict
    verified: bool
    verdict: Optional[verify.Verdict]

    @property
    def positions(self) -> list[tuple[int, int]]:
        return sorted(self.phi.entries)

    def to_dict(self) -> dict:
        return {
            "mode_filter": self.mode_filter,
            "modes": [verify._fmt_c(l) for l in self.mode_lams],
            "j_grd": sorted(a + 1 for a in self.j_grd),
            "cover_sets": [[s + 1 for s in cover] for cover in self.cover_sets],
            "coloring": {str(v + 1): sorted(c + 1 for c in cs)
                         for v, cs in sorted(self.coloring.colors.items())},
            "stage1_links": [_link_dict(d) for d in self.stage1_links],
            "stage2_links": [_link_dict(d) for d in self.stage2_links],
            "phi_positions": [[r + 1, c + 1] for r, c in self.positions],
            "phi_grid": _pattern_grid(self.phi),
            "bound_report": self.bound_report,
            "verified": self.verified,
            "verdict": self.verdict.to_dict() if self.verdict else None,
        }


def _link_dict(d: dict) -> dict:
    out = dict(d)
    r, c = out.pop("position")
    out["position"] = [r + 1, c + 1]
    return out


def _pattern_grid(p: StructuredPattern) -> list[str]:
    return ["".join("*" if (r, c) in p.entries else "0" for c in range(p.cols))
            for r in range(p.rows)]


def design_topology(subsystems: list[SubsystemModel], mode_filter: str = "all",
                    rank_tol: float = ratfun.RANK_TOL,
                    eig_tol: float = ratfun.EIG_TOL) -> DesignResult:
    """Two-stage minimal-link design; re-verified end to end.

    mode_filter "unstable" restricts the rank targets to eigenvalues with
    real part >= -1e-9 (the goal is then a stabilizable network rather than
    a fully structurally controllable one).
    """
    if any(s.has_free_params for s in subsystems):
        raise InfeasibleDesignError(
            "topology design expects fixed or absent parameter blocks")
    # one pooling serves feasibility, the design and the final verdict
    nds0 = NdsModel.unrouted(subsystems)
    spec = ratfun.spectrum(nds0, eig_tol)
    feas = verify.check_feasibility(subsystems, mode_filter, rank_tol, eig_tol, spec)
    if not feas.feasible:
        raise InfeasibleDesignError(f"infeasible: {feas.detail}", feas)
    kept = spec.filtered(mode_filter)
    lams = kept.values
    modes = ratfun.modes(nds0, lams, rank_tol)
    M_v, M_z = nds0.M_v, nds0.M_z
    ranks = _BlockRanks(modes, rank_tol)  # stage 1's one rank cache
    j_grd, _ = greedy_link_rows(modes, M_v, rank_tol, ranks)
    covers = extract_cover_sets(j_grd, modes, M_v, M_z, rank_tol, ranks)
    coloring, stage1_pos = greedy_color(covers, M_v, M_z, [md.M_r for md in modes])
    stage1_links = [{"position": pos, "provenance": "coloring"} for pos in stage1_pos]
    phi1 = StructuredPattern.from_positions(M_v, M_z, stage1_pos, "phi")
    nds1 = NdsModel(subsystems, phi1)
    stage2_links = eliminate_pdums(nds1)
    all_pos = sorted({d["position"] for d in stage1_links}
                     | {d["position"] for d in stage2_links})
    phi = StructuredPattern.from_positions(M_v, M_z, all_pos, "phi")
    nds_final = NdsModel(subsystems, phi)
    verdict = verify.check_structural_controllability(nds_final, rank_tol, eig_tol, spec)
    if mode_filter == "all":
        verified = verdict.structurally_controllable
    else:
        unstable_fums = [mc for mc in verdict.fums if ratfun.is_unstable(mc.lam)]
        verified = not unstable_fums and verdict.pdum is None
    m_def = sum(ratfun.owner_deficiencies(nds0, kept, rank_tol))
    p_ius = sum(1 for d in stage2_links if d["provenance"].startswith("source"))
    links_total = len(all_pos)
    rhs = (2 * max(feas.max_target, 1) * (1 + math.log(max(m_def, 1)))
           * (p_ius + len(j_grd)))
    bound_report = {
        "M_rmax": feas.max_target,
        "M_def": m_def,
        "p_ius": p_ius,
        "j_grd_size": len(j_grd),
        "links_total": links_total,
        "bound_rhs": rhs,
        "bound_holds": links_total == 0 or links_total <= rhs,
    }
    return DesignResult(phi=phi, stage1_links=stage1_links, stage2_links=stage2_links,
                        j_grd=j_grd, cover_sets=covers, coloring=coloring,
                        mode_lams=lams, mode_filter=mode_filter,
                        bound_report=bound_report, verified=verified,
                        verdict=verdict)


def _structurally_controllable_fixed(positions, base_graph, nds0, modes, q2_oracles,
                                     starts) -> bool:
    """Candidate test shared by the exhaustive search; positions are 0-based."""
    graph = base_graph.with_edges(structgraph.link_edges(nds0, positions))
    # An unreachable lambda edge is a moving mode on a cycle and comes with a
    # fixed mode off every cycle, so it rejects before any intersection.
    if structgraph.find_input_unreachable_lambda_edge(graph) is not None:
        return False
    # design instances carry no free subsystem blocks, so the routing
    # pattern is the whole parameter pattern
    pattern = StructuredPattern.from_positions(nds0.M_v, nds0.M_z, positions, "phi")
    q1 = GenericPattern(verify.routing_pattern_q1(pattern))
    for md, q2, start in zip(modes, q2_oracles, starts):
        if md.M_r == 0:
            continue
        best = matroid_intersection_rank(q1, q2, start)
        if best.certified_rank < md.M_r:
            return False
    return True


def brute_force_min_topology(subsystems: list[SubsystemModel],
                             max_links: Optional[int] = None,
                             rank_tol: float = ratfun.RANK_TOL,
                             eig_tol: float = ratfun.EIG_TOL) -> Optional[StructuredPattern]:
    """First structurally controllable pattern in levelwise canonical order.

    Guarded: without an explicit link cap the search refuses grids with more
    than 36 candidate positions.
    """
    if any(s.has_free_params for s in subsystems):
        raise InfeasibleDesignError("exhaustive search expects fixed parameter blocks")
    nds0 = NdsModel.unrouted(subsystems)
    n_pos = nds0.M_v * nds0.M_z
    if max_links is None and n_pos > 36:
        raise InfeasibleDesignError(
            f"search space has {n_pos} positions (> 36); pass max_links to cap it")
    cap = min(max_links if max_links is not None else n_pos, n_pos)
    spec = ratfun.spectrum(nds0, eig_tol)
    modes = ratfun.modes(nds0, spec.values, rank_tol)
    # hardest modes first: a larger owner deficiency (M_r - rank Z) fails faster
    deficiency = ratfun.owner_deficiencies(nds0, spec, rank_tol)
    mode_order = sorted(range(len(modes)), key=lambda i: (-deficiency[i], i))
    modes = [modes[i] for i in mode_order]
    q2_oracles = [NumericColumns(md.column_blocks(), rank_tol) for md in modes]
    # a basis of Z starts every candidate's intersection, as in
    # `verify.mode_rank`: it does not depend on the pattern
    z_ports = range(nds0.M_v, nds0.M_v + nds0.M_z)
    starts = [q2.basis(z_ports) for q2 in q2_oracles]
    tfms = ratfun.nds_tfms(nds0)
    base_graph = structgraph.build_nacg(nds0, tfms)
    all_positions = [(r, c) for r in range(nds0.M_v) for c in range(nds0.M_z)]
    for size in range(cap + 1):
        for combo in itertools.combinations(all_positions, size):
            if _structurally_controllable_fixed(list(combo), base_graph, nds0,
                                                modes, q2_oracles, starts):
                return StructuredPattern.from_positions(nds0.M_v, nds0.M_z,
                                                        list(combo), "phi")
    return None
