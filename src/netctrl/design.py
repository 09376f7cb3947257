"""Two-stage minimal interconnection design plus a guarded exhaustive search.

Stage 1 picks internal-input rows by a submodular greedy until every
per-mode rank target is reachable, extracts per-mode cover sets, and turns
them into concrete routing entries by greedy clique coloring. Stage 2 wires
any remaining unreachable frequency-dependent source components to the
input-reachable region, one link each.

Ground elements inside this module are 0-based column indices of the
per-mode matrices [Y_i Z_i]: indices below M_v are internal-input rows,
the rest are output-port columns. Reported results are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ratfun, structgraph, verify
from .exactla import float_rank
from .matroid import GenericPattern, NumericColumns, matroid_intersection_rank
from .model import NdsModel, StructuredPattern, SubsystemModel
from .ratfun import ModeData
from .verify import FeasibilityReport


class InfeasibleDesignError(RuntimeError):
    def __init__(self, message: str, report: Optional[FeasibilityReport] = None):
        super().__init__(message)
        self.report = report


def _q2_matrix(md: ModeData) -> np.ndarray:
    return np.hstack([md.y_all, md.z_all])


def g_value(j_set, modes: list[ModeData], rank_tol: float = ratfun.RANK_TOL) -> int:
    """Sum over modes of rank([Y restricted to the chosen rows | Z])."""
    cols = sorted(j_set)
    total = 0
    for md in modes:
        sub = np.hstack([md.y_all[:, cols], md.z_all]) if cols else md.z_all
        total += float_rank(sub, rank_tol)
    return total


def greedy_link_rows(modes: list[ModeData], M_v: int,
                     rank_tol: float = ratfun.RANK_TOL) -> tuple[list[int], list[int]]:
    """Greedy row selection until the coverage function hits its ceiling.

    Returns the selected rows in insertion order together with the trace of
    coverage values (one entry per iteration, starting at the empty set);
    ties go to the smallest row index. Each step ranks every candidate's
    matrix [Y restricted to the chosen rows plus the candidate | Z] of one
    mode with one stacked singular-value call.
    """
    target = sum(md.M_r for md in modes)
    chosen: list[int] = []
    trace = [g_value(chosen, modes, rank_tol)]
    current = trace[0]
    while current < target:
        cands = [a for a in range(M_v) if a not in chosen]
        totals = np.zeros(len(cands), dtype=int)
        if cands:
            cols = np.array([sorted(chosen + [a]) for a in cands])
            for md in modes:
                ys = np.moveaxis(md.y_all[:, cols], 1, 0)
                zs = np.broadcast_to(md.z_all, (len(cands),) + md.z_all.shape)
                totals += float_rank(np.concatenate([ys, zs], axis=2), rank_tol)
        if not cands or totals.max() <= current:
            raise InfeasibleDesignError(
                "coverage cannot reach its ceiling; the feasibility conditions fail")
        # argmax takes the first largest total: ties go to the smallest row
        best = int(np.argmax(totals))
        chosen.append(cands[best])
        current = int(totals[best])
        trace.append(current)
    return chosen, trace


def extract_cover_sets(j_grd: list[int], modes: list[ModeData], M_v: int, M_z: int,
                       rank_tol: float = ratfun.RANK_TOL) -> list[list[int]]:
    """Per-mode column covers: output ports first, then selected rows.

    Port columns are taken greedily on positive rank gain. Selected rows are
    then scanned in ascending order; a row with positive gain is taken, and
    once the mode's target rank is met the remaining selected rows are
    absorbed as well, so every cover stays inside ports + selected rows while
    sharing the full selection wherever it is free to.
    """
    covers = []
    for md in modes:
        q2 = _q2_matrix(md)
        cover: list[int] = []
        rank_now = 0
        for s in range(M_v, M_v + M_z):
            r = float_rank(q2[:, sorted(cover + [s])], rank_tol)
            if r > rank_now:
                cover.append(s)
                rank_now = r
        for s in sorted(j_grd):
            if rank_now == md.M_r:
                cover.append(s)
                continue
            r = float_rank(q2[:, sorted(cover + [s])], rank_tol)
            if r > rank_now:
                cover.append(s)
                rank_now = r
        if rank_now != md.M_r:
            raise InfeasibleDesignError(
                f"cover extraction stalled at rank {rank_now} < {md.M_r}")
        covers.append(sorted(cover))
    return covers


@dataclass(frozen=True)
class ColoringGraph:
    vertices: tuple
    colors: dict                    # vertex -> frozenset of colors (0-based)
    order: tuple                    # vertices in coloring order (pre-colored excluded)
    removed_edges: frozenset        # edges dropped by the multi-color rule


def greedy_color(cover_sets: list[list[int]], M_v: int, M_z: int,
                 mode_targets: list[int]) -> tuple[ColoringGraph, list[tuple[int, int]]]:
    """Color the clique-union graph and read routing entries off the colors.

    Port vertices carry their own column as a fixed color. Among uncolored
    vertices the one seeing the most distinct neighbor colors goes first
    (ties to the larger index). A vertex facing all M_z colors receives the
    largest target of the covers containing it as a block of distinct colors
    and its colored edges are removed for good; otherwise it gets one color,
    preferring the smallest already-open color that does not clash, else the
    smallest fresh one. Row vertex v with color c maps to routing entry
    (v, c).
    """
    vertices = sorted(set().union(*cover_sets)) if cover_sets else []
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for cover in cover_sets:
        for a, b in itertools.combinations(sorted(cover), 2):
            adj[a].add(b)
            adj[b].add(a)
    colors: dict[int, set[int]] = {}
    for v in vertices:
        if v >= M_v:
            colors[v] = {v - M_v}
    removed: set[frozenset] = set()
    order: list[int] = []
    uncolored = [v for v in vertices if v not in colors]

    def neighbor_colors(v: int) -> set[int]:
        out: set[int] = set()
        for u in adj[v]:
            if u in colors and frozenset((u, v)) not in removed:
                out |= colors[u]
        return out

    while uncolored:
        ranked = sorted(uncolored, key=lambda v: (len(neighbor_colors(v)), v))
        v_star = ranked[-1]
        seen = neighbor_colors(v_star)
        if len(seen) >= M_z:
            k_max = max(mode_targets[i] for i, cover in enumerate(cover_sets)
                        if v_star in cover)
            colors[v_star] = set(range(k_max))
            for u in adj[v_star]:
                if u in colors:
                    removed.add(frozenset((u, v_star)))
        else:
            used = set().union(*colors.values()) if colors else set()
            pick = next((c for c in sorted(used) if c not in seen), None)
            if pick is None:
                pick = next(c for c in range(M_z) if c not in used)
            colors[v_star] = {pick}
        order.append(v_star)
        uncolored.remove(v_star)
    graph = ColoringGraph(tuple(vertices), {v: frozenset(c) for v, c in colors.items()},
                          tuple(order), frozenset(removed))
    positions = sorted((v, c) for v, cs in colors.items() if v < M_v for c in cs)
    return graph, positions


def eliminate_pdums(nds: NdsModel, tfms: Optional[list] = None) -> list[dict]:
    """Wire unreachable frequency-dependent source components to the inputs.

    Each qualifying source component receives one link from the smallest
    currently input-reachable output vertex to its smallest internal-input
    vertex; reachability is refreshed after every addition. A residual sweep
    then wires each input-unreachable lambda cycle still left, with provenance
    "residual-cycle". It fires when a lambda-cycle component lies downstream
    only of unreachable source components that hold no lambda edge: the
    source scan skips those, and the links it adds elsewhere do not reach it.
    """
    tfms = tfms if tfms is not None else ratfun.nds_tfms(nds)
    graph = structgraph.build_nacg(nds, tfms)
    scc = structgraph.scc_decompose(graph)
    targets = structgraph.unreachable_source_sccs_with_lambda_edge(graph, scc)
    added: list[dict] = []

    def add_link(into_comp, current_graph, provenance):
        dec = structgraph.scc_decompose(current_graph)
        z_cands = sorted(v for v in current_graph.vertices
                         if v[0] == "z" and dec.input_reachable[v])
        v_cands = sorted(v for v in into_comp if v[0] == "v")
        if not z_cands:
            raise InfeasibleDesignError(
                "no input-reachable output vertex exists to anchor a link")
        if not v_cands:
            raise InfeasibleDesignError(
                "component without internal-input vertex cannot be wired")
        z_l, v_j = z_cands[0], v_cands[0]
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
        cycle = structgraph.find_input_unreachable_lambda_cycle(graph)
        if cycle is None:
            break
        dec = structgraph.scc_decompose(graph)
        comp = dec.components[dec.comp_of[cycle[0]]]
        graph = add_link(comp, graph, "residual-cycle")
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
                    rank_tol: float = ratfun.RANK_TOL, eig_tol: float = ratfun.EIG_TOL,
                    seed: int = 0) -> DesignResult:
    """Two-stage minimal-link design; re-verified end to end.

    mode_filter "unstable" restricts the rank targets to eigenvalues with
    real part >= -1e-9 (the goal is then a stabilizable network rather than
    a fully structurally controllable one).
    """
    if any(s.has_free_params for s in subsystems):
        raise InfeasibleDesignError(
            "topology design expects fixed or absent parameter blocks")
    feas = verify.check_feasibility(subsystems, mode_filter, rank_tol, eig_tol)
    if not feas.feasible:
        raise InfeasibleDesignError(f"infeasible: {feas.detail}", feas)
    nds0 = NdsModel.unrouted(subsystems)
    lams = ratfun.filter_modes(ratfun.spectrum(nds0, eig_tol).values, mode_filter)
    modes = ratfun.modes(nds0, lams, rank_tol)
    M_v, M_z = nds0.M_v, nds0.M_z
    j_grd, _ = greedy_link_rows(modes, M_v, rank_tol)
    covers = extract_cover_sets(j_grd, modes, M_v, M_z, rank_tol)
    coloring, stage1_pos = greedy_color(covers, M_v, M_z, [md.M_r for md in modes])
    stage1_links = [{"position": pos, "provenance": "coloring"} for pos in stage1_pos]
    phi1 = StructuredPattern.from_positions(M_v, M_z, stage1_pos, "phi")
    nds1 = NdsModel(subsystems, phi1)
    stage2_links = eliminate_pdums(nds1)
    all_pos = sorted({d["position"] for d in stage1_links}
                     | {d["position"] for d in stage2_links})
    phi = StructuredPattern.from_positions(M_v, M_z, all_pos, "phi")
    nds_final = NdsModel(subsystems, phi)
    verdict = verify.check_structural_controllability(nds_final, seed=seed,
                                                      rank_tol=rank_tol,
                                                      eig_tol=eig_tol)
    if mode_filter == "all":
        verified = verdict.structurally_controllable
    else:
        unstable_fums = [mc for mc in verdict.fums if ratfun.is_unstable(mc.lam)]
        verified = not unstable_fums and verdict.pdum is None
    m_rmax = max((md.M_r for md in modes), default=0)
    m_def = sum(int(rec.pbh_deficiencies(lams, rank_tol).sum())
                for rec in ratfun.analysis_records(nds0.analysis))
    p_ius = sum(1 for d in stage2_links if d["provenance"].startswith("source"))
    links_total = len(all_pos)
    rhs = (2 * max(m_rmax, 1) * (1 + math.log(max(m_def, 1)))
           * (p_ius + len(j_grd)))
    bound_report = {
        "M_rmax": m_rmax,
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


def minimal_rows_exhaustive(modes: list[ModeData], M_v: int,
                            rank_tol: float = ratfun.RANK_TOL) -> Optional[list[int]]:
    """Smallest row subset with full coverage, by levelwise enumeration."""
    target = sum(md.M_r for md in modes)
    for size in range(M_v + 1):
        for combo in itertools.combinations(range(M_v), size):
            if g_value(combo, modes, rank_tol) == target:
                return list(combo)
    return None


def _structurally_controllable_fixed(positions, base_graph, nds0, modes, q2_oracles,
                                     rank_tol) -> bool:
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
    for md, q2 in zip(modes, q2_oracles):
        if md.M_r == 0:
            continue
        best = matroid_intersection_rank(q1, q2)
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
    # hardest modes first: larger outstanding deficiency fails faster
    base_rank = [float_rank(md.z_all, rank_tol) for md in modes]
    mode_order = sorted(range(len(modes)),
                        key=lambda i: (base_rank[i] - modes[i].M_r, i))
    modes = [modes[i] for i in mode_order]
    q2_oracles = [NumericColumns(_q2_matrix(md), rank_tol) for md in modes]
    tfms = ratfun.nds_tfms(nds0)
    base_graph = structgraph.build_nacg(nds0, tfms)
    all_positions = [(r, c) for r in range(nds0.M_v) for c in range(nds0.M_z)]
    for size in range(cap + 1):
        for combo in itertools.combinations(all_positions, size):
            if _structurally_controllable_fixed(list(combo), base_graph, nds0,
                                                modes, q2_oracles, rank_tol):
                return StructuredPattern.from_positions(nds0.M_v, nds0.M_z,
                                                        list(combo), "phi")
    return None
