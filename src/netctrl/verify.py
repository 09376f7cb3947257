"""Top-level verdicts: moving/fixed uncontrollable modes, structural
controllability, design feasibility, and the randomized realization check.

Two independent routes exist for the fixed-mode question: the networked
per-mode test and the lumped matroid-union test on the diagonalized plant.
They must agree; the test suite exercises that agreement, and
`check_structural_controllability` uses the networked route. The networked
route settles each mode with one product rank rank(Y P + Z) at a routing
matrix P whose free entries are unit-scale Gaussians from a fixed-seed
generator; only a mode that draw leaves short of its target runs the exact
matroid intersection of [P^T I] with [Y Z].
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exactla as ex
from . import ratfun, structgraph
from .matroid import (GenericPattern, NumericColumns, matroid_intersection_rank,
                      matroid_union_rank)
from .model import (NdsModel, StructuredPattern, SubsystemModel, assemble_lumped,
                    check_well_posedness, close_loop, diagonalize_parameters)


class IllPosedError(RuntimeError):
    """The model failed its well-posedness check."""


@dataclass(frozen=True)
class ModeCheck:
    lam: complex
    target: int        # required common-independent-set size
    achieved: int

    @property
    def shortfall(self) -> int:
        return self.target - self.achieved

    @property
    def is_fum(self) -> bool:
        return self.shortfall > 0


def routing_pattern_q1(pattern: StructuredPattern) -> StructuredPattern:
    """The [P^T  I] pattern whose column matroid gates every mode test."""
    entries: dict[tuple[int, int], str] = {}
    for (r, c), pid in pattern.entries.items():
        entries[(c, r)] = pid
    for j in range(pattern.cols):
        entries[(j, pattern.rows + j)] = f"_id_{j}"
    return StructuredPattern(pattern.cols, pattern.rows + pattern.cols, entries)


# Seed of the generator behind the per-mode product-rank draws. The draw
# can only send a mode to the exact intersection, never change an answer.
_PRODUCT_RANK_SEED = 0


def mode_rank(md: ratfun.ModeData, pattern: StructuredPattern, q1: GenericPattern,
              rng: np.random.Generator, rank_tol: float = ratfun.RANK_TOL) -> int:
    """Largest common independent set of [P^T I] and [Y Z] at one mode.

    By Cauchy-Binet, rank(Y P + Z) at any real P is at most the generic rank,
    which equals the intersection rank. So one draw of P reaching the target
    M_r settles the mode; a shortfall runs the exact intersection. The draw
    is unit-scale Gaussian: large integer draws make the float rank read low.
    """
    p = np.zeros((pattern.rows, pattern.cols))
    if pattern.entries:
        rows, cols = zip(*pattern.entries)
        p[rows, cols] = rng.standard_normal(len(rows))
    if ex.float_rank(md.y_all @ p + md.z_all, rank_tol) == md.M_r:
        return md.M_r
    q2 = NumericColumns(np.hstack([md.y_all, md.z_all]), rank_tol)
    return matroid_intersection_rank(q1, q2).certified_rank


def check_fum_networked(nds: NdsModel, modes: Optional[list] = None,
                        rank_tol: float = ratfun.RANK_TOL) -> list[ModeCheck]:
    """Per-mode intersection ranks against their null-space targets.

    A mode is fixed-uncontrollable exactly when the intersection rank falls
    short of the total per-subsystem null-space dimension at that eigenvalue.
    Each mode draws one random routing matrix (`mode_rank`); the exact
    intersection runs only on the modes that draw leaves short.
    """
    if modes is None:
        spec = ratfun.spectrum(nds)
        modes = ratfun.modes(nds, spec.values, rank_tol)
    pattern = assemble_lumped(nds).P_pattern
    q1 = GenericPattern(routing_pattern_q1(pattern))
    rng = np.random.default_rng(_PRODUCT_RANK_SEED)
    out = []
    for md in modes:
        if md.M_r == 0:
            out.append(ModeCheck(md.lam, 0, 0))
            continue
        out.append(ModeCheck(md.lam, md.M_r, mode_rank(md, pattern, q1, rng, rank_tol)))
    return out


def fums_of(mode_checks: list[ModeCheck]) -> list[ModeCheck]:
    return [mc for mc in mode_checks if mc.is_fum]


def check_fum_lumped(nds: NdsModel, modes: Optional[list] = None,
                     rank_tol: float = ratfun.RANK_TOL, seed: int = 0) -> list[ModeCheck]:
    """Fixed-mode test on the diagonalized lumped plant via union rank.

    For each pooled eigenvalue the target is full ground rank n + 2k of the
    union of the transposed plant matroid with the two-diagonal parameter
    pattern; a shortfall certifies a fixed uncontrollable mode.
    """
    plant = assemble_lumped(nds)
    u, k, v = diagonalize_parameters(plant.P_pattern)
    n = nds.M_x
    q = nds.M_u
    a_xv_u = ex.mmul(plant.A_xv, u)
    v_a_zx = ex.mmul(v, plant.A_zx)
    v_a_zv_u = ex.mmul(ex.mmul(v, plant.A_zv), u)
    v_b_zu = ex.mmul(v, plant.B_zu)
    lam_list = ([md.lam for md in modes] if modes is not None
                else ratfun.spectrum(nds).values)
    a_xx = ex.to_float(plant.A_xx)
    b_xu = ex.to_float(plant.B_xu).reshape(n, q)
    a_xv_u_f = ex.to_float(a_xv_u).reshape(n, k)
    v_a_zx_f = ex.to_float(v_a_zx).reshape(k, n)
    v_a_zv_u_f = ex.to_float(v_a_zv_u).reshape(k, k)
    v_b_zu_f = ex.to_float(v_b_zu).reshape(k, q)
    pat_entries = {}
    for i in range(k):
        pat_entries[(i, n + i)] = f"_t_{i}"
        pat_entries[(i, n + k + i)] = f"_ts_{i}"
    gen = StructuredPattern(k, n + 2 * k, pat_entries)
    out = []
    for lam in lam_list:
        dtype = complex if abs(complex(lam).imag) > 0 else float
        lam_c = complex(lam) if dtype is complex else complex(lam).real
        top = np.hstack([lam_c * np.eye(n) - a_xx, b_xu, a_xv_u_f]).astype(dtype)
        mid = np.hstack([-v_a_zx_f, v_b_zu_f, v_a_zv_u_f]).astype(dtype)
        bot = np.hstack([np.zeros((k, n + q)), np.eye(k)]).astype(dtype)
        big = np.vstack([top, mid, bot])
        numeric = big.T  # ground elements are the plant rows
        rank = matroid_union_rank(numeric, gen, seed=seed, tol=rank_tol)
        out.append(ModeCheck(lam, n + 2 * k, rank))
    return out


@dataclass(frozen=True)
class Verdict:
    structurally_controllable: bool
    pdum: Optional[list]                 # witness cycle (vertex tuples) or None
    fums: list                           # ModeChecks with shortfall > 0
    per_mode: list                       # every ModeCheck
    rank_tol: float
    eig_tol: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "structurally_controllable": self.structurally_controllable,
            "pdum_witness": ([structgraph.vertex_name(v) for v in self.pdum]
                             if self.pdum else None),
            "fixed_uncontrollable_modes": [
                {"lambda": _fmt_c(mc.lam), "target": mc.target,
                 "achieved": mc.achieved, "shortfall": mc.shortfall}
                for mc in self.fums],
            "per_mode": [
                {"lambda": _fmt_c(mc.lam), "target": mc.target, "achieved": mc.achieved}
                for mc in self.per_mode],
            "tolerances": {"rank": self.rank_tol, "eig": self.eig_tol},
            "seed": self.seed,
        }


def _fmt_c(lam: complex) -> str:
    lam = complex(lam)
    if lam.imag == 0:
        return repr(lam.real)
    return repr(lam)


def check_structural_controllability(nds: NdsModel, seed: int = 0,
                                     rank_tol: float = ratfun.RANK_TOL,
                                     eig_tol: float = ratfun.EIG_TOL) -> Verdict:
    """Full verdict: input-unreachable lambda cycle plus per-mode ranks.

    A moving uncontrollable mode exists exactly when some input-unreachable
    strongly connected component holds an internal frequency-dependent edge;
    the cycle through it is the witness.
    """
    wp = check_well_posedness(nds, seed=seed)
    if not wp.well_posed:
        raise IllPosedError(f"model is ill-posed: {wp.detail}")
    nacg = structgraph.build_nacg(nds, ratfun.nds_tfms(nds))
    cycle = structgraph.find_input_unreachable_lambda_cycle(nacg)
    spec = ratfun.spectrum(nds, eig_tol)
    modes = ratfun.modes(nds, spec.values, rank_tol)
    checks = check_fum_networked(nds, modes, rank_tol)
    fums = fums_of(checks)
    return Verdict(structurally_controllable=cycle is None and not fums, pdum=cycle,
                   fums=fums, per_mode=checks, rank_tol=rank_tol, eig_tol=eig_tol,
                   seed=seed)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    augmented_controllable: list       # (subsystem index, bool)
    port_budget_ok: bool
    max_target: int
    output_ports: int
    external_route_ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "condition_subsystem_controllable": [
                {"subsystem": i + 1, "ok": ok} for i, ok in self.augmented_controllable],
            "condition_port_budget": {"ok": self.port_budget_ok,
                                      "max_target": self.max_target,
                                      "output_ports": self.output_ports},
            "condition_external_route": self.external_route_ok,
            "detail": self.detail,
        }


def check_feasibility(subsystems: list[SubsystemModel], mode_filter: str = "all",
                      rank_tol: float = ratfun.RANK_TOL,
                      eig_tol: float = ratfun.EIG_TOL) -> FeasibilityReport:
    """Existence test for a structurally controllable interconnection.

    (i) each subsystem must be controllable through the widened input matrix
    [B  A_xv]; (ii) the output-port count must cover the largest per-mode
    target; (iii) some subsystem must expose an external-input route to its
    outputs, unless no transfer entry is frequency dependent.
    """
    nds = NdsModel.unrouted(subsystems)
    cond_i = []
    detail = []
    for idx, rec in enumerate(ratfun.analysis_records(nds.analysis)):
        lams = ratfun.filter_modes(rec.eigvals, mode_filter)
        pbh = ratfun.pbh_stack(rec.a_xx, np.hstack([rec.b_xu, rec.a_xv]), lams, complex)
        failing = np.flatnonzero(ex.float_rank(pbh, rank_tol) < rec.m_x)
        if failing.size:
            # the eigenvalue as the spectrum holds it: a real one prints as a float
            detail.append(f"subsystem {idx + 1} uncontrollable at {lams[failing[0]]:.6g}")
        cond_i.append((idx, not failing.size))
    spec = ratfun.spectrum(nds, eig_tol)
    lams = ratfun.filter_modes(spec.values, mode_filter)
    targets = [md.M_r for md in ratfun.modes(nds, lams, rank_tol)]
    max_target = max(targets, default=0)
    cond_ii = nds.M_z >= max_target
    if not cond_ii:
        detail.append(f"output ports {nds.M_z} < largest per-mode target {max_target}")
    tfms = ratfun.nds_tfms(nds)
    any_gzu = any(not c.is_zero for t in tfms for row in t.gzu_classes for c in row)
    any_lambda = any(c.is_lambda for t in tfms for row in t.gzv_classes for c in row)
    cond_iii = any_gzu or not any_lambda
    if not cond_iii:
        detail.append("no external-input route and a frequency-dependent entry exists")
    feasible = all(ok for _, ok in cond_i) and cond_ii and cond_iii
    return FeasibilityReport(feasible, cond_i, cond_ii, max_target, nds.M_z,
                             cond_iii, "; ".join(detail))


def realize_numeric(nds: NdsModel, values: dict[str, Fraction]) -> tuple[ex.Mat, ex.Mat]:
    """Exact closed-loop state/input matrices for one parameter assignment.

    Raises ZeroDivisionError when the assignment makes the loop singular.
    """
    plant = assemble_lumped(nds)
    ab = close_loop(ex.hstack([plant.A_xx, plant.B_xu]), plant.A_xv, plant.A_zv,
                    ex.hstack([plant.A_zx, plant.B_zu]), plant.P_pattern.substitute(values))
    n = nds.M_x
    return (ex.submatrix(ab, None, range(n)),
            ex.submatrix(ab, None, range(n, n + nds.M_u)))


# Rank cutoff of the PBH test on realized closed loops.
_REALIZE_RANK_TOL = 1e-7


def uncontrollable_modes(a: np.ndarray, b: np.ndarray) -> list:
    """Eigenvalues at which [lam I - A, B] loses row rank.

    Realized closed loops can mix entry scales over many orders of magnitude
    (the loop inverse amplifies), so each PBH matrix is ranked after two
    row/column max-norm scaling passes: they leave the rank unchanged and
    keep the singular-value cutoff meaningful.
    """
    n = a.shape[0]
    if n == 0:
        return []
    lams = np.linalg.eigvals(a)
    pbh = ratfun.pbh_stack(a, b, lams, complex)
    for _ in range(2):
        for axis in (2, 1):  # rows, then columns, of each matrix
            norms = np.max(np.abs(pbh), axis=axis, keepdims=True)
            norms[norms == 0] = 1.0
            pbh /= norms
    ranks = ex.float_rank(pbh, _REALIZE_RANK_TOL)
    return [complex(lam) for lam, rank in zip(lams, ranks) if rank < n]


@dataclass(frozen=True)
class RealizationResult:
    controllable_witness: bool
    trials_used: int
    redraws: int
    seed: int
    value_set_size: int
    witness_values: Optional[dict] = None
    last_uncontrollable_modes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "controllable_witness": self.controllable_witness,
            "trials_used": self.trials_used,
            "redraws": self.redraws,
            "seed": self.seed,
            "value_set_size": self.value_set_size,
            "witness_values": ({k: str(v) for k, v in sorted(self.witness_values.items())}
                               if self.witness_values else None),
            "last_uncontrollable_modes": [_fmt_c(l) for l in self.last_uncontrollable_modes],
        }


def randomized_realization_check(nds: NdsModel, seed: int = 0,
                                 trials: int = 5) -> RealizationResult:
    """One-sided randomized controllability certificate.

    Each trial substitutes parameter values drawn from an integer set whose
    size bounds the failure probability by 1/2 per draw, realizes the closed
    loop exactly, and tests controllability numerically. A found witness
    proves structural controllability; absence of one proves nothing and is
    reported as such.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    plant = assemble_lumped(nds)
    k = plant.P_pattern.num_free
    n = max(1, nds.M_x)
    # Without output feedthrough the controllability certificate is a
    # polynomial of total degree <= min(k*n, n^2) and twice that many values
    # suffice for a 1/2 per-draw success bound. A feedthrough loop clears a
    # determinant of degree <= d_loop out of every matrix entry, inflating the
    # certificate degree by the factor (1 + d_loop) plus the well-posedness
    # factor itself.
    feedthrough = any(x != 0 for row in plant.A_zv for x in row)
    d_loop = min(k, nds.M_z, nds.M_v) if (k and feedthrough) else 0
    if d_loop == 0:
        vsize = min(2 * k * n, 2 * n * n) if k else 1
    else:
        vsize = 2 * (n * n * (1 + d_loop) + d_loop)
    vsize = max(vsize, 2)
    # With nothing free to draw, every trial would realize the same system.
    trials = trials if k else 1
    redraws = 0
    last_modes: list = []
    for t in range(1, trials + 1):
        for _ in range(50):
            values = plant.P_pattern.draw(rng, vsize)
            try:
                a_m, b_m = realize_numeric(nds, values)
                break
            except ZeroDivisionError:
                redraws += 1
        else:
            raise RuntimeError("could not draw a well-posed realization")
        a = ex.to_float(a_m)
        b = ex.to_float(b_m).reshape(nds.M_x, nds.M_u)
        last_modes = uncontrollable_modes(a, b)
        if not last_modes:
            return RealizationResult(True, t, redraws, seed, vsize, values, [])
    return RealizationResult(False, trials, redraws, seed, vsize, None, last_modes)
