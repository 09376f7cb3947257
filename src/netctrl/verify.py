"""Top-level verdicts: moving/fixed uncontrollable modes, structural
controllability, design feasibility, and the randomized realization check.

Every network `NdsModel` accepts is generically well-posed, so no verdict
runs a well-posedness test (`check_structural_controllability` says why).

`check_structural_controllability` settles the fixed-mode question by the
paper's networked per-mode test. The lumped matroid-union test on the
diagonalized plant is kept as a test-suite reference (tests/oracles.py)
that must agree with it. The networked route settles a mode by the
cheapest of three ranks that can prove it:

- Owners' PBH ranks. Z is block-diagonal by subsystem, and a subsystem's
  block loses exactly the state rows its [lam I - A_xx, B_xu] loses, so
  rank Z = M_r when every subsystem owning lam keeps that matrix at full
  row rank (a subsystem that does not own lam always does). Y P + Z is Z
  at P = 0, no substituted rank exceeds the generic rank, and the generic
  rank, the intersection rank, is at most M_r: such a mode is not fixed.
- One product rank rank(Y P + Z) at a routing matrix P whose free entries
  are unit-scale Gaussians from a fixed-seed generator, read from the
  subsystems' blocks: Y P + Z = [Y Z] [P; I] stacks one row block
  [y_i z_i] [P; I] per subsystem.
- The exact matroid intersection of [P^T I] with [Y Z], for a mode the
  draw leaves short of its target. [Y Z] is block-diagonal by subsystem,
  so its column matroid is the direct sum of the subsystems' [y_i z_i]
  (`ratfun.ModeData.column_blocks`), and each independence question is
  ranked in the one block it touches, at that block's own cutoff. A z
  port's column of [P^T I] is an identity column, so a basis of Z is
  independent in both matroids; the intersection starts there, and by the
  owners' PBH identity it has M_r - d columns, d the mode's owner
  deficiency, so at most d augmentations remain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from . import exactla as ex
from . import ratfun, structgraph
from .matroid import GenericPattern, NumericColumns, matroid_intersection_rank
from .model import LumpedPlant, NdsModel, NetworkLoop, StructuredPattern, SubsystemModel
# perfbench/spans.py patches these two here
from .model import assemble_lumped, check_well_posedness  # noqa: F401


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
    M_r settles the mode. Y P + Z = [Y Z] [P; I] is read from the blocks
    [y_i z_i] of [Y Z], one row block each. The draw is unit-scale
    Gaussian: large integer draws make the float rank read low.

    A shortfall runs the exact intersection, with [Y Z] ranked block by
    block (`NumericColumns`), from a basis of Z (`NumericColumns.basis` of
    the z ports, the columns after Y's): its columns of [P^T I] are identity
    columns, so it is independent in both matroids, and at most the owner
    deficiency d of augmentations remain.
    """
    q = np.vstack([np.zeros((pattern.rows, pattern.cols)), np.eye(pattern.cols)])
    if pattern.entries:
        rows, cols = zip(*pattern.entries)
        q[rows, cols] = rng.standard_normal(len(rows))
    blocks = md.column_blocks()
    if ex.float_rank(np.vstack([block @ q[cols] for block, cols in blocks]),
                     rank_tol) == md.M_r:
        return md.M_r
    q2 = NumericColumns(blocks, rank_tol)
    z_ports = range(pattern.rows, pattern.rows + pattern.cols)
    return matroid_intersection_rank(q1, q2, q2.basis(z_ports)).certified_rank


def check_fum_networked(nds: NdsModel, spec: Optional[ratfun.Spectrum] = None,
                        rank_tol: float = ratfun.RANK_TOL) -> list[ModeCheck]:
    """Per-mode intersection ranks against their null-space targets, at each
    value of the pooled spectrum `spec` (by default the network's own).

    A mode is fixed-uncontrollable exactly when the intersection rank falls
    short of its target M_r, the total per-subsystem null-space dimension
    at that eigenvalue (`ratfun.mode_targets`). A mode whose owners all keep
    [lam I - A_xx, B_xu] at full row rank (`ratfun.owner_deficiencies`) is
    settled at M_r with no null-space block and no product rank: there
    rank Z = M_r, so the product rank at P = 0 already reaches the target,
    and the intersection rank, the generic rank of Y P + Z, is at least
    that and at most M_r. Every other mode with M_r > 0 draws one random
    routing matrix (`mode_rank`), and the exact intersection runs only on
    the modes that draw leaves short. A settled mode still takes its draw
    from the generator, so each other mode draws the same matrix as when
    every mode drew one.
    """
    if spec is None:
        spec = ratfun.spectrum(nds)
    modes = list(zip(spec.values, ratfun.mode_targets(nds, spec.values, rank_tol),
                     ratfun.owner_deficiencies(nds, spec, rank_tol)))
    blocks = iter(ratfun.modes(nds, [lam for lam, target, d in modes if target and d],
                               rank_tol))
    pattern = nds.P_pattern
    q1 = GenericPattern(routing_pattern_q1(pattern))
    rng = np.random.default_rng(_PRODUCT_RANK_SEED)
    out = []
    for lam, target, d in modes:
        if target == 0:
            out.append(ModeCheck(lam, 0, 0))
        elif d == 0:
            rng.standard_normal(len(pattern.entries))  # the draw this mode skips
            out.append(ModeCheck(lam, target, target))
        else:
            out.append(ModeCheck(lam, target, mode_rank(next(blocks), pattern, q1, rng,
                                                        rank_tol)))
    return out


def fums_of(mode_checks: list[ModeCheck]) -> list[ModeCheck]:
    return [mc for mc in mode_checks if mc.is_fum]


@dataclass(frozen=True)
class Verdict:
    structurally_controllable: bool
    pdum: Optional[list]                 # witness cycle (vertex tuples) or None
    fums: list                           # ModeChecks with shortfall > 0
    per_mode: list                       # every ModeCheck
    rank_tol: float
    eig_tol: float

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
        }


def _fmt_c(lam: complex) -> str:
    lam = complex(lam)
    if lam.imag == 0:
        return repr(lam.real)
    return repr(lam)


def check_structural_controllability(nds: NdsModel, rank_tol: float = ratfun.RANK_TOL,
                                     eig_tol: float = ratfun.EIG_TOL,
                                     spec: Optional[ratfun.Spectrum] = None) -> Verdict:
    """Full verdict: input-unreachable lambda cycle plus per-mode ranks.

    A moving uncontrollable mode exists exactly when some input-unreachable
    strongly connected component holds an internal frequency-dependent edge;
    the cycle through it is the witness. The network needs no well-posedness
    test: at P = 0 and free parameter blocks 0 every loop matrix is I, whose
    determinant is 1, so each loop determinant is a nonzero polynomial.
    The spectrum depends on the subsystems alone, so a caller that has
    pooled it at `eig_tol` for the same subsystems passes it as `spec`.
    """
    nacg = structgraph.build_nacg(nds, ratfun.nds_tfms(nds))
    cycle = structgraph.find_input_unreachable_lambda_cycle(nacg)
    if spec is None:
        spec = ratfun.spectrum(nds, eig_tol)
    checks = check_fum_networked(nds, spec, rank_tol)
    fums = fums_of(checks)
    return Verdict(structurally_controllable=cycle is None and not fums, pdum=cycle,
                   fums=fums, per_mode=checks, rank_tol=rank_tol, eig_tol=eig_tol)


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
                      eig_tol: float = ratfun.EIG_TOL,
                      spec: Optional[ratfun.Spectrum] = None) -> FeasibilityReport:
    """Existence test for a structurally controllable interconnection.

    (i) each subsystem must be controllable through the widened input matrix
    [B  A_xv]; (ii) the output-port count must cover the largest per-mode
    target, which needs the ranks of the mode matrices and no null-space
    basis; (iii) some subsystem must expose an external-input route to its
    outputs, unless no transfer entry is frequency dependent. A caller that
    has pooled the subsystems' spectrum at `eig_tol` passes it as `spec`.
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
    if spec is None:
        spec = ratfun.spectrum(nds, eig_tol)
    lams = ratfun.filter_modes(spec.values, mode_filter)
    max_target = max(ratfun.mode_targets(nds, lams, rank_tol), default=0)
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


def realize_numeric(plant: LumpedPlant,
                    values: dict[str, Fraction]) -> tuple[ex.Mat, ex.Mat]:
    """Exact closed-loop state/input matrices of a lumped plant for one
    parameter assignment: the plant's `loop`, read into integers once per
    plant, closed at the drawn routing values.

    Raises exactla.SingularMatrixError when the assignment makes the loop
    singular.
    """
    ab = plant.loop.close(plant.P_pattern.substitute(values))
    n, m = len(plant.A_xx), ex.shape(plant.B_xu)[1]
    return (ex.submatrix(ab, None, range(n)), ex.submatrix(ab, None, range(n, n + m)))


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


def _closures(loop: NetworkLoop, values: dict):
    """The network's loop closed at a draw mod `exactla.PRIME`, then mod each
    next prime below it (`OpenLoop.close_mod`), each as (prime, closed loop,
    its `exactla.krylov_spans_mod`), or (prime, None, None). The first
    raises exactla.SingularMatrixError for an ill-posed draw."""
    block = {pos: values[pid] for pos, pid in loop.nds.P_pattern.entries.items()}
    n, prime = loop.nds.M_x, ex.PRIME
    while True:
        ab = loop.close_mod(block, prime)
        yield prime, ab, None if ab is None else ex.krylov_spans_mod(ab[:, :n], ab[:, n:], prime)
        prime = ex.prev_prime(prime)


def _lift(n: int, closures) -> list[Fraction]:
    """`uncontrollable_polynomial`, lifted from a draw's `_closures`."""
    best, modulus, residues, lifted = -1, 1, [], None
    for prime, ab, spans in closures:
        if ab is None:
            continue
        rank = len(spans[1])
        if rank == n:
            return [ex.ONE]
        if rank > best:
            best, modulus, residues, lifted = rank, 1, [0] * (n - rank), None
        if rank == best:
            coeffs = ex.uncontrollable_charpoly_mod(ab[:, :n], *spans, prime)
            step = pow(modulus, -1, prime)
            residues = [u + modulus * ((c - u) * step % prime)
                        for u, c in zip(residues, coeffs)]
            modulus *= prime
            now = [ex.rational_reconstruction(u, modulus) for u in residues]
            if now == lifted and None not in now:
                return now + [ex.ONE]
            lifted = now


def uncontrollable_polynomial(nds: NdsModel, values: dict) -> list[Fraction]:
    """The uncontrollable polynomial of the network's closed loop at one draw:
    the characteristic polynomial of A on the quotient of the state space by
    the Krylov span of B, from the constant term up (monic). Its roots are
    the loop's uncontrollable modes, with their multiplicities; it is 1 when
    the loop is controllable.

    The loop is closed mod `exactla.PRIME` and then mod each next prime
    below it (`_closures`), and the polynomial is taken mod each
    (`exactla.uncontrollable_charpoly_mod`). A prime whose closed loop has
    no residues, or whose Krylov rank is below the highest seen, is unlucky
    and skipped; a higher rank starts the lift afresh, and a rank n proves
    the polynomial 1. Each coefficient is lifted by the Chinese remainder
    theorem and rational reconstruction (`exactla.rational_reconstruction`)
    until one more prime leaves every coefficient unchanged (`_lift`).
    Raises exactla.SingularMatrixError when the draw makes the loop
    ill-posed.
    """
    return _lift(nds.M_x, _closures(NetworkLoop(nds), values))


def polynomial_modes(c: list) -> list[complex]:
    """The roots of a rational polynomial c (constant term first), each as
    often as its multiplicity, in `ratfun._cluster_key` order: the rational
    ones exact (`exactla.rational_roots`), the others from `numpy.roots` on
    the factor the rational ones leave."""
    roots, rest = ex.rational_roots(c)
    found = [complex(r.numerator / r.denominator) for r in roots]
    if len(rest) > 1:
        found += [complex(x) for x in np.roots([float(x) for x in reversed(rest)])]
    return sorted(found, key=ratfun._cluster_key)


def randomized_realization_check(nds: NdsModel, seed: int = 0,
                                 trials: int = 5) -> RealizationResult:
    """One-sided randomized controllability certificate.

    Each trial substitutes parameter values drawn from an integer set whose
    size bounds the failure probability by 1/2 per draw (`value_set_size`),
    closes the network's loop mod the prime `exactla.PRIME` from the
    subsystems' own blocks (`model.NetworkLoop`, `OpenLoop.close_mod`) and
    takes the Kalman rank of the closed loop there
    (`exactla.krylov_spans_mod`). A rank n mod p is a rank n over the
    rationals, so a witness proves structural controllability. `close_mod`
    alone tells an ill-posed draw, which is redrawn, from an unlucky prime,
    for which it returns the exact closed loop's residues (None, so no
    witness, where p divides a denominator). So the draws, redraws and
    witnesses are those of the exact closure at every trial.

    When no trial gives a witness, which proves nothing and is reported as
    such, `last_uncontrollable_modes` lists the roots of the last draw's
    uncontrollable polynomial, lifted exactly from the last trial's closure
    at `exactla.PRIME` and a few primes below it (`_lift`,
    `polynomial_modes`): each as often as its multiplicity, rational roots
    exact, in `ratfun._cluster_key` order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    loop = NetworkLoop(nds)
    pattern = nds.P_pattern
    k = pattern.num_free
    n = max(1, nds.M_x)
    # Without output feedthrough the controllability certificate is a
    # polynomial of total degree <= min(k*n, n^2) and twice that many values
    # suffice for a 1/2 per-draw success bound. A feedthrough loop clears a
    # determinant of degree <= d_loop out of every matrix entry, inflating the
    # certificate degree by the factor (1 + d_loop) plus the well-posedness
    # factor itself.
    feedthrough = any(x for a in nds.analysis for row in a.A_zv for x in row)
    d_loop = min(k, nds.M_z, nds.M_v) if (k and feedthrough) else 0
    if d_loop == 0:
        vsize = min(2 * k * n, 2 * n * n) if k else 1
    else:
        vsize = 2 * (n * n * (1 + d_loop) + d_loop)
    vsize = max(vsize, 2)
    # With nothing free to draw, every trial would realize the same system.
    trials = trials if k else 1
    redraws = 0
    for t in range(1, trials + 1):
        for _ in range(50):
            values = pattern.draw(rng, vsize)
            closures = _closures(loop, values)
            try:
                _, ab, spans = first = next(closures)
                break
            except ex.SingularMatrixError:  # an ill-posed draw
                redraws += 1
        else:
            raise RuntimeError("could not draw a well-posed realization")
        if ab is not None and len(spans[1]) == nds.M_x:
            return RealizationResult(True, t, redraws, seed, vsize, values, [])
    # the fill-in lifts from the last draw's closure at PRIME onward
    last_modes = polynomial_modes(_lift(nds.M_x, chain([first], closures)))
    return RealizationResult(False, trials, redraws, seed, vsize, None, last_modes)
