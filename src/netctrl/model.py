"""System model: subsystem descriptions, channel augmentation, lumped assembly.

Each subsystem is an LTI block whose matrices may depend on unknown
first-principle parameters through a linear fractional transformation. A
parameter block can be

* absent            -- the six analysis matrices are used as given,
* a free pattern    -- unknown entries; the block is absorbed by adding one
                       auxiliary internal input/output channel pair per row/
                       column of the block,
* a fixed matrix    -- known values; the feedback loop is closed in exact
                       arithmetic.

`analysis_form` is the one builder of the parameter-free form for all three.

The interconnection pattern routes internal outputs to internal inputs; its
free entries are the design variables of the topology problem.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

from . import exactla as ex
from .exactla import Mat


class ModelError(ValueError):
    """Raised for inconsistent dimensions or ill-posed fixed parameter blocks."""


@dataclass(frozen=True)
class StructuredPattern:
    """Zero/free pattern of a matrix; entries maps (row, col) -> parameter id."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        for (r, c) in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ModelError(f"pattern position ({r},{c}) out of bounds "
                                 f"for {self.rows}x{self.cols}")
        ids = list(self.entries.values())
        if len(set(ids)) != len(ids):
            raise ModelError("repeated parameter id inside one pattern")

    @property
    def num_free(self) -> int:
        return len(self.entries)

    def positions(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def draw(self, rng: random.Random, bound: int) -> dict[str, Fraction]:
        """An integer value in [1, bound] for each free entry, drawn in entry order."""
        return {pid: Fraction(rng.randint(1, bound)) for pid in self.entries.values()}

    def substitute(self, values: dict[str, Fraction]) -> Mat:
        """Numeric realization: free entries replaced by the given values."""
        m = ex.zeros(self.rows, self.cols)
        for (r, c), pid in self.entries.items():
            m[r][c] = ex.frac(values[pid])
        return m

    @staticmethod
    def from_positions(rows: int, cols: int, positions, prefix: str) -> "StructuredPattern":
        entries = {(r, c): f"{prefix}_{r}_{c}" for r, c in positions}
        return StructuredPattern(rows, cols, entries)


def _dims(m: Mat) -> tuple[int, int]:
    return ex.shape(m)


def _shape_ok(m: Mat, want: tuple[int, int]) -> bool:
    # zero-row matrices degrade to (0, 0) in the list representation
    if want[0] == 0:
        return len(m) == 0
    return _dims(m) == want


def _cols(*block_column: Mat) -> int:
    """Column count of a block column, read off its first matrix with rows
    (a zero-row matrix has lost its column count)."""
    for m in block_column:
        if m:
            return len(m[0])
    return 0


@dataclass(frozen=True)
class SubsystemModel:
    """One subsystem: parameter-independent matrices plus an optional LFT block.

    The six base matrices follow the block layout (state, internal output)
    x (state, internal input, external input); external outputs do not enter
    controllability and are not modelled. E/F/H describe how the parameter
    block enters; they must be present together.
    """

    A_xx0: Mat
    A_xv0: Mat
    B_xu0: Mat
    A_zx0: Mat
    A_zv0: Mat
    B_zu0: Mat
    E1: Mat = field(default_factory=list)
    E2: Mat = field(default_factory=list)
    F1: Mat = field(default_factory=list)
    F2: Mat = field(default_factory=list)
    F3: Mat = field(default_factory=list)
    H: Mat = field(default_factory=list)
    param_block: Optional[StructuredPattern | Mat] = None
    name: str = ""

    def __post_init__(self):
        mx, mv0, mu, mz0 = self.m_x, self.m_v0, self.m_u, self.m_z0
        checks = [
            ("A_xx0", self.A_xx0, (mx, mx)),
            ("A_xv0", self.A_xv0, (mx, mv0)),
            ("B_xu0", self.B_xu0, (mx, mu)),
            ("A_zx0", self.A_zx0, (mz0, mx)),
            ("A_zv0", self.A_zv0, (mz0, mv0)),
            ("B_zu0", self.B_zu0, (mz0, mu)),
        ]
        for label, m, want in checks:
            if not _shape_ok(m, want):
                raise ModelError(f"{self.name or 'subsystem'}: {label} has shape "
                                 f"{_dims(m)}, expected {want}")
        if self.param_block is not None:
            pr, pc = self.param_shape
            lft_checks = [
                ("E1", self.E1, (mx, pr)),
                ("E2", self.E2, (mz0, pr)),
                ("F1", self.F1, (pc, mx)),
                ("F2", self.F2, (pc, mv0)),
                ("F3", self.F3, (pc, mu)),
                ("H", self.H, (pc, pr)),
            ]
            for label, m, want in lft_checks:
                if not _shape_ok(m, want):
                    raise ModelError(f"{self.name or 'subsystem'}: {label} has shape "
                                     f"{_dims(m)}, expected {want}")
            if not self.has_free_params:
                try:  # closing the loop builds the analysis form, or fails
                    self.analysis
                except ZeroDivisionError:
                    raise ModelError(f"{self.name or 'subsystem'}: fixed parameter "
                                     "block makes the local loop ill-posed") from None

    @property
    def m_x(self) -> int:
        return len(self.A_xx0)

    @property
    def m_u(self) -> int:
        return _cols(self.B_xu0, self.B_zu0)

    @property
    def m_v0(self) -> int:
        return _cols(self.A_xv0, self.A_zv0)

    @property
    def m_z0(self) -> int:
        return len(self.A_zx0)

    @property
    def param_shape(self) -> tuple[int, int]:
        if self.param_block is None:
            return (0, 0)
        if isinstance(self.param_block, StructuredPattern):
            return (self.param_block.rows, self.param_block.cols)
        return _dims(self.param_block)

    @property
    def has_free_params(self) -> bool:
        return isinstance(self.param_block, StructuredPattern)

    @cached_property
    def analysis(self) -> AugmentedSubsystem:
        """The analysis form (`analysis_form`), built once per subsystem object,
        so every NdsModel made from this object shares it and its record."""
        return analysis_form(self)


@dataclass
class AugmentedSubsystem:
    """Parameter-free analysis form of a subsystem (extra channels absorbed).

    `record` is the form's analysis record (`ratfun.SubsystemAnalysis`),
    made on first use and kept as long as the form.
    """

    A_xx: Mat
    A_xv: Mat
    B_xu: Mat
    A_zx: Mat
    A_zv: Mat
    B_zu: Mat
    name: str = ""
    record: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    @property
    def m_x(self) -> int:
        return len(self.A_xx)

    @property
    def m_u(self) -> int:
        return _cols(self.B_xu, self.B_zu)

    @property
    def m_v(self) -> int:
        return _cols(self.A_xv, self.A_zv)

    @property
    def m_z(self) -> int:
        return len(self.A_zx)


def close_loop(m: Mat, e: Mat, h: Mat, f: Mat, p: Mat) -> Mat:
    """m + e p (I - h p)^-1 f, exactly: the loop through a block p closed.

    Raises ZeroDivisionError when I - h p is singular (the loop is ill-posed).
    """
    if not (p and p[0]):
        # no loop ports; the zero-row factors would lose m's column count
        return ex.copy(m)
    loop = ex.msub(ex.eye(len(h)), ex.mmul(h, p))
    return ex.madd(m, ex.mmul(ex.mmul(e, p), ex.exact_solve(loop, f)))


def analysis_form(sub: SubsystemModel) -> AugmentedSubsystem:
    """Parameter-free analysis matrices for any kind of parameter block.

    A free block is bordered: its rows become auxiliary internal inputs and
    its columns auxiliary internal outputs, so the parameter entries
    reappear as routing entries. A fixed block is closed into the six
    matrices with `close_loop`; an absent block is an empty loop, which
    leaves them as given.
    """
    if sub.has_free_params:
        return AugmentedSubsystem(
            A_xx=ex.copy(sub.A_xx0),
            A_xv=ex.hstack([sub.A_xv0, sub.E1]),
            B_xu=ex.copy(sub.B_xu0),
            A_zx=ex.vstack([sub.A_zx0, sub.F1]),
            A_zv=ex.vstack([ex.hstack([sub.A_zv0, sub.E2]),
                            ex.hstack([sub.F2, sub.H])]),
            B_zu=ex.vstack([sub.B_zu0, sub.F3]),
            name=sub.name)
    closed = close_loop(
        ex.vstack([ex.hstack([sub.A_xx0, sub.A_xv0, sub.B_xu0]),
                   ex.hstack([sub.A_zx0, sub.A_zv0, sub.B_zu0])]),
        ex.vstack([sub.E1, sub.E2]), sub.H,
        ex.hstack([sub.F1, sub.F2, sub.F3]), sub.param_block or [])
    mx, mv0, mu = sub.m_x, sub.m_v0, sub.m_u
    top, mid = closed[:mx], closed[mx:]
    return AugmentedSubsystem(
        A_xx=ex.submatrix(top, None, range(mx)),
        A_xv=ex.submatrix(top, None, range(mx, mx + mv0)),
        B_xu=ex.submatrix(top, None, range(mx + mv0, mx + mv0 + mu)),
        A_zx=ex.submatrix(mid, None, range(mx)),
        A_zv=ex.submatrix(mid, None, range(mx, mx + mv0)),
        B_zu=ex.submatrix(mid, None, range(mx + mv0, mx + mv0 + mu)),
        name=sub.name)


class NdsModel:
    """A networked system: subsystems plus the structured interconnection."""

    def __init__(self, subsystems: list[SubsystemModel], scm: StructuredPattern):
        if not subsystems:
            raise ModelError("at least one subsystem required")
        self.subsystems = list(subsystems)
        self.analysis = [s.analysis for s in self.subsystems]
        self.scm = scm
        mv0 = sum(s.m_v0 for s in self.subsystems)
        mz0 = sum(s.m_z0 for s in self.subsystems)
        if (scm.rows, scm.cols) != (mv0, mz0):
            raise ModelError(f"interconnection pattern is {scm.rows}x{scm.cols}, "
                             f"but subsystem ports give {mv0}x{mz0}")
        ids: list[str] = list(scm.entries.values())
        for s in self.subsystems:
            if s.has_free_params:
                ids.extend(s.param_block.entries.values())
        if len(set(ids)) != len(ids):
            raise ModelError("parameter ids must be globally distinct")
        # Port map: offsets[kind][i] is the first global index of subsystem
        # i's ports of that kind (x states, u/v inputs, z outputs); the last
        # entry is the port total.
        self.offsets = {
            kind: list(accumulate((getattr(a, f"m_{kind}") for a in self.analysis), initial=0))
            for kind in "xuvz"}
        self.M_x, self.M_u, self.M_v, self.M_z = (self.offsets[k][-1] for k in "xuvz")

    @classmethod
    def unrouted(cls, subsystems: list[SubsystemModel]) -> NdsModel:
        """The network of these subsystems with no routing entries."""
        return cls(subsystems, StructuredPattern(sum(s.m_v0 for s in subsystems),
                                                 sum(s.m_z0 for s in subsystems), {}))

    @property
    def n_sub(self) -> int:
        return len(self.subsystems)

    def locate(self, kind: str, idx: int) -> tuple[int, int]:
        """(subsystem, local port), both 0-based, of global port `idx` of a kind."""
        offs = self.offsets[kind]
        if not 0 <= idx < offs[-1]:
            raise IndexError(idx)
        i = bisect_right(offs, idx) - 1
        return i, idx - offs[i]


@dataclass(frozen=True)
class LumpedPlant:
    """Block-diagonal analysis matrices plus the combined routing pattern."""

    A_xx: Mat
    A_xv: Mat
    B_xu: Mat
    A_zx: Mat
    A_zv: Mat
    B_zu: Mat
    P_pattern: StructuredPattern


def assemble_lumped(nds: NdsModel) -> LumpedPlant:
    """Stack subsystem analysis matrices block-diagonally and lay out the
    routing pattern: interconnection entries in the original port rows/columns,
    per-subsystem parameter patterns on the auxiliary diagonal blocks."""
    augs = nds.analysis
    v_off, z_off = nds.offsets["v"], nds.offsets["z"]
    entries: dict[tuple[int, int], str] = {}
    # interconnection entries, mapped from original port indices to analysis ones
    v_orig_to_aug = [v_off[i] + p for i, sub in enumerate(nds.subsystems)
                     for p in range(sub.m_v0)]
    z_orig_to_aug = [z_off[i] + p for i, sub in enumerate(nds.subsystems)
                     for p in range(sub.m_z0)]
    for (r, c), pid in nds.scm.entries.items():
        entries[(v_orig_to_aug[r], z_orig_to_aug[c])] = pid
    for i, sub in enumerate(nds.subsystems):
        if not sub.has_free_params:
            continue
        r0 = v_off[i] + sub.m_v0
        c0 = z_off[i] + sub.m_z0
        for (r, c), pid in sub.param_block.entries.items():
            entries[(r0 + r, c0 + c)] = pid
    pattern = StructuredPattern(nds.M_v, nds.M_z, entries)
    widths = {kind: [getattr(a, f"m_{kind}") for a in augs] for kind in "xuv"}
    return LumpedPlant(
        A_xx=ex.block_diag([a.A_xx for a in augs], widths["x"]),
        A_xv=ex.block_diag([a.A_xv for a in augs], widths["v"]),
        B_xu=ex.block_diag([a.B_xu for a in augs], widths["u"]),
        A_zx=ex.block_diag([a.A_zx for a in augs], widths["x"]),
        A_zv=ex.block_diag([a.A_zv for a in augs], widths["v"]),
        B_zu=ex.block_diag([a.B_zu for a in augs], widths["u"]),
        P_pattern=pattern)


def diagonalize_parameters(p: StructuredPattern) -> tuple[Mat, int, Mat]:
    """Factor a pattern with k free entries as U * diag(params) * V.

    Column l of U is the unit vector at the row of the l-th free entry and row
    l of V is the unit vector at its column, entries ordered by position, so
    the product reproduces the pattern exactly and each diagonal slot carries
    one parameter.
    """
    positions = p.positions()
    k = len(positions)
    u = ex.zeros(p.rows, k)
    v = ex.zeros(k, p.cols)
    for l, (r, c) in enumerate(positions):
        u[r][l] = ex.ONE
        v[l][c] = ex.ONE
    return u, k, v


@dataclass(frozen=True)
class WellPosednessVerdict:
    well_posed: bool
    trials: int
    seed: int
    detail: str = ""


def check_well_posedness(nds: NdsModel, trials: int = 3, seed: int = 0) -> WellPosednessVerdict:
    """Probabilistic well-posedness test.

    Substitutes random rational values into every free parameter and checks
    that the global loop determinant and each local one are nonzero; one
    successful draw certifies the generic property. Values are drawn from an
    integer range exceeding twice a crude total-degree bound so a false
    negative on every trial is overwhelmingly unlikely.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plant = assemble_lumped(nds)
    pat = plant.P_pattern
    rng = random.Random(seed)
    bound = 2 * max(1, pat.rows + pat.cols) * max(1, pat.num_free)
    last = ""
    for t in range(trials):
        values = pat.draw(rng, bound)
        pval = pat.substitute(values)
        glob = ex.exact_det(ex.msub(ex.eye(nds.M_z), ex.mmul(plant.A_zv, pval)))
        if glob == 0:
            last = "global loop determinant vanished"
            continue
        local_ok = True
        for sub in nds.subsystems:
            if not sub.has_free_params:
                continue
            pr, pc = sub.param_shape
            pv = sub.param_block.substitute(values)
            if ex.exact_det(ex.msub(ex.eye(pc), ex.mmul(sub.H, pv))) == 0:
                local_ok = False
                last = f"local loop of {sub.name or 'a subsystem'} vanished"
                break
        if local_ok:
            return WellPosednessVerdict(True, t + 1, seed)
    return WellPosednessVerdict(False, trials, seed, detail=last or "no witness found")
