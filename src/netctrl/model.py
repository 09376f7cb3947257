"""System model: subsystems, channel augmentation, the network and its pattern.

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
from math import lcm
from typing import Optional

import numpy as np

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
            raise ModelError("parameter ids must be globally distinct")

    @property
    def num_free(self) -> int:
        return len(self.entries)

    def positions(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def draw(self, rng: random.Random, bound: int) -> dict[str, int]:
        """An integer value in [1, bound] for each free entry, drawn in entry order."""
        return {pid: rng.randint(1, bound) for pid in self.entries.values()}

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


def _shape_ok(m: Mat, want: tuple[int, int]) -> bool:
    # zero-row matrices degrade to (0, 0) in the list representation
    if want[0] == 0:
        return len(m) == 0
    return ex.shape(m) == want


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
                                 f"{ex.shape(m)}, expected {want}")
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
                                     f"{ex.shape(m)}, expected {want}")
            if not self.has_free_params:
                try:  # closing the loop builds the analysis form, or fails
                    self.analysis
                except ex.SingularMatrixError:
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
        return ex.shape(self.param_block)

    @property
    def has_free_params(self) -> bool:
        return isinstance(self.param_block, StructuredPattern)

    @cached_property
    def analysis(self) -> AugmentedSubsystem:
        """The analysis form (`analysis_form`), built once per subsystem object,
        so every NdsModel made from this object shares it and its record.
        Without a parameter block it holds this subsystem's own matrices."""
        return analysis_form(self)

    def repeat(self, name: str, prefix: str) -> SubsystemModel:
        """This subsystem under another name, its free block's parameter ids
        made from `prefix` (`StructuredPattern.from_positions`).

        The repeat shares this subsystem's matrices and its analysis form,
        and with the form the form's record. The form depends on neither the
        name nor the ids; it keeps the name of the subsystem that built it.
        The shapes were checked when this subsystem was made, and are not
        checked again.
        """
        twin = object.__new__(SubsystemModel)
        # frozen: fill __dict__ directly, as cached_property does
        twin.__dict__.update(self.__dict__, name=name, analysis=self.analysis)
        if self.has_free_params:
            p = self.param_block
            twin.__dict__["param_block"] = StructuredPattern.from_positions(
                p.rows, p.cols, p.entries, prefix)
        return twin


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


def _integer_block(p: Mat) -> tuple[list, int]:
    """p as P / s with P integral: each row's nonzeros of P as (column, value), and s."""
    s = lcm(*[x.denominator for row in p for x in row])
    return [[(j, x.numerator * (s // x.denominator)) for j, x in enumerate(row) if x]
            for row in p], s


def _nonzeros(row: list) -> list:
    return [(k, x) for k, x in enumerate(row) if x]


def _scaled_nonzeros(*parts: list) -> tuple[list, int]:
    """The nonzeros of each part of one row as (column, integer), all scaled
    by t, the lcm of their denominators; and t."""
    nonzeros = [_nonzeros(part) for part in parts]
    t = lcm(*[x.denominator for nz in nonzeros for _, x in nz])
    return [[(k, x.numerator * (t // x.denominator)) for k, x in nz]
            for nz in nonzeros], t


def _times_block(nonzeros: list, block: tuple[list, int], width: int) -> list[int]:
    """a P in integers, for an integer row a given by its nonzeros and the
    block p = P / s."""
    p_nonzeros = block[0]
    acc = [0] * width
    for k, x in nonzeros:
        for j, y in p_nonzeros[k]:
            acc[j] += x * y
    return acc


class OpenLoop:
    """m + e p (I - h p)^-1 f before a block p is chosen: the one exact loop
    closure. The rows of h, f and e are read once into integer nonzeros, so
    closing the loop at another p rescans none of them. `close_rows` is its
    integer core, on a block in integers (`_integer_block`), and `close`
    builds Fractions from it. Realization closes it mod a prime instead
    (`close_mod`), from the residues of the same rows, which `NetworkLoop`
    reads per subsystem instead; only `close_mod` tells an ill-posed loop
    from an unlucky prime.
    """

    def __init__(self, m: Mat, e: Mat, h: Mat, f: Mat):
        self.m = m
        self.n = len(h)
        self.p_rows = len(h[0]) if h else len(e[0]) if e else 0
        self.f_cols = len(f[0]) if f else 0
        # row r of [h | f], and row r of e, each scaled by its own t
        self.loop = [_scaled_nonzeros(h_row, f[r] if f else [])
                     for r, h_row in enumerate(h)]
        self.out = [_scaled_nonzeros(e_row) for e_row in e]
        self._residues: dict[int, Optional[tuple]] = {}

    def loop_rows(self, block: tuple[list, int]) -> list[list[int]]:
        """[I - h p | f] as integer rows: row r scaled by s t, with p = P / s
        and t the lcm of the denominators in h's and f's row r."""
        s = block[1]
        n = self.n
        rows = []
        for r, ((h_nz, f_nz), t) in enumerate(self.loop):
            row = [-x for x in _times_block(h_nz, block, n)] + [0] * self.f_cols
            row[r] += s * t
            for k, x in f_nz:
                row[n + k] = s * x
            rows.append(row)
        return rows

    def close_rows(self, block: tuple[list, int]) -> tuple[list[list[int]], list[int]]:
        """e p (I - h p)^-1 f in integers, for the block p = P / s given as
        (row nonzeros of P, s) (`_integer_block`): (adds, dens), with row r
        of the closed loop equal to m's row r plus adds[r] / dens[r].

        The loop [I - h p | f] is solved in integer rows (`exactla.int_solve`)
        for Y = d (I - h p)^-1 f; adds[r] is row r of e p, in integers by
        `_times_block`, times Y, and dens[r] = s t d. Raises
        exactla.SingularMatrixError when I - h p is singular (the loop is
        ill-posed).
        """
        width = len(self.m[0]) if self.m else 0
        if not (self.n and self.p_rows):
            # no loop ports; the zero-row factors would lose m's column count
            return [[0] * width for _ in self.m], [1] * len(self.m)
        n = self.n
        y, d = ex.int_solve(self.loop_rows(block), n)
        y_nonzeros = [_nonzeros(row) for row in y]
        sd = block[1] * d
        adds, dens = [], []
        for (e_nz,), t in self.out:
            add = [0] * width
            for j, x in enumerate(_times_block(e_nz, block, n)):
                if x:
                    for k, v in y_nonzeros[j]:
                        add[k] += x * v
            adds.append(add)
            dens.append(sd * t)
        return adds, dens

    def residues(self, prime: int) -> Optional[tuple]:
        """(m, h, f, e) mod prime as int64 arrays, read from m and from the
        scaled nonzeros of the loop's rows, once per prime; None when the
        prime divides the denominator of a nonzero row."""
        if prime not in self._residues:
            self._residues[prime] = self._reduce(prime)
        return self._residues[prime]

    def _reduce(self, prime: int) -> Optional[tuple]:
        m = np.zeros((len(self.m), len(self.m[0]) if self.m else self.f_cols), np.int64)
        for r, row in enumerate(self.m):
            for k, x in enumerate(row):
                if x:
                    if not x.denominator % prime:
                        return None
                    m[r, k] = x.numerator * pow(x.denominator, -1, prime) % prime
        hf = np.zeros((self.n, self.p_rows + self.f_cols), np.int64)
        e = np.zeros((len(self.out), self.p_rows), np.int64)
        for rows, out, offsets in ((self.loop, hf, (0, self.p_rows)), (self.out, e, (0,))):
            for r, (parts, t) in enumerate(rows):
                if not any(parts):
                    continue
                if not t % prime:
                    return None
                inv = pow(t, -1, prime)
                for nonzeros, offset in zip(parts, offsets):
                    for k, x in nonzeros:
                        out[r, offset + k] = x * inv % prime
        return m, hf[:, :self.p_rows], hf[:, self.p_rows:], e

    def close_mod(self, p: dict[tuple[int, int], int], prime: int) -> Optional[np.ndarray]:
        """m + e p (I - h p)^-1 f mod prime, for a block p of integers given
        by its nonzero entries {(row, col): value}, as an int64 array.

        The loop is solved mod prime from the residues of its rows
        (`residues`), on its loop rows S only: the rows of h with a nonzero
        residue. Every other row of I - h p is an identity row, so there
        y = (I - h p)^-1 f is f's row, and on S (I - h_S p_S) y_S =
        f_S + h_S p_R f_R, R the other rows and p_S, p_R the columns of p
        they index (`exactla.solve_mod`). I - h p is block-triangular in
        (S, R), so its determinant is that of I - h_S p_S; a nonzero one mod
        prime is a nonzero one over the rationals, so the result proves the
        loop well-posed. When I - h_S p_S is singular mod prime, or the
        prime divides a row's denominator, the exact `close_rows` runs
        instead (`_close_exact_mod`): it raises exactla.SingularMatrixError
        for an ill-posed loop; otherwise the prime is unlucky, and the result
        is the exact closed loop's residues, or None when the prime divides
        the denominator of one of its entries.
        """
        res = self.residues(prime)
        if res is not None:
            m, h, f, e = res
            if not p:
                return m.copy()
            block = np.zeros((self.p_rows, self.n), np.int64)
            rows, cols = np.array(list(p), np.int64).T
            block[rows, cols] = [x % prime for x in p.values()]
            on_loop = h.any(axis=1)
            loop, rest = np.flatnonzero(on_loop), np.flatnonzero(~on_loop)
            hp = ex.mod_matmul(h[loop], block, prime)
            lhs = -hp[:, loop] % prime
            lhs[np.diag_indices(loop.size)] += 1
            rhs = (f[loop] + ex.mod_matmul(hp[:, rest], f[rest], prime)) % prime
            y_loop = ex.solve_mod(lhs % prime, rhs, prime)
            if y_loop is not None:
                y = f.copy()
                y[loop] = y_loop
                return (m + ex.mod_matmul(ex.mod_matmul(e, block, prime), y, prime)) % prime
        return self._close_exact_mod(p, prime)

    def _close_exact_mod(self, p: dict[tuple[int, int], int], prime: int) -> Optional[np.ndarray]:
        """`close_mod`'s fallback: the exact closed loop at the integer block
        p (`close_rows`) mod prime, or None when prime divides one of its
        denominators."""
        rows = [[] for _ in range(self.p_rows)]
        for (r, c), x in p.items():
            rows[r].append((c, x))
        return ex.mod_matrix(self._fractions(*self.close_rows((rows, 1))), prime)

    def close(self, p: Mat) -> Mat:
        """m + e p (I - h p)^-1 f, exactly: `close_rows` at
        `_integer_block(p)`, with one Fraction per output entry it changes."""
        return self._fractions(*self.close_rows(_integer_block(p)))

    def _fractions(self, adds: list[list[int]], dens: list[int]) -> Mat:
        """The closed loop m + adds / dens, row by row, as Fractions."""
        return [[Fraction(x.numerator * den + v * x.denominator, x.denominator * den)
                 if v else x for x, v in zip(m_row, add)]
                for m_row, add, den in zip(self.m, adds, dens)]


def analysis_form(sub: SubsystemModel) -> AugmentedSubsystem:
    """Parameter-free analysis matrices for any kind of parameter block.

    Without a block, the form is the subsystem's six matrices themselves,
    shared, not copied: no analysis writes into a matrix. A free block is
    bordered: its rows become auxiliary internal inputs and its columns
    auxiliary internal outputs, so the parameter entries reappear as routing
    entries; A_xx and B_xu, which the border leaves alone, are shared too.
    A fixed block is closed into the six matrices with `OpenLoop.close`.
    """
    if sub.param_block is None:
        return AugmentedSubsystem(sub.A_xx0, sub.A_xv0, sub.B_xu0, sub.A_zx0, sub.A_zv0,
                                  sub.B_zu0, name=sub.name)
    if sub.has_free_params:
        return AugmentedSubsystem(
            A_xx=sub.A_xx0,
            A_xv=ex.hstack([sub.A_xv0, sub.E1]),
            B_xu=sub.B_xu0,
            A_zx=ex.vstack([sub.A_zx0, sub.F1]),
            A_zv=ex.vstack([ex.hstack([sub.A_zv0, sub.E2]),
                            ex.hstack([sub.F2, sub.H])]),
            B_zu=ex.vstack([sub.B_zu0, sub.F3]),
            name=sub.name)
    closed = OpenLoop(
        ex.vstack([ex.hstack([sub.A_xx0, sub.A_xv0, sub.B_xu0]),
                   ex.hstack([sub.A_zx0, sub.A_zv0, sub.B_zu0])]),
        ex.vstack([sub.E1, sub.E2]), sub.H,
        ex.hstack([sub.F1, sub.F2, sub.F3])).close(sub.param_block)
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
    """A networked system: subsystems plus the structured interconnection.

    The network owns its port map (`offsets`) and its parameter pattern
    `P_pattern` on the analysis ports: the routing entries of `scm`, in
    their order, then each free parameter block, in subsystem order. Every
    parameter draw follows that entry order.
    """

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
        # Port map: offsets[kind][i] is the first global index of subsystem
        # i's ports of that kind (x states, u/v inputs, z outputs); the last
        # entry is the port total.
        self.offsets = {
            kind: list(accumulate((getattr(a, f"m_{kind}") for a in self.analysis), initial=0))
            for kind in "xuvz"}
        self.M_x, self.M_u, self.M_v, self.M_z = (self.offsets[k][-1] for k in "xuvz")
        # P: routing entries moved to analysis port indices, then the free blocks
        v_off, z_off = self.offsets["v"], self.offsets["z"]
        v_of = [v_off[i] + p for i, s in enumerate(self.subsystems) for p in range(s.m_v0)]
        z_of = [z_off[i] + p for i, s in enumerate(self.subsystems) for p in range(s.m_z0)]
        entries = {(v_of[r], z_of[c]): pid for (r, c), pid in scm.entries.items()}
        for i, s in enumerate(self.subsystems):
            if s.has_free_params:
                r0, c0 = v_off[i] + s.m_v0, z_off[i] + s.m_z0
                entries.update(((r0 + r, c0 + c), pid)
                               for (r, c), pid in s.param_block.entries.items())
        # the pattern rejects a repeated id, routing's and the blocks' alike
        self.P_pattern = StructuredPattern(self.M_v, self.M_z, entries)

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

    @cached_property
    def loop(self) -> OpenLoop:
        """[A_xx B_xu] + A_xv P (I - A_zv P)^-1 [A_zx B_zu] before P is
        chosen, built once per plant; realization closes it at each draw."""
        return OpenLoop(ex.hstack([self.A_xx, self.B_xu]), self.A_xv, self.A_zv,
                        ex.hstack([self.A_zx, self.B_zu]))


def assemble_lumped(nds: NdsModel) -> LumpedPlant:
    """The exact block-diagonal analysis matrices of the network, with its
    parameter pattern `NdsModel.P_pattern`; only realization needs them."""
    augs = nds.analysis
    widths = {kind: [getattr(a, f"m_{kind}") for a in augs] for kind in "xuv"}
    return LumpedPlant(
        A_xx=ex.block_diag([a.A_xx for a in augs], widths["x"]),
        A_xv=ex.block_diag([a.A_xv for a in augs], widths["v"]),
        B_xu=ex.block_diag([a.B_xu for a in augs], widths["u"]),
        A_zx=ex.block_diag([a.A_zx for a in augs], widths["x"]),
        A_zv=ex.block_diag([a.A_zv for a in augs], widths["v"]),
        B_zu=ex.block_diag([a.B_zu for a in augs], widths["u"]),
        P_pattern=nds.P_pattern)


class NetworkLoop(OpenLoop):
    """The network's loop, the lumped plant's `LumpedPlant.loop` m + e P
    (I - h P)^-1 f with m = [A_xx B_xu], e = A_xv, h = A_zv and
    f = [A_zx B_zu], closed mod a prime (`close_mod`) without the plant.

    Its residues are read per subsystem (`_reduce`): each analysis form's
    six blocks mod the prime, placed by the port map `NdsModel.offsets`.
    The lumped plant and its exact `OpenLoop` (`exact`) are built only when
    `close_mod` falls back to the exact closure; this loop closes mod a
    prime only.
    """

    def __init__(self, nds: NdsModel):
        self.nds = nds
        self.n, self.p_rows = nds.M_z, nds.M_v
        self._residues = {}

    @cached_property
    def exact(self) -> OpenLoop:
        """The lumped plant's exact loop, assembled on first use."""
        return assemble_lumped(self.nds).loop

    def _reduce(self, prime: int) -> Optional[tuple]:
        """(m, h, f, e) mod prime from the subsystems' analysis forms, each
        form's block rows [A_xx A_xv B_xu] and [A_zx A_zv B_zu] reduced at
        once, and once however many subsystems share the form; None when
        the prime divides a denominator in any form."""
        nds = self.nds
        mx = nds.M_x
        width = mx + nds.M_u
        m = np.zeros((mx, width), np.int64)
        e = np.zeros((mx, nds.M_v), np.int64)
        h = np.zeros((nds.M_z, nds.M_v), np.int64)
        f = np.zeros((nds.M_z, width), np.int64)
        x_off, u_off, v_off, z_off = (nds.offsets[kind] for kind in "xuvz")
        reduced: dict[int, np.ndarray] = {}
        for i, a in enumerate(nds.analysis):
            if not (a.m_x or a.m_z):
                continue  # inputs only: no row to place
            res = reduced.get(id(a))
            if res is None:
                res = ex.mod_matrix([xx + xv + xu for xx, xv, xu in zip(a.A_xx, a.A_xv, a.B_xu)]
                                    + [zx + zv + zu for zx, zv, zu in zip(a.A_zx, a.A_zv, a.B_zu)],
                                    prime)
                if res is None:
                    return None
                reduced[id(a)] = res
            ax, av = a.m_x, a.m_x + a.m_v
            top, bottom = res[:ax], res[ax:]
            x = slice(x_off[i], x_off[i + 1])
            u = slice(mx + u_off[i], mx + u_off[i + 1])
            v = slice(v_off[i], v_off[i + 1])
            z = slice(z_off[i], z_off[i + 1])
            m[x, x], e[x, v], m[x, u] = top[:, :ax], top[:, ax:av], top[:, av:]
            f[z, x], h[z, v], f[z, u] = bottom[:, :ax], bottom[:, ax:av], bottom[:, av:]
        return m, h, f, e

    def _close_exact_mod(self, p: dict[tuple[int, int], int], prime: int) -> Optional[np.ndarray]:
        return self.exact._close_exact_mod(p, prime)


@dataclass(frozen=True)
class WellPosednessVerdict:
    well_posed: bool
    trials: int
    seed: int
    detail: str = ""


def check_well_posedness(nds: NdsModel, trials: int = 3, seed: int = 0) -> WellPosednessVerdict:
    """Probabilistic well-posedness test, kept as an instance filter for
    generators; no verdict calls it.

    Every network `NdsModel` accepts is generically well-posed: each loop
    determinant is 1 at zero parameters. This test substitutes an integer in
    [1, bound] for every free parameter and checks that the global loop
    determinant and each local one are nonzero; one successful draw is a
    witness, and a draw that hits a root on every trial is a false negative.
    Each loop I - h p is built as integer rows by `OpenLoop.loop_rows`, the
    builder `OpenLoop.close` solves.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pat = nds.P_pattern
    rng = random.Random(seed)
    bound = 2 * max(1, pat.rows + pat.cols) * max(1, pat.num_free)
    global_loop = OpenLoop([], [], ex.block_diag([a.A_zv for a in nds.analysis],
                                                 [a.m_v for a in nds.analysis]), [])
    local_loops = [(sub, OpenLoop([], [], sub.H, []))
                   for sub in nds.subsystems if sub.has_free_params]
    last = ""
    for t in range(trials):
        values = pat.draw(rng, bound)
        pval = pat.substitute(values)
        if ex.int_det(global_loop.loop_rows(_integer_block(pval))) == 0:
            last = "global loop determinant vanished"
            continue
        local_ok = True
        for sub, loop in local_loops:
            pv = sub.param_block.substitute(values)
            if ex.int_det(loop.loop_rows(_integer_block(pv))) == 0:
                local_ok = False
                last = f"local loop of {sub.name or 'a subsystem'} vanished"
                break
        if local_ok:
            return WellPosednessVerdict(True, t + 1, seed)
    return WellPosednessVerdict(False, trials, seed, detail=last or "no witness found")
