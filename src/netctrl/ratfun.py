"""Exact transfer-entry classes, eigenvalue pooling, and per-mode null-space data.

Each entry of C (lambda*I - A)^-1 B + D is classified as zero, constant or
frequency dependent from the Markov parameters C A^k B, k < n, and from D,
all in exact rational arithmetic: the class is a statement about exact
numbers, not about floating-point residues. Eigenvalues and null-space
bases, which are generally irrational, are the only floating-point objects
here.

Everything here is computed per subsystem and kept in one analysis record
per analysis form (`SubsystemAnalysis`): `subsystem_tfms`, `nds_tfms`,
`spectrum` and `modes` only assemble their results from the records, and
`modes` is the one assembler of per-mode data (`mode_data` is `modes` at
one eigenvalue). A record builds its null-space blocks in stacks, one SVD
for all its missing real eigenvalues and one for the complex ones; LAPACK
factors each matrix of a stack as it would alone, so a block does not
depend on which others it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import exactla as ex
from .exactla import RANK_TOL, Mat
from .model import AugmentedSubsystem, NdsModel

EIG_TOL = 1e-6


@dataclass(frozen=True)
class EntryClass:
    """Structural class of one transfer entry.

    kind is "zero", "constant" (value holds the constant) or "lambda" for a
    genuinely frequency-dependent entry. A nonzero strictly proper component
    forces "lambda": a strictly proper rational function vanishes at infinity,
    so it can only be frequency-independent if it is identically zero.
    """

    kind: str
    value: Optional[Fraction] = None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_lambda(self) -> bool:
        return self.kind == "lambda"


def entry_classes(c: Mat, a: Mat, b: Mat, d: Mat) -> list[list[EntryClass]]:
    """Class of every entry of C (lambda*I - A)^-1 B + D.

    The strictly proper part expands as sum_k C A^k B / lambda^(k+1), and by
    Cayley-Hamilton it vanishes identically iff the n Markov parameters
    C A^k B with k < n do. An entry is "lambda" when one of those is nonzero
    there, otherwise "constant" when D is nonzero there, otherwise "zero".
    """
    rows, cols = ex.shape(d)
    dynamic = [[False] * cols for _ in range(rows)]
    cak = c
    for k in range(len(a)):
        if k:
            cak = ex.mmul(cak, a)
        for q, row in enumerate(ex.mmul(cak, b)):
            for p, x in enumerate(row):
                if x != 0:
                    dynamic[q][p] = True
    return [[EntryClass("lambda") if dynamic[q][p]
             else EntryClass("constant", d[q][p]) if d[q][p] != 0
             else EntryClass("zero") for p in range(cols)] for q in range(rows)]


@dataclass(frozen=True)
class SubsystemTfms:
    """Entry classes of one subsystem's internal- and external-input transfers."""

    gzv_classes: list
    gzu_classes: list


def subsystem_tfms(aug: AugmentedSubsystem) -> SubsystemTfms:
    """Entry classes of the transfers from internal/external inputs to internal outputs."""
    return analysis_records([aug])[0].tfms


def nds_tfms(nds: NdsModel) -> list[SubsystemTfms]:
    return [r.tfms for r in analysis_records(nds.analysis)]


@dataclass(frozen=True)
class Spectrum:
    """Distinct pooled eigenvalues, largest real part first."""

    values: list  # list[complex]
    members: list  # list[set[int]]: subsystem indices owning each value
    tol: float

    @property
    def m(self) -> int:
        return len(self.values)


def is_unstable(lam: complex) -> bool:
    """A mode a stabilizing design must clear: real part >= -1e-9."""
    return complex(lam).real >= -1e-9


def filter_modes(lams, mode_filter: str) -> list:
    """The eigenvalues a mode filter keeps: all of them for "all", the
    unstable ones for "unstable"."""
    if mode_filter == "all":
        return list(lams)
    if mode_filter == "unstable":
        return [lam for lam in lams if is_unstable(lam)]
    raise ValueError("mode_filter must be 'all' or 'unstable'")


def _cluster_key(v: complex) -> tuple[float, float]:
    return (-v.real, v.imag)


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def spectrum(nds: NdsModel, tol: float = EIG_TOL) -> Spectrum:
    """Pool subsystem eigenvalues and cluster near-duplicates.

    Clustering is absolute for magnitudes up to one and relative beyond; the
    representative of a cluster is its centroid, snapped to the real axis when
    the imaginary part is below tolerance.
    """
    raw: list[tuple[complex, int]] = []
    for j, rec in enumerate(analysis_records(nds.analysis)):
        for lam in rec.eigvals:
            lam = complex(lam)
            if abs(lam.imag) <= tol * max(1.0, abs(lam)):
                lam = complex(lam.real, 0.0)
            raw.append((lam, j))
    n = len(raw)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _close(raw[i][0], raw[j][0], tol):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    values = []
    members = []
    for idxs in groups.values():
        centroid = sum(raw[i][0] for i in idxs) / len(idxs)
        if abs(centroid.imag) <= tol * max(1.0, abs(centroid)):
            centroid = complex(centroid.real, 0.0)
        values.append(centroid)
        members.append({raw[i][1] for i in idxs})
    order = sorted(range(len(values)), key=lambda i: _cluster_key(values[i]))
    return Spectrum([values[i] for i in order], [members[i] for i in order], tol)


def pbh_stack(a: np.ndarray, b: np.ndarray, values, dtype: type) -> np.ndarray:
    """Stack of the PBH matrices [lam I - A, B], one per value, in dtype."""
    n = a.shape[0]
    stack = np.empty((len(values), n, n + b.shape[1]), dtype)
    stack[:, :, n:] = b
    eye = np.eye(n)
    for out, lam in zip(stack, values):
        out[:, :n] = lam * eye - a
    return stack


def left_null_bases(stack: np.ndarray, tol: float) -> list[tuple[np.ndarray, int]]:
    """(orthonormal rows spanning {w : w m = 0}, rank(m)) for each matrix m of a stack.

    One `np.linalg.svd` serves the whole stack; LAPACK factors each matrix
    of it as it would factor that matrix alone, so every basis and rank is
    the one a per-matrix call gives. A matrix with a zero dimension has rank
    0, and numpy returns the identity as its left singular vectors.
    """
    u, s, _ = np.linalg.svd(stack)
    return [(u_i[:, rank:].conj().T, int(rank))
            for u_i, rank in zip(u, ex.singular_value_rank(s, tol))]


@dataclass(frozen=True)
class SubsystemModeData:
    """Left-null-space payload of one subsystem at one pooled eigenvalue."""

    t: np.ndarray
    z: np.ndarray
    y: np.ndarray
    m_r: int


@dataclass(frozen=True)
class ModeData:
    lam: complex
    per_sub: list  # list[SubsystemModeData]
    z_all: np.ndarray
    y_all: np.ndarray
    M_r: int


def modes(nds: NdsModel, lams: list, tol: float = RANK_TOL) -> list[ModeData]:
    """Per-subsystem left null spaces of the mode matrices at each eigenvalue.

    Each subsystem record hands over its blocks at all of `lams` in one
    `mode_blocks` call (building the missing ones with one stacked SVD per
    dtype). A subsystem with full-row-rank mode matrix contributes zero
    rows; its state/output column slots still appear (as zero-width blocks)
    in the block-diagonal assembly, keeping global column indices aligned.
    """
    m_z = [a.m_z for a in nds.analysis]
    m_v = [a.m_v for a in nds.analysis]
    blocks = [rec.mode_blocks(lams, tol) for rec in analysis_records(nds.analysis)]
    out = []
    for lam, per in zip(lams, zip(*blocks)):
        dtype = _dtype(lam)
        out.append(ModeData(lam=lam, per_sub=list(per),
                            z_all=_block_diag_np([s.z for s in per], m_z, dtype),
                            y_all=_block_diag_np([s.y for s in per], m_v, dtype),
                            M_r=sum(s.m_r for s in per)))
    return out


def mode_data(nds: NdsModel, lam: complex, tol: float = RANK_TOL) -> ModeData:
    """`modes` at one eigenvalue."""
    return modes(nds, [lam], tol)[0]


def _dtype(lam: complex) -> type:
    """Working dtype at one eigenvalue: float on the real axis, else complex."""
    return complex if abs(complex(lam).imag) > 0 else float


def _by_dtype(lams: list) -> dict[type, list[tuple[int, complex | float]]]:
    """(position, value in its dtype) of each eigenvalue, grouped by `_dtype`."""
    groups: dict[type, list] = {}
    for i, lam in enumerate(lams):
        dtype = _dtype(lam)
        value = complex(lam) if dtype is complex else float(complex(lam).real)
        groups.setdefault(dtype, []).append((i, value))
    return groups


def _block_diag_np(blocks: list, col_widths: list[int], dtype) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(col_widths)
    out = np.zeros((rows, cols), dtype=dtype)
    r0 = c0 = 0
    for b, w in zip(blocks, col_widths):
        out[r0:r0 + b.shape[0], c0:c0 + w] = b
        r0 += b.shape[0]
        c0 += w
    return out


class SubsystemAnalysis:
    """One analysis form's own results, each computed once.

    The float blocks are converted when the record is made; the eigenvalues,
    the entry classes and each (eigenvalue, rank tolerance) null-space block
    on first use. The record hangs on the form, and each SubsystemModel
    builds its form once, so every NdsModel made from the same subsystem
    objects reads the same record, and the record lives as long as they do.
    It keeps the form's matrices rather than the form, so the two make no
    reference cycle and are freed as soon as the command drops its model.
    """

    def __init__(self, aug: AugmentedSubsystem, content: tuple):
        self.content = content
        self.exact = (aug.A_xx, aug.A_xv, aug.B_xu, aug.A_zx, aug.A_zv, aug.B_zu)
        self.m_x, self.m_z = mx, mz = aug.m_x, aug.m_z
        mv, mu = aug.m_v, aug.m_u
        self.a_xx = ex.to_float(aug.A_xx)
        self.a_xv = ex.to_float(aug.A_xv).reshape(mx, mv)
        self.b_xu = ex.to_float(aug.B_xu).reshape(mx, mu)
        self.a_zx = ex.to_float(aug.A_zx).reshape(mz, mx)
        self.a_zv = ex.to_float(aug.A_zv).reshape(mz, mv)
        self.b_zu = ex.to_float(aug.B_zu).reshape(mz, mu)
        self.blocks: dict[tuple[complex, float], SubsystemModeData] = {}

    @cached_property
    def eigvals(self) -> np.ndarray:
        return np.linalg.eigvals(self.a_xx)

    @cached_property
    def tfms(self) -> SubsystemTfms:
        a_xx, a_xv, b_xu, a_zx, a_zv, b_zu = self.exact
        return SubsystemTfms(entry_classes(a_zx, a_xx, a_xv, a_zv),
                             entry_classes(a_zx, a_xx, b_xu, b_zu))

    def mode_matrices(self, values: list, dtype: type) -> np.ndarray:
        """Stack of [lam I - A_xx, B_xu; -A_zx, B_zu], one per value, in dtype."""
        mx = self.m_x
        stack = np.empty((len(values), mx + self.m_z, mx + self.b_xu.shape[1]), dtype)
        stack[:, :mx] = pbh_stack(self.a_xx, self.b_xu, values, dtype)
        stack[:, mx:, :mx] = -self.a_zx
        stack[:, mx:, mx:] = self.b_zu
        return stack

    def mode_blocks(self, lams: list, tol: float) -> list[SubsystemModeData]:
        """Left null space of [lam I - A_xx, B_xu; -A_zx, B_zu] and its payload
        at each eigenvalue; the missing ones are built with one stacked SVD
        per dtype."""
        keys = [(complex(lam), tol) for lam in lams]
        missing = list({k[0]: None for k in keys if k not in self.blocks})
        mx = self.m_x
        for dtype, group in _by_dtype(missing).items():
            stack = self.mode_matrices([v for _, v in group], dtype)
            for (i, _), (basis, rank) in zip(group, left_null_bases(stack, tol)):
                t = basis[:, :mx]
                z = basis[:, mx:]
                y = t @ self.a_xv + z @ self.a_zv
                for shared in (t, z, y):  # every ModeData at this mode holds them
                    shared.flags.writeable = False
                self.blocks[(missing[i], tol)] = SubsystemModeData(
                    t=t, z=z, y=y, m_r=mx + self.m_z - rank)
        return [self.blocks[k] for k in keys]

    def pbh_deficiencies(self, lams: list, tol: float) -> np.ndarray:
        """State rows lost by [lam I - A_xx, B_xu] at each eigenvalue, with one
        stacked singular-value call per dtype."""
        out = np.zeros(len(lams), dtype=int)
        for dtype, group in _by_dtype(lams).items():
            pbh = pbh_stack(self.a_xx, self.b_xu, [v for _, v in group], dtype)
            out[[i for i, _ in group]] = self.m_x - ex.float_rank(pbh, tol)
        return out


def analysis_records(augs: list[AugmentedSubsystem]) -> list[SubsystemAnalysis]:
    """The analysis record of each form, made on first use.

    A form without a record takes the one of a form with equal matrices in
    the same list, so identical agents in one network share one record.
    """
    if any(a.record is None for a in augs):
        shared = {a.record.content: a.record for a in augs if a.record is not None}
        for a in augs:
            if a.record is None:
                content = (a.m_x, a.m_v, a.m_u, a.m_z) + tuple(
                    tuple(map(tuple, m)) for m in (a.A_xx, a.A_xv, a.B_xu,
                                                   a.A_zx, a.A_zv, a.B_zu))
                if content not in shared:
                    shared[content] = SubsystemAnalysis(a, content)
                a.record = shared[content]
    return [a.record for a in augs]
