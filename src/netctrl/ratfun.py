"""Exact transfer-entry classes, eigenvalue pooling, and per-mode null-space data.

Each entry of C (lambda*I - A)^-1 B + D is classified as zero, constant or
frequency dependent from the Markov parameters C A^k B, k < n, and from D,
all in exact rational arithmetic: the class is a statement about exact
numbers, not about floating-point residues. Eigenvalues and null-space
bases, which are generally irrational, are the only floating-point objects
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    return SubsystemTfms(entry_classes(aug.A_zx, aug.A_xx, aug.A_xv, aug.A_zv),
                         entry_classes(aug.A_zx, aug.A_xx, aug.B_xu, aug.B_zu))


def nds_tfms(nds: NdsModel) -> list[SubsystemTfms]:
    return [subsystem_tfms(a) for a in nds.analysis]


@dataclass(frozen=True)
class Spectrum:
    """Distinct pooled eigenvalues, largest real part first."""

    values: list  # list[complex]
    members: list  # list[set[int]]: subsystem indices owning each value
    tol: float

    @property
    def m(self) -> int:
        return len(self.values)

    def unstable(self) -> list:
        return [v for v in self.values if is_unstable(v)]


def is_unstable(lam: complex) -> bool:
    """A mode a stabilizing design must clear: real part >= -1e-9."""
    return complex(lam).real >= -1e-9


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
    for j, aug in enumerate(nds.analysis):
        if aug.m_x == 0:
            continue
        for lam in np.linalg.eigvals(ex.to_float(aug.A_xx)):
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


def left_null_basis(m: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Orthonormal rows spanning {w : w m = 0}; returns (basis, rank(m))."""
    rows = m.shape[0]
    if m.size == 0:
        return np.eye(rows, dtype=m.dtype if m.dtype.kind == "c" else float), 0
    u, s, _ = np.linalg.svd(m)
    rank = ex.singular_value_rank(s, tol)
    return u[:, rank:].conj().T, rank


@dataclass(frozen=True)
class SubsystemModeData:
    """Left-null-space payload of one subsystem at one pooled eigenvalue."""

    t: np.ndarray
    z: np.ndarray
    y: np.ndarray
    m_r: int
    pbh_deficiency: int  # state rows lost by [lam I - A_xx, B_xu]


@dataclass(frozen=True)
class ModeData:
    lam: complex
    per_sub: list  # list[SubsystemModeData]
    z_all: np.ndarray
    y_all: np.ndarray
    M_r: int

    @property
    def pbh_deficiency(self) -> int:
        return sum(s.pbh_deficiency for s in self.per_sub)


def mode_data(nds: NdsModel, lam: complex, tol: float = RANK_TOL) -> ModeData:
    """Per-subsystem left null spaces of the mode matrices at one eigenvalue.

    A subsystem with full-row-rank mode matrix contributes zero rows; its
    state/output column slots still appear (as zero-width blocks) in the
    block-diagonal assembly, keeping global column indices aligned.
    """
    dtype = complex if abs(complex(lam).imag) > 0 else float
    per = []
    for aug in nds.analysis:
        a_xx = ex.to_float(aug.A_xx)
        b_xu = ex.to_float(aug.B_xu)
        a_zx = ex.to_float(aug.A_zx).reshape(aug.m_z, aug.m_x)
        b_zu = ex.to_float(aug.B_zu).reshape(aug.m_z, aug.m_u)
        lam_c = complex(lam) if dtype is complex else float(complex(lam).real)
        top = np.hstack([lam_c * np.eye(aug.m_x) - a_xx, b_xu])
        bot = np.hstack([-a_zx, b_zu])
        m = np.vstack([top, bot]).astype(dtype)
        basis, rank = left_null_basis(m, tol)
        m_r = (aug.m_x + aug.m_z) - rank
        t = basis[:, :aug.m_x]
        z = basis[:, aug.m_x:]
        a_xv = ex.to_float(aug.A_xv).reshape(aug.m_x, aug.m_v)
        a_zv = ex.to_float(aug.A_zv).reshape(aug.m_z, aug.m_v)
        y = t @ a_xv + z @ a_zv
        pbh_rank = ex.float_rank(top, tol)
        per.append(SubsystemModeData(t=t, z=z, y=y, m_r=m_r,
                                     pbh_deficiency=aug.m_x - pbh_rank))
    M_r = sum(s.m_r for s in per)
    z_all = _block_diag_np([s.z for s in per], [a.m_z for a in nds.analysis], dtype)
    y_all = _block_diag_np([s.y for s in per], [a.m_v for a in nds.analysis], dtype)
    return ModeData(lam=lam, per_sub=per, z_all=z_all, y_all=y_all, M_r=M_r)


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
