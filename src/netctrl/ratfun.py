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
one eigenvalue) and `mode_targets` the one assembler of per-mode targets.
A record factors its mode matrices in stacks, one SVD for all its missing
real eigenvalues and one for the complex ones; LAPACK factors each matrix
of a stack as it would alone, so a factor does not depend on which others
it was built with. A record keeps each factor (U and the rank): a target
reads the rank alone, and a null-space block is built from U only when
`modes` asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
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
    Once every entry is "lambda" no later parameter can change a class, so
    the loop stops there.

    The products run on Python integers: each row of C and each column of B
    is scaled by the lcm of its denominators, and A by the lcm of all of
    its own. Those scales are positive, so they multiply each entry of
    C A^k B by a positive number and move no zero.
    """
    rows, cols = ex.shape(d)
    dynamic = [[False] * cols for _ in range(rows)]
    b_scales = [lcm(*[row[p].denominator for row in b]) for p in range(cols)]
    b_int = [[x.numerator * (s // x.denominator) for x, s in zip(row, b_scales)]
             for row in b]
    a_scale = lcm(*[x.denominator for row in a for x in row])
    a_int = [[x.numerator * (a_scale // x.denominator) for x in row] for row in a]
    cak = ex.int_rows(c)[0]
    static = rows * cols  # entries not yet known to be "lambda"
    for k in range(len(a)):
        if not static:
            break
        if k:
            cak = ex.mmul(cak, a_int)
        for q, row in enumerate(ex.mmul(cak, b_int)):
            for p, x in enumerate(row):
                if x != 0 and not dynamic[q][p]:
                    dynamic[q][p] = True
                    static -= 1
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

    def filtered(self, mode_filter: str) -> Spectrum:
        """The values `filter_modes` keeps, with their owners."""
        keep = [i for i, lam in enumerate(self.values) if filter_modes([lam], mode_filter)]
        return Spectrum([self.values[i] for i in keep], [self.members[i] for i in keep],
                        self.tol)


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
    # Equal values are close, and a copy is close to the same values as its
    # first occurrence, so only distinct values are compared pairwise and
    # every raw entry joins its value's group.
    first: dict[complex, int] = {}
    for lam, _ in raw:
        first.setdefault(lam, len(first))
    distinct = list(first)
    n = len(distinct)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _close(distinct[i], distinct[j], tol):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i, (lam, _) in enumerate(raw):
        groups.setdefault(find(first[lam]), []).append(i)
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
    # written in place: a broadcast temporary would hold len(values) * n * n
    # entries twice over
    lam_eye = stack[:, :, :n]
    np.multiply(np.asarray(values).reshape(-1, 1, 1), np.eye(n), out=lam_eye)
    lam_eye -= a
    return stack


def svd_factors(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(U, rank) of each matrix of a stack: U's trailing rows span the left
    null space {w : w m = 0} of m.

    One `np.linalg.svd` serves the whole stack; LAPACK factors each matrix
    of it as it would factor that matrix alone, so every U and rank is the
    one a per-matrix call gives. A matrix with a zero dimension has rank
    0, and numpy returns the identity as its left singular vectors.
    """
    u, s, _ = np.linalg.svd(stack)
    return u, ex.singular_value_rank(s, tol)


@dataclass(frozen=True)
class SubsystemModeData:
    """Left-null-space payload of one subsystem at one pooled eigenvalue:
    the basis T | Z of the mode matrix's left null space, Y = T A_xv + Z A_zv,
    and [Y Z] as one block."""

    t: np.ndarray
    z: np.ndarray
    y: np.ndarray
    yz: np.ndarray
    m_r: int


@dataclass(frozen=True)
class ModeData:
    """Left-null-space data of a network at one pooled eigenvalue.

    [Y Z] is block-diagonal by subsystem, and `column_blocks` hands it over
    as its blocks [y_i z_i]: the product rank rank(Y P + Z), the fixed-mode
    intersection and design's stage 1 all read those one block at a time,
    and no dense Y or Z is built.
    """

    lam: complex
    per_sub: list  # list[SubsystemModeData]
    M_r: int

    def column_blocks(self) -> list[tuple[np.ndarray, list[int]]]:
        """[Y Z] as its diagonal blocks: each subsystem's [y_i z_i] with the
        columns of [Y Z] it fills, its v ports in Y and then its z ports in
        Z. Identical agents hand over one block object."""
        m_v = sum(s.y.shape[1] for s in self.per_sub)
        v0 = z0 = 0
        out = []
        for s in self.per_sub:
            mv, mz = s.y.shape[1], s.z.shape[1]
            out.append((s.yz, [*range(v0, v0 + mv), *range(m_v + z0, m_v + z0 + mz)]))
            v0 += mv
            z0 += mz
        return out


def modes(nds: NdsModel, lams: list, tol: float = RANK_TOL) -> list[ModeData]:
    """Per-subsystem left null spaces of the mode matrices at each eigenvalue.

    Each subsystem record hands over its blocks at all of `lams` in one
    `mode_blocks` call. A subsystem with full-row-rank mode matrix
    contributes zero rows; its state/output column slots still appear (as
    zero-row blocks) in [Y Z], keeping global column indices aligned.
    """
    blocks = [rec.mode_blocks(lams, tol) for rec in analysis_records(nds.analysis)]
    return [ModeData(lam=lam, per_sub=list(per), M_r=sum(s.m_r for s in per))
            for lam, per in zip(lams, zip(*blocks))]


def mode_targets(nds: NdsModel, lams: list, tol: float = RANK_TOL) -> list[int]:
    """M_r at each eigenvalue, the `modes` target, read off the records'
    ranks without building a null-space basis."""
    per_sub = [rec.null_dims(lams, tol) for rec in analysis_records(nds.analysis)]
    return [sum(dims) for dims in zip(*per_sub)]


def owner_deficiencies(nds: NdsModel, spec: Spectrum, tol: float = RANK_TOL) -> list[int]:
    """State rows lost by [lam I - A_xx, B_xu] at each pooled value, summed
    over the subsystems that own it (`Spectrum.members`).

    The PBH matrix of a subsystem loses rank only at an eigenvalue of its
    A_xx, so a subsystem is ranked only at the values it owns. Subsystems
    that share a record are ranked once: one `pbh_deficiencies` call per
    distinct record, at every value one of them owns. The record keeps each
    deficiency, so a second call at the same values (design's `M_def` after
    its final verdict) stacks nothing.
    """
    records = analysis_records(nds.analysis)
    owners: dict[SubsystemAnalysis, dict[int, int]] = {}  # record -> value -> owner count
    for i, members in enumerate(spec.members):
        for j in members:
            count = owners.setdefault(records[j], {})
            count[i] = count.get(i, 0) + 1
    out = [0] * spec.m
    for rec, count in owners.items():
        deficiencies = rec.pbh_deficiencies([spec.values[i] for i in count], tol)
        for (i, n), d in zip(count.items(), deficiencies):
            out[i] += n * int(d)
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


class SubsystemAnalysis:
    """One analysis form's own results, each computed once.

    The float blocks are converted when the record is made; the eigenvalues,
    the entry classes, each (eigenvalue, rank tolerance) factor of the mode
    matrix and the null-space block built from it, and each (eigenvalue,
    rank tolerance) deficiency of [lam I - A_xx, B_xu], on first use. The
    record hangs on the form, and each SubsystemModel builds its form once
    (a repeat shares the form of the subsystem it repeats), so every
    NdsModel made from the same subsystem objects reads the same record,
    and the record lives as long as they do. It keeps the form's
    matrices rather than the form, so the two make no reference cycle and
    are freed as soon as the command drops its model.
    """

    def __init__(self, aug: AugmentedSubsystem, content: tuple):
        self.content = content
        self.exact_blocks = (aug.A_xx, aug.A_xv, aug.B_xu, aug.A_zx, aug.A_zv, aug.B_zu)
        self.m_x, self.m_z = mx, mz = aug.m_x, aug.m_z
        mv, mu = aug.m_v, aug.m_u
        self.a_xx = ex.to_float(aug.A_xx)
        self.a_xv = ex.to_float(aug.A_xv).reshape(mx, mv)
        self.b_xu = ex.to_float(aug.B_xu).reshape(mx, mu)
        self.a_zx = ex.to_float(aug.A_zx).reshape(mz, mx)
        self.a_zv = ex.to_float(aug.A_zv).reshape(mz, mv)
        self.b_zu = ex.to_float(aug.B_zu).reshape(mz, mu)
        self.factors: dict[tuple[complex, float], tuple[np.ndarray, int]] = {}
        self.deficiencies: dict[tuple[complex, float], int] = {}
        self.blocks: dict[tuple[complex, float], SubsystemModeData] = {}

    @cached_property
    def eigvals(self) -> np.ndarray:
        return np.linalg.eigvals(self.a_xx)

    @cached_property
    def tfms(self) -> SubsystemTfms:
        a_xx, a_xv, b_xu, a_zx, a_zv, b_zu = self.exact_blocks
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

    def mode_factors(self, lams: list, tol: float) -> list[tuple[np.ndarray, int]]:
        """(U, rank) of [lam I - A_xx, B_xu; -A_zx, B_zu] at each eigenvalue;
        the missing ones are factored with one stacked SVD per dtype."""
        keys = [(complex(lam), tol) for lam in lams]
        missing = list({k[0]: None for k in keys if k not in self.factors})
        for dtype, group in _by_dtype(missing).items():
            u, ranks = svd_factors(self.mode_matrices([v for _, v in group], dtype), tol)
            for (i, _), u_i, rank in zip(group, u, ranks):
                self.factors[(missing[i], tol)] = (u_i, int(rank))
        return [self.factors[k] for k in keys]

    def null_dims(self, lams: list, tol: float) -> list[int]:
        """m_r, the left null-space dimension of the mode matrix, at each eigenvalue."""
        return [self.m_x + self.m_z - rank for _, rank in self.mode_factors(lams, tol)]

    def mode_blocks(self, lams: list, tol: float) -> list[SubsystemModeData]:
        """Left null space of the mode matrix and its payload at each
        eigenvalue, built from the stored factor on first use."""
        mx = self.m_x
        out = []
        for lam, (u, rank) in zip(lams, self.mode_factors(lams, tol)):
            key = (complex(lam), tol)
            block = self.blocks.get(key)
            if block is None:
                basis = u[:, rank:].conj().T
                t = basis[:, :mx]
                z = basis[:, mx:]
                y = t @ self.a_xv + z @ self.a_zv
                yz = np.hstack([y, z])
                for shared in (t, z, y, yz):  # every ModeData at this mode holds them
                    shared.flags.writeable = False
                block = self.blocks[key] = SubsystemModeData(
                    t=t, z=z, y=y, yz=yz, m_r=mx + self.m_z - rank)
            out.append(block)
        return out

    def pbh_deficiencies(self, lams: list, tol: float) -> np.ndarray:
        """State rows lost by [lam I - A_xx, B_xu] at each eigenvalue; the
        missing ones are ranked with one stacked singular-value call per
        dtype."""
        keys = [(complex(lam), tol) for lam in lams]
        missing = list({k[0]: None for k in keys if k not in self.deficiencies})
        for dtype, group in _by_dtype(missing).items():
            pbh = pbh_stack(self.a_xx, self.b_xu, [v for _, v in group], dtype)
            for (i, _), rank in zip(group, ex.float_rank(pbh, tol).tolist()):
                self.deficiencies[(missing[i], tol)] = self.m_x - rank
        return np.array([self.deficiencies[k] for k in keys], dtype=int)


_ratio = attrgetter("numerator", "denominator")


def analysis_records(augs: list[AugmentedSubsystem]) -> list[SubsystemAnalysis]:
    """The analysis record of each form, made on first use.

    A form without a record takes the one of a form with equal matrices in
    the same list, so identical agents in one network share one record.
    Forms are keyed on their entries' (numerator, denominator) pairs, which
    hash and compare as plain integers; a Fraction's hash takes a modular
    inverse. The repeats of a parsed subsystem share its form
    (`SubsystemModel.repeat`), so they take its record with no key built.
    """
    if any(a.record is None for a in augs):
        shared = {a.record.content: a.record for a in augs if a.record is not None}
        for a in augs:
            if a.record is None:
                content = (a.m_x, a.m_v, a.m_u, a.m_z) + tuple([
                    _ratio(x) for m in (a.A_xx, a.A_xv, a.B_xu, a.A_zx, a.A_zv, a.B_zu)
                    for row in m for x in row])
                if content not in shared:
                    shared[content] = SubsystemAnalysis(a, content)
                a.record = shared[content]
    return [a.record for a in augs]
