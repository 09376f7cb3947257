"""Exact linear algebra over rationals.

Matrices are plain lists of rows holding `fractions.Fraction` entries; all
routines in this module are exact. Floats enter the picture only through
`to_float`, which is the hand-off point to numpy for eigenvalue and
singular-value work, and `float_rank`/`singular_value_rank` hold the one
numeric-rank rule applied to what numpy returns.

No polynomial arithmetic is needed: `ratfun` classifies each transfer entry
of C (lambda*I - A)^-1 B + D from the exact Markov parameters C A^k B,
k < n (Cayley-Hamilton), which are plain `mmul` products.

The exact kernels skip zero operands: `mmul` multiplies only nonzero pairs,
and `_eliminate` (behind `exact_rank` and `exact_det`) and `exact_solve`
update only the pivot row's nonzero columns. The matrices met here are
mostly zeros (block-diagonal lumped plants, one nonzero per free routing
entry), and an exact sum of the same nonzero terms is the same number, so
every result equals the dense loop's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

Mat = list  # list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

# Default singular-value cutoff of every numeric rank.
RANK_TOL = 1e-9


def frac(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational entry")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def mat(rows: Sequence[Sequence]) -> Mat:
    """Build a rational matrix from nested ints/strings/Fractions."""
    out = [[frac(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix literal")
    return out


def shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def zeros(r: int, c: int) -> Mat:
    return [[ZERO] * c for _ in range(r)]


def eye(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def copy(m: Mat) -> Mat:
    return [row[:] for row in m]


def transpose(m: Mat) -> Mat:
    r, c = shape(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def madd(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} + {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} - {shape(b)}")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra == 0:
        return []
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    if cb == 0:
        return zeros(ra, 0)
    b_nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * cb
        for x, b_row in zip(row, b_nonzeros):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def hstack(blocks: Sequence[Mat]) -> Mat:
    blocks = [b for b in blocks]
    rows = max((len(b) for b in blocks), default=0)
    if any(len(b) not in (0, rows) for b in blocks):
        raise ValueError("hstack row mismatch")
    out = []
    for i in range(rows):
        row: list[Fraction] = []
        for b in blocks:
            row.extend(b[i] if b else [])
        out.append(row)
    return out


def vstack(blocks: Sequence[Mat]) -> Mat:
    blocks = [b for b in blocks if shape(b)[0] > 0]
    if not blocks:
        return []
    cols = {shape(b)[1] for b in blocks}
    if len(cols) > 1:
        raise ValueError("vstack column mismatch")
    out: Mat = []
    for b in blocks:
        out.extend(copy(b))
    return out


def block_diag(blocks: Sequence[Mat], widths: Sequence[int] | None = None) -> Mat:
    """Block-diagonal matrix; `widths` gives each block's column count, which
    a zero-row block cannot carry itself (default: each block's own)."""
    if widths is None:
        widths = [shape(b)[1] for b in blocks]
    out = zeros(sum(len(b) for b in blocks), sum(widths))
    r0 = c0 = 0
    for b, c in zip(blocks, widths):
        for i, row in enumerate(b):
            out[r0 + i][c0 : c0 + c] = row[:]
        r0 += len(b)
        c0 += c
    return out


def submatrix(m: Mat, rows: Sequence[int] | None, cols: Sequence[int] | None) -> Mat:
    r, c = shape(m)
    rows = list(range(r)) if rows is None else list(rows)
    cols = list(range(c)) if cols is None else list(cols)
    return [[m[i][j] for j in cols] for i in rows]


def to_float(m: Mat) -> np.ndarray:
    r, c = shape(m)
    out = np.empty((r, c), dtype=float)
    for i in range(r):
        for j in range(c):
            out[i, j] = float(m[i][j])
    return out


def singular_value_rank(s: np.ndarray, tol: float = RANK_TOL):
    """Count of singular values (descending) above the rank cutoff.

    The cutoff is tol, absolute below unit scale and relative to the largest
    singular value above it: tol * max(1, s[0]). `s` may carry leading stack
    axes, as `np.linalg.svd` returns them for a stack of matrices; the
    result is then an integer array with one rank per matrix, else an int.
    """
    above = s > tol * np.maximum(1.0, s[..., :1])
    if s.ndim == 1:
        return int(np.count_nonzero(above))
    return np.count_nonzero(above, axis=-1)


def float_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    """Numeric rank of a float or complex matrix under `singular_value_rank`."""
    if m.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(m, compute_uv=False), tol)


def _eliminate(m: Mat) -> tuple[Mat, list[int], int]:
    """Row-reduce a copy of m; returns (echelon, pivot columns, swap count)."""
    a = copy(m)
    r, c = shape(a)
    pivots: list[int] = []
    swaps = 0
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            swaps += 1
        ar = a[row]
        pv = ar[col]
        pivot_nonzeros = [(j, ar[j]) for j in range(col, c) if ar[j]]
        for i in range(row + 1, r):
            ai = a[i]
            f = ai[col]
            if f == 0:
                continue
            ratio = f / pv
            for j, y in pivot_nonzeros:
                ai[j] -= ratio * y
        pivots.append(col)
        row += 1
        if row == r:
            break
    return a, pivots, swaps


def exact_rank(m: Mat) -> int:
    if not m or not m[0]:
        return 0
    return len(_eliminate(m)[1])


def exact_det(m: Mat) -> Fraction:
    r, c = shape(m)
    if r != c:
        raise ValueError("determinant of a non-square matrix")
    if r == 0:
        return ONE
    ech, pivots, swaps = _eliminate(m)
    if len(pivots) < r:
        return ZERO
    det = ONE if swaps % 2 == 0 else -ONE
    for i in range(r):
        det *= ech[i][pivots[i]]
    return det


def exact_solve(a: Mat, b: Mat) -> Mat:
    """Solve a @ X = b exactly; a must be square and invertible."""
    n, m = shape(a)
    if n != m:
        raise ValueError("solve needs a square system")
    rb, cb = shape(b)
    if rb != n:
        raise ValueError("right-hand side row mismatch")
    if n == 0:
        return zeros(0, cb)
    aug = [a[i][:] + b[i][:] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system in exact_solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        prow = aug[col] = [x / pv if x else x for x in aug[col]]
        pivot_nonzeros = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(n):
            ai = aug[i]
            f = ai[col]
            if i == col or f == 0:
                continue
            for j, y in pivot_nonzeros:
                ai[j] -= f * y
    return [row[n:] for row in aug]
