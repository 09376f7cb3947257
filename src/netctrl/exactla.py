"""Exact linear algebra over rationals, and mod a prime.

Matrices are plain lists of rows holding `fractions.Fraction` entries; all
routines in this module are exact. The modular kernels take residues mod a
prime (`PRIME` unless given) in numpy int64 arrays: `mod_matrix`,
`mod_matmul`, `solve_mod` (Gauss-Jordan), `krylov_spans_mod` (the Krylov
span's echelon basis; a rank it finds full is full over the rationals too)
and `uncontrollable_charpoly_mod` (the characteristic polynomial on the
quotient by a span `krylov_spans_mod` built, through `charpoly_mod`).
`prev_prime`, `rational_reconstruction` and `rational_roots` lift such
polynomials to the rationals and take their rational roots. Floats enter
the picture only through `to_float`, which is the hand-off point to numpy
for eigenvalue and singular-value work, and `float_rank`/
`singular_value_rank` hold the one numeric-rank rule applied to what numpy
returns; `float_rank` is the one call that asks numpy for singular values
alone.

`ratfun` needs no polynomial arithmetic: it classifies each transfer entry
of C (lambda*I - A)^-1 B + D by which entries of the Markov parameters
C A^k B, k < n (Cayley-Hamilton), are zero. Positive scales on the rows of
C, the columns of B and all of A move no zero, so it takes them as `mmul`
products of integer rows; `mmul` keeps integer rows integral.

Eliminations run on Python integers, not Fractions, whose every add and
multiply normalizes by a gcd. `int_rows` scales each row by the lcm of its
entries' denominators, which changes no rank and no solution and divides
a determinant by the scales' product. `_eliminate`, the one elimination
behind `exact_rank`, `exact_det` (the last pivot, signed by the row swaps,
over that product) and `exact_solve`, is fraction-free (Bareiss 1968):
each Sylvester update divides exactly by the previous pivot, so entries
stay integral minors. `int_solve` back-substitutes on Y = det * X, which
Cramer's rule keeps integral; a Fraction is made only for each output
entry (Y / det). `model.OpenLoop` builds its loop straight into integer
rows and solves them with `int_solve`; its closure mod a prime runs that
solve itself wherever `solve_mod` or the residues give up, and reduces
the exact closed loop with `mod_matrix`.

The exact kernels skip zero operands: `mmul` multiplies only nonzero
pairs, and the elimination updates a row only where its entry in the
pivot column is nonzero, and only on the pivot row's nonzero columns
(a row it passes over is rescaled once, when next used). The matrices met
here are mostly zeros (block-diagonal lumped plants, one nonzero per free
routing entry), and an exact sum of the same nonzero terms is the same
number, so every result equals the dense loop's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from typing import Optional, Sequence

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


def copy(m: Mat) -> Mat:
    return [row[:] for row in m]


def mmul(a: Mat, b: Mat) -> Mat:
    """a @ b. Each entry starts as the int 0, so integer rows give integer
    products; in a Fraction product, an entry that no nonzero pair reaches
    stays the int 0, which equals Fraction(0)."""
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
        acc = [0] * cb
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
    # x.numerator / x.denominator is the correctly rounded double float(x)
    # computes, without the numbers.Rational.__float__ call
    return np.array([[x.numerator / x.denominator for x in row] for row in m],
                    dtype=float).reshape(shape(m))


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


def float_rank(m: np.ndarray, tol: float = RANK_TOL):
    """Numeric rank of a float or complex matrix under `singular_value_rank`.

    `m` may be a stack of same-shape matrices (leading stack axes); LAPACK
    then factors each matrix as it would alone, and the result is an integer
    array with one rank per matrix. A matrix with a zero dimension, like an
    empty stack, has no singular values and so rank 0.
    """
    return singular_value_rank(np.linalg.svd(m, compute_uv=False), tol)


class SingularMatrixError(ZeroDivisionError):
    """An exact solve met a singular matrix (an ill-posed loop)."""


def int_rows(m: Mat) -> tuple[list[list[int]], list[int]]:
    """Each row of m times the lcm of its entries' denominators.

    Returns (integer rows, row scales). Row scaling changes no rank and no
    solution of a system, and divides a determinant by the scales' product.
    """
    rows, scales = [], []
    for row in m:
        s = lcm(*[x.denominator for x in row])
        rows.append([x.numerator for x in row] if s == 1
                    else [x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return rows, scales


def _eliminate(a: list[list[int]]) -> tuple[list[int], list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Returns (pivot columns, pivots, swap count). Pivot row k ends as the
    minors of the pivot rows 0..k with its own row over the pivot columns
    0..k-1 and each column j, so every entry stays an integer and pivot row
    k's pivot is pivots[k]; the rows below the rank end as zeros. A row
    meets each step's Sylvester update (pivot * row - f * pivot row) //
    previous pivot only where f, its entry in the pivot column, is nonzero.
    With f = 0 the update only rescales the row by pivot / previous pivot,
    so a row is kept unscaled until a step needs it and then rescaled once,
    on its nonzeros, by the telescoped ratio of the pivot then to the pivot
    when it was last updated. Every // divides exactly: its quotient is a
    minor.
    """
    r = len(a)
    c = len(a[0]) if a else 0
    cols: list[int] = []
    pivots = [1]  # pivots[k]: the pivot of step k - 1; the 1 precedes step 0
    synced = [0] * r  # row i's true values are a[i] * pivots[-1] // pivots[synced[i]]
    swaps = 0
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if a[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            synced[row], synced[piv] = synced[piv], synced[row]
            swaps += 1
        step = len(pivots) - 1
        prev = pivots[-1]
        for i in range(row, r):
            ai = a[i]
            f = ai[col]
            if not f:
                continue
            if synced[i] != step:  # rescale once for the steps the row sat out
                num, den = prev, pivots[synced[i]]
                for j in range(col, c):
                    if ai[j]:
                        ai[j] = ai[j] * num // den
                f = ai[col]
            if i == row:
                pv = f
                pivot_nonzeros = [(j, ai[j]) for j in range(col + 1, c) if ai[j]]
                continue
            ai[col] = 0
            for j in range(col + 1, c):
                if ai[j]:
                    ai[j] *= pv
            for j, y in pivot_nonzeros:
                ai[j] -= f * y
            if prev != 1:
                for j in range(col + 1, c):
                    if ai[j]:
                        ai[j] //= prev
            synced[i] = step + 1
        pivots.append(pv)
        cols.append(col)
        row += 1
        if row == r:
            break
    return cols, pivots[1:], swaps


def exact_rank(m: Mat) -> int:
    if not m or not m[0]:
        return 0
    return len(_eliminate(int_rows(m)[0])[0])


def int_det(a: list[list[int]]) -> int:
    """Determinant of square integer rows; reduces the rows in place."""
    if not a:
        return 1
    cols, pivots, swaps = _eliminate(a)
    if len(cols) < len(a):
        return 0
    return -pivots[-1] if swaps % 2 else pivots[-1]


def exact_det(m: Mat) -> Fraction:
    r, c = shape(m)
    if r != c:
        raise ValueError("determinant of a non-square matrix")
    rows, scales = int_rows(m)
    return Fraction(int_det(rows), prod(scales))


def int_solve(a: list[list[int]], n: int) -> tuple[list[list[int]], int]:
    """Solve integer rows [a | b] (a n x n) without fractions; reduces them in place.

    Returns (Y, d) with a @ (Y / d) = b: d is the last pivot of the
    elimination (the determinant of a, up to sign), so Y = d X is integral
    (Cramer's rule) and back-substitution on it divides exactly. Raises
    SingularMatrixError when a is singular, that is, when the pivot columns
    are not 0..n-1.
    """
    cols, pivots, _ = _eliminate(a)
    if cols[:n] != list(range(n)):
        raise SingularMatrixError("singular system in exact_solve")
    d = pivots[n - 1]
    y: list[list[int]] = [[]] * n
    y_nonzeros: list = [[]] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = [x * d for x in row[n:]]
        for j in range(i + 1, n):
            f = row[j]
            if f:
                for k, v in y_nonzeros[j]:
                    acc[k] -= f * v
        pv = pivots[i]
        y[i] = acc if pv == 1 else [v // pv for v in acc]
        y_nonzeros[i] = [(k, v) for k, v in enumerate(y[i]) if v]
    return y, d


def exact_solve(a: Mat, b: Mat) -> Mat:
    """Solve a @ X = b exactly; a must be square and invertible.

    [a | b] is scaled to integer rows and solved by `int_solve`; each entry
    of X = Y / d is the one Fraction made from the integer result.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("solve needs a square system")
    rb, cb = shape(b)
    if rb != n:
        raise ValueError("right-hand side row mismatch")
    if n == 0:
        return zeros(0, cb)
    y, d = int_solve(int_rows([ra + rb for ra, rb in zip(a, b)])[0], n)
    return [[Fraction(v, d) if v else ZERO for v in row] for row in y]


# The prime of every modular rank: the largest below 2**26, so a product of
# two residues fits in 52 bits and an int64 sum of fewer than 2048 of them
# is exact.
PRIME = 67108859
_MOD_CHUNK = 2047


def mod_matrix(m: Mat, p: int = PRIME) -> Optional[np.ndarray]:
    """A rational matrix's entries mod p as an int64 array of shape `shape(m)`,
    or None when p divides a denominator."""
    try:
        rows = [[x.numerator % p if x.denominator == 1
                 else x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in m]
    except ValueError:  # pow: the denominator is not invertible mod p
        return None
    return np.array(rows, np.int64).reshape(shape(m))


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int = PRIME) -> np.ndarray:
    """a @ b mod p for int64 residues in [0, p), p < 2**26. The inner
    dimension is summed in chunks of _MOD_CHUNK terms, reduced after each,
    so no int64 sum overflows at any size."""
    k = a.shape[1]
    out = a[:, :_MOD_CHUNK] @ b[:_MOD_CHUNK] % p
    for s in range(_MOD_CHUNK, k, _MOD_CHUNK):
        out = (out + a[:, s:s + _MOD_CHUNK] @ b[s:s + _MOD_CHUNK]) % p
    return out


def _clear_pivot(m: np.ndarray, i: int, j: int, p: int) -> None:
    """Scale row i of m, mod p and in place, to a unit pivot in column j,
    and clear column j from every other row by one update over the rows
    that hold it, on the columns from j on: row i is zero before j."""
    row = m[i, j:]
    if row[0] != 1:
        row[:] = row * pow(int(row[0]), -1, p) % p
    rows = m[:, j].nonzero()[0]
    rows = rows[rows != i]
    if rows.size:
        m[rows, j:] = (m[rows, j:] - m[rows, j, None] * row) % p


def solve_mod(a: np.ndarray, b: np.ndarray, p: int = PRIME) -> Optional[np.ndarray]:
    """X with a X = b mod p, for int64 residues a (n x n) and b (n x k), by
    Gauss-Jordan elimination of [a | b] (`_clear_pivot`); None when a is
    singular mod p."""
    n = a.shape[0]
    aug = np.concatenate([a, b], axis=1)
    for j in range(n):
        i = j + int(np.argmax(aug[j:, j] != 0))
        if not aug[i, j]:
            return None
        if i != j:
            aug[[i, j]] = aug[[j, i]]
        _clear_pivot(aug, j, j, p)
    return aug[:, n:]


def krylov_spans_mod(a: np.ndarray, b: np.ndarray,
                     p: int = PRIME) -> tuple[np.ndarray, list[int]]:
    """The Krylov span of b under a mod p, for int64 residues a (n x n) and
    b (n x m): (basis, pivots), a reduced row-echelon basis of the span as
    row vectors (the transposed columns) and each basis row's pivot column.
    Its rank, len(pivots), is that of the Kalman matrix [b  a b ... a^(n-1) b]
    over F_p; a rank n mod p is a rank n over the rationals whose residues
    these are.

    b's columns come first, then each round the rows the last round added,
    times a. Each basis row's pivot column is zero in every other basis
    row, so one `mod_matmul` reduces a round's candidates against the
    basis. A round then works on one array, the basis rows and then its
    candidates: a candidate's first nonzero column is its pivot, and one
    update over the rows holding that column (`_clear_pivot`) clears it
    from every other row, basis and later candidates alike. A round that
    adds no row leaves an a-invariant span: the Krylov space.
    The build stops as soon as the span is all of F_p^n.
    """
    n = a.shape[0]
    at = np.ascontiguousarray(a.T)
    basis = np.zeros((0, n), np.int64)
    pivots: list[int] = []
    cand = np.ascontiguousarray(b.T)
    while cand.shape[0] and len(pivots) < n:
        r0 = len(pivots)
        if r0:
            cand = (cand - mod_matmul(cand[:, pivots], basis, p)) % p
        work = np.concatenate([basis, cand])
        kept = list(range(r0))
        for i in range(r0, work.shape[0]):
            nonzero = work[i].nonzero()[0]
            if not nonzero.size:
                continue
            j = int(nonzero[0])
            _clear_pivot(work, i, j, p)
            kept.append(i)
            pivots.append(j)
            if len(pivots) == n:
                return work[kept], pivots
        basis = work[kept]
        cand = mod_matmul(basis[r0:], at, p)
    return basis, pivots


def charpoly_mod(a: np.ndarray, p: int = PRIME) -> list[int]:
    """Characteristic polynomial det(x I - a) mod p of int64 residues a
    (k x k), as k + 1 coefficients from the constant term up (monic).

    a is reduced to upper Hessenberg form H by similarity (each step clears
    one column below the subdiagonal and adds the multiples back to the
    pivot column), and the polynomial follows from the recurrence on the
    leading principal minors of H (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.2.9).
    """
    k = a.shape[0]
    h = a.copy()
    for j in range(k - 2):
        m = j + 1
        i = m + int(np.argmax(h[m:, j] != 0))
        if not h[i, j]:
            continue
        if i != m:
            h[[i, m]] = h[[m, i]]
            h[:, [i, m]] = h[:, [m, i]]
        u = h[m + 1:, j] * pow(int(h[m, j]), -1, p) % p
        if not u.any():
            continue
        h[m + 1:] = (h[m + 1:] - u[:, None] * h[m]) % p
        h[:, m] = (h[:, m] + mod_matmul(h[:, m + 1:], u[:, None], p)[:, 0]) % p
    polys = [np.zeros(k + 1, np.int64)]
    polys[0][0] = 1
    for m in range(1, k + 1):
        prev = polys[m - 1]
        cur = np.zeros(k + 1, np.int64)
        cur[1:] = prev[:-1]
        cur = (cur - int(h[m - 1, m - 1]) * prev) % p
        t = 1
        for i in range(1, m):
            t = t * int(h[m - i, m - i - 1]) % p
            if not t:
                break
            f = t * int(h[m - i - 1, m - 1]) % p
            if f:
                cur = (cur - f * polys[m - i - 1]) % p
        polys.append(cur)
    return [int(x) for x in polys[k]]


def uncontrollable_charpoly_mod(a: np.ndarray, basis: np.ndarray, pivots: list[int],
                                p: int = PRIME) -> list[int]:
    """The characteristic polynomial mod p of a on the quotient F_p^n / K by
    the Krylov span K of some b, given as `krylov_spans_mod(a, b, p)` returns
    it (basis, pivots), from the constant term up (monic).

    Its roots are the uncontrollable modes of (a, b). The quotient's basis
    is the unit vectors off the pivot columns N: a column a e_j, j in N,
    reduced against the echelon basis keeps a[N, j] - basis[:, N]^T a[P, j]
    on N, P being the pivot columns.
    """
    rest = sorted(set(range(a.shape[0])) - set(pivots))
    quotient = (a[np.ix_(rest, rest)]
                - mod_matmul(basis[:, rest].T, a[np.ix_(pivots, rest)], p)) % p
    return charpoly_mod(quotient, p)


@cache
def prev_prime(q: int) -> int:
    """The largest prime below q > 2, by trial division (remembered: the
    lift asks for the same few primes below `PRIME` on every call)."""
    if q <= 2:
        raise ValueError("no prime below 2")
    q -= 1
    while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        q -= 1
    return q


def rational_reconstruction(u: int, modulus: int) -> Optional[Fraction]:
    """The fraction a / b with a = b u mod modulus and |a|, b <= sqrt(modulus / 2),
    or None when there is none (Wang, Guy and Davenport 1982): the extended
    Euclidean remainder sequence of (modulus, u), stopped at the first
    remainder within the bound. Such a fraction is unique when it exists.
    """
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, u % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _divisors(x: int, limit: int = 1 << 16) -> Optional[list[int]]:
    """The positive divisors of x != 0, or None when trial division below
    limit leaves a cofactor that may be composite."""
    divisors, x, q = [1], abs(x), 2
    while q * q <= x:
        if q >= limit:
            return None
        e = 0
        while x % q == 0:
            x, e = x // q, e + 1
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
        q += 1
    return divisors + [d * x for d in divisors] if x > 1 else divisors


def _divide_root(c: list, r: Fraction) -> Optional[list]:
    """Synthetic division of the polynomial c (constant term first) by
    x - r: the quotient when r is a root, else None."""
    acc = 0
    quotient = []
    for x in reversed(c[1:]):
        acc = acc * r + x
        quotient.append(acc)
    if acc * r + c[0]:
        return None
    return quotient[::-1]


# Rational-root candidates tested at most; past it the rest goes to numpy.
_MAX_CANDIDATES = 1 << 14


def rational_roots(c: list) -> tuple[list[Fraction], list]:
    """(roots, rest): the rational roots of the rational polynomial c
    (constant term first), each as often as its multiplicity, in the order
    found, and the factor of c they leave.

    Zero roots come off first. The other candidates are +-a/b with a a
    divisor of the constant term and b of the leading coefficient of c's
    primitive integer multiple (the rational-root test); each is divided
    out by repeated synthetic division, and a linear factor gives its root
    directly. The test is skipped, and the factor left whole, when a
    coefficient does not factor by trial division below 2**16 or the
    candidates number more than _MAX_CANDIDATES.
    """
    roots: list[Fraction] = []
    c = list(c)
    while len(c) > 1 and not c[0]:
        roots.append(ZERO)
        c = c[1:]
    if len(c) > 2:
        scale = lcm(*[Fraction(x).denominator for x in c])
        g = gcd(*[int(x * scale) for x in c])
        ends = _divisors(int(c[0] * scale) // g), _divisors(int(c[-1] * scale) // g)
        if None not in ends and 2 * len(ends[0]) * len(ends[1]) <= _MAX_CANDIDATES:
            for b in ends[1]:
                for a in ends[0]:
                    for r in (Fraction(a, b), Fraction(-a, b)):
                        while len(c) > 2 and (q := _divide_root(c, r)) is not None:
                            roots.append(r)
                            c = q
    if len(c) == 2:
        roots.append(Fraction(-c[0], c[1]))
        c = c[1:]
    return roots, c
