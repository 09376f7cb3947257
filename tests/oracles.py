"""Reference implementations the test suite checks the library against.

The library calls none of them. Each gives a second, independent answer to
a question the library settles another way:

* dense exact loops for the `exactla` kernels and the loop closure, and the
  per-value loop that `ratfun.pbh_stack` replaces with one broadcast;
* `ExactColumns`, a column matroid ranked by exact elimination, beside the
  float-only `matroid.NumericColumns`, and the dense Y, Z and one-block
  column oracle of a mode (`dense_y`, `dense_z`, `dense_columns`), beside
  the library's blocks [y_i z_i];
* the lumped fixed-mode route: the union rank of the transposed plant
  matroid with the two-diagonal parameter pattern of the diagonalized
  lumped plant (`check_fum_lumped`), and the square-form connection graph
  of that plant (`build_lumped_acg`, on the square-form builder
  `build_acg`), beside the paper's per-subsystem networked tests;
* exhaustive searches: the union rank by its rank formula (a pattern's
  rank is a maximum matching's size, `rank_of`) and the smallest covering
  row set by levelwise enumeration;
* design's stage 1 on the dense [Y Z] of each mode (`dense_g_value`,
  `dense_greedy_link_rows`, `dense_extract_cover_sets`), one global rank
  at one cutoff per matrix, beside the library's per-block ranks;
* design's coloring on the clique-union graph of the covers, every edge
  built and every saturation recounted at each step (`clique_union_color`),
  beside `design.greedy_color`, which keeps each row's seen colors;
* Hopcroft-Karp matching, and the recursive augmenting-path search
  (`recursive_max_matching`), beside `matroid._max_matching`, and the layout of
  the lumped parameter pattern beside `NdsModel.P_pattern`;
* the uncontrollable polynomial by a Fraction Kalman decomposition
  (`kalman_uncontrollable_polynomial`), beside the polynomial `realize`
  lifts from its Krylov quotients mod primes;
* the modular kernels eliminating row by row (`solve_mod`, Gauss-Jordan
  with the pivot row set aside, and `krylov_spans_mod`, each pivot
  cleared from the basis and the later candidates by two separate
  updates), beside `exactla.solve_mod` and `exactla.krylov_spans_mod`,
  which clear each pivot by one update over the rows holding its column;
* the connection-graph queries on vertex tuples over the whole graph
  (`scc_decompose`, `find_input_unreachable_lambda_cycle`,
  `find_input_unreachable_lambda_edge`,
  `unreachable_source_sccs_with_lambda_edge`), beside `structgraph`'s
  integer ids and its input reachability first.

Dense exact reference loops: they touch every entry, zeros included, and
divide in `Fraction` at every step, so they share no code with the
zero-skipping, fraction-free kernels they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from netctrl import exactla as ex
from netctrl import ratfun
from netctrl.design import ColoringGraph, InfeasibleDesignError
from netctrl.exactla import RANK_TOL, Mat
from netctrl.matroid import GenericPattern, IndependenceOracle, NumericColumns
from netctrl.model import NdsModel, StructuredPattern, assemble_lumped
from netctrl.ratfun import EntryClass, ModeData
from netctrl.structgraph import (Edge, SccDecomposition, StructureGraph, Vertex,
                                 _class_edges)
from netctrl.verify import ModeCheck


# --- dense and per-value reference loops ------------------------------------

def eye(n: int) -> Mat:
    return [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]


def transpose(m: Mat) -> Mat:
    r, c = ex.shape(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def _dense_mmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def _dense_rank_det(m):
    a = [list(row) for row in m]
    r = len(a)
    c = len(a[0]) if a else 0
    rank, det = 0, Fraction(1)
    for col in range(c):
        piv = next((i for i in range(rank, r) if a[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, r):
            ratio = a[i][col] / a[rank][col]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


def _dense_solve(a, b):
    n = len(a)
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _dense_close_loop(m, e, h, f, p):
    """m + e p (I - h p)^-1 f in dense Fraction arithmetic; None when the loop is singular."""
    hp = _dense_mmul(h, p)
    loop = [[(1 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(hp)]
    if _dense_rank_det(loop)[0] < len(loop):
        return None
    add = _dense_mmul(_dense_mmul(e, p), _dense_solve(loop, f))
    return [[x + y for x, y in zip(rm, ra)] for rm, ra in zip(m, add)]


def kalman_uncontrollable_polynomial(a: Mat, b: Mat) -> list[Fraction]:
    """The uncontrollable polynomial of (a, b) by a Kalman decomposition in
    Fractions: a basis V of the Krylov span from the columns of
    [b a b ... a^(n-1) b], completed by unit vectors to an invertible T; the
    polynomial is the characteristic polynomial of the trailing block of
    T^-1 a T (Faddeev-LeVerrier), from the constant term up (monic)."""
    n = len(a)
    block, krylov = [list(row) for row in b], []
    for _ in range(n):
        krylov += [[row[j] for row in block] for j in range(len(block[0]) if block else 0)]
        block = _dense_mmul(a, block)
    units = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    span: list = []
    for vectors in (krylov, units):
        r = len(span)
        for v in vectors:
            if _dense_rank_det(span + [v])[0] > len(span):
                span.append(v)
    t = [[span[j][i] for j in range(n)] for i in range(n)]
    quotient = [row[r:] for row in _dense_solve(t, _dense_mmul(a, t))[r:]]
    k = n - r
    coeffs = [Fraction(0)] * k + [Fraction(1)]
    acc = [[Fraction(0)] * k for _ in range(k)]
    for i in range(1, k + 1):
        acc = _dense_mmul(quotient, acc)
        for j in range(k):
            acc[j][j] += coeffs[k - i + 1]
        coeffs[k - i] = -sum(row[j] for j, row in enumerate(_dense_mmul(quotient, acc))) / i
    return coeffs


def _dense_entry_classes(c, a, b, d):
    """Entry classes of C (lambda*I - A)^-1 B + D from the Fraction Markov
    parameters C A^k B, k < n."""
    rows, cols = len(d), len(d[0]) if d else 0
    dynamic = [[False] * cols for _ in range(rows)]
    cak = c
    for k in range(len(a)):
        if k:
            cak = _dense_mmul(cak, a)
        for q, row in enumerate(_dense_mmul(cak, b)):
            for p, x in enumerate(row):
                if x != 0:
                    dynamic[q][p] = True
    return [[EntryClass("lambda") if dynamic[q][p]
             else EntryClass("constant", d[q][p]) if d[q][p] != 0
             else EntryClass("zero") for p in range(cols)] for q in range(rows)]


def _loop_pbh_stack(a, b, values, dtype):
    """`ratfun.pbh_stack` filled one value at a time: [lam I - A, B] per value."""
    n = a.shape[0]
    stack = np.empty((len(values), n, n + b.shape[1]), dtype)
    stack[:, :, n:] = b
    eye = np.eye(n)
    for out, lam in zip(stack, values):
        out[:, :n] = lam * eye - a
    return stack


# --- the modular kernels, eliminating row by row ----------------------------

def _eliminate_mod(m: np.ndarray, row: np.ndarray, j: int, p: int) -> None:
    """Subtract from each row of m its entry in column j times row, mod p,
    in place; only the rows with a nonzero entry there are touched."""
    rows = m[:, j].nonzero()[0]
    if rows.size:
        m[rows] = (m[rows] - m[rows, j, None] * row) % p


def solve_mod(a: np.ndarray, b: np.ndarray, p: int = ex.PRIME) -> Optional[np.ndarray]:
    """X with a X = b mod p, for int64 residues a (n x n) and b (n x k), by
    Gauss-Jordan elimination of [a | b]; None when a is singular mod p.
    A column that already holds only its unit pivot costs no update."""
    n = a.shape[0]
    aug = np.concatenate([a, b], axis=1)
    for j in range(n):
        i = j + int(np.argmax(aug[j:, j] != 0))
        if not aug[i, j]:
            return None
        if i != j:
            aug[[i, j]] = aug[[j, i]]
        row = aug[j]
        if row[j] != 1:
            row[:] = row * pow(int(row[j]), -1, p) % p
        pivot = row.copy()
        row[:] = 0  # the pivot row sits out its own elimination
        _eliminate_mod(aug, pivot, j, p)
        aug[j] = pivot
    return aug[:, n:]


def krylov_spans_mod(a: np.ndarray, b: np.ndarray,
                     p: int = ex.PRIME) -> tuple[np.ndarray, list[int]]:
    """The Krylov span of b under a mod p as (basis, pivots), a reduced
    row-echelon basis of the span as row vectors and each basis row's pivot
    column, built round by round: b's columns first, then each round the
    rows the last round added, times a, reduced against the basis by one
    `exactla.mod_matmul`. Each new pivot row is cleared from the basis rows
    and from the round's later candidates by two separate updates."""
    n = a.shape[0]
    at = np.ascontiguousarray(a.T)
    basis = np.zeros((n, n), np.int64)
    pivots: list[int] = []
    cand = np.ascontiguousarray(b.T)
    while cand.shape[0] and len(pivots) < n:
        r0 = len(pivots)
        if r0:
            cand = (cand - ex.mod_matmul(cand[:, pivots], basis[:r0], p)) % p
        for i in range(cand.shape[0]):
            row = cand[i]
            j = int(np.argmax(row != 0))
            if not row[j]:
                continue
            row = row * pow(int(row[j]), -1, p) % p
            r = len(pivots)
            _eliminate_mod(basis[:r], row, j, p)
            _eliminate_mod(cand[i + 1:], row, j, p)
            basis[r] = row
            pivots.append(j)
            if r + 1 == n:
                return basis, pivots
        cand = ex.mod_matmul(basis[r0:len(pivots)], at, p)
    return basis[:len(pivots)], pivots


# --- exact column matroid and union rank -------------------------------------

class ExactColumns(IndependenceOracle):
    """Independence = the chosen columns of a rational matrix have full
    column rank, by exact elimination; its `exchanges` ask once per pair."""

    def __init__(self, matrix: Mat):
        self.matrix = matrix
        self.rows, self.ground_size = ex.shape(matrix)
        self._rank_cache: dict[frozenset, int] = {}

    def rank_of(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        cols = sorted(key)
        rank = ex.exact_rank(ex.submatrix(self.matrix, None, cols)) if cols else 0
        self._rank_cache[key] = rank
        return rank

    def independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        return self.rank_of(key) == len(key)


def rank_of(oracle: IndependenceOracle, subset: Iterable[int]) -> int:
    """The rank of a subset, which the intersection never asks for: for a
    `GenericPattern`, the size of a maximum matching of its columns; for a
    `NumericColumns`, the sum of its parts' ranks, through the oracle's own
    `BlockRanks`; for an `ExactColumns`, its own cached `rank_of`."""
    if isinstance(oracle, GenericPattern):
        return len(oracle._matching(subset))
    if isinstance(oracle, NumericColumns):
        return sum(oracle._ranks.ranks(list(oracle._keys(subset).values())))
    return oracle.rank_of(subset)


def matroid_union_rank(numeric_part, generic_pattern: StructuredPattern,
                       seed: int = 0, trials: int = 3, tol: float = RANK_TOL) -> int:
    """Union rank by randomized stacked rank.

    Stacking the numeric rows over a random realization of the generic rows
    represents the union matroid; a substituted rank can only fall below the
    generic one, so the maximum over independent draws is reported and extra
    draws are spent whenever trials disagree.
    """
    rng = random.Random(seed)
    if isinstance(numeric_part, list):
        n_cols = ex.shape(numeric_part)[1]
        exact = True
    else:
        numeric_part = np.asarray(numeric_part)
        n_cols = numeric_part.shape[1]
        exact = False
    if generic_pattern.cols != n_cols:
        raise ValueError("numeric and generic parts must share the column count")
    bound = 2 * max(1, generic_pattern.rows) * max(1, generic_pattern.num_free)
    ranks = []
    budget = trials + 2
    while len(ranks) < trials or (len(set(ranks)) > 1 and len(ranks) < budget):
        sub = generic_pattern.substitute(generic_pattern.draw(rng, bound))
        if exact:
            stacked = ex.vstack([numeric_part, sub]) if generic_pattern.rows else numeric_part
            ranks.append(ex.exact_rank(stacked))
        else:
            sub_f = ex.to_float(sub) if generic_pattern.rows else np.zeros((0, n_cols))
            ranks.append(ex.float_rank(np.vstack([numeric_part, sub_f]), tol))
    return max(ranks)


def exhaustive_union_rank(numeric_part, generic_pattern: StructuredPattern,
                          tol: float = RANK_TOL) -> int:
    """Deterministic union rank for small grounds via the rank formula.

    rank(union) = min over subsets A of |E \\ A| + r1(A) + r2(A); only usable
    when 2**|E| subsets are affordable.
    """
    o1 = (ExactColumns(numeric_part) if isinstance(numeric_part, list)
          else dense_columns(numeric_part, tol))
    o2 = GenericPattern(generic_pattern)
    n = o1.ground_size
    if o2.ground_size != n:
        raise ValueError("ground sets differ")
    if n > 16:
        raise ValueError("exhaustive union rank limited to small ground sets")
    elements = list(range(n))
    best = n
    for mask in range(1 << n):
        subset = [e for e in elements if mask >> e & 1]
        value = (n - len(subset)) + rank_of(o1, subset) + rank_of(o2, subset)
        if value < best:
            best = value
    return best


# --- matching and the parameter pattern layout -------------------------------

def _hopcroft_karp(adj: dict) -> dict:
    """Maximum matching (left -> right) of a bipartite graph given as left -> rights."""
    INF = float("inf")
    match_l: dict = {}
    match_r: dict = {}
    lefts = sorted(adj)

    def bfs() -> bool:
        dist = {}
        queue = []
        for l in lefts:
            if l not in match_l:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = INF
        found = INF
        qi = 0
        while qi < len(queue):
            l = queue[qi]
            qi += 1
            if dist[l] >= found:
                continue
            for r in adj[l]:
                nxt = match_r.get(r)
                if nxt is None:
                    found = min(found, dist[l] + 1)
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[l] + 1
                    queue.append(nxt)
        bfs.dist = dist
        return found != INF

    def dfs(l) -> bool:
        for r in adj[l]:
            nxt = match_r.get(r)
            if nxt is None or (bfs.dist.get(nxt) == bfs.dist[l] + 1 and dfs(nxt)):
                match_l[l] = r
                match_r[r] = l
                return True
        bfs.dist[l] = float("inf")
        return False

    while bfs():
        for l in lefts:
            if l not in match_l:
                dfs(l)
    return match_l


def recursive_max_matching(adj: dict) -> dict:
    """Maximum matching (left -> right) of a bipartite graph given as left ->
    rights: one recursive augmenting-path search per left vertex, in sorted
    order. The recursion depth is the length of the path, so Python's
    recursion limit bounds it."""
    match_l: dict = {}
    match_r: dict = {}

    def augment(l, seen: set) -> bool:
        for r in adj[l]:
            if r not in seen:
                seen.add(r)
                if r not in match_r or augment(match_r[r], seen):
                    match_l[l] = r
                    match_r[r] = l
                    return True
        return False

    for l in sorted(adj):
        augment(l, set())
    return match_l


def lumped_pattern_entries(nds: NdsModel) -> dict:
    """The network's parameter pattern entries, laid out from the port counts
    alone: routing entries in the original port rows/columns, moved to
    analysis port indices, then per-subsystem parameter patterns on the
    auxiliary diagonal blocks."""
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
    return entries


# --- the lumped fixed-mode route ---------------------------------------------

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


_ZERO = EntryClass("zero")


def build_acg(gzv_classes: list, gzu_classes: list) -> StructureGraph:
    """Square-form connection graph: output-to-output and input-to-output edges."""
    k = len(gzv_classes)
    if any(len(row) != k for row in gzv_classes):
        raise ValueError("square class matrix required")
    q_in = len(gzu_classes[0]) if gzu_classes else 0
    verts = [("z", 0, a + 1) for a in range(k)] + [("u", 0, j + 1) for j in range(q_in)]
    edges = _class_edges(gzv_classes, "z", "z", 0) + _class_edges(gzu_classes, "u", "z", 0)
    return StructureGraph(verts, edges)


def build_lumped_acg(nds: NdsModel, tfms: list) -> StructureGraph:
    """Square-form graph of the diagonalized lumped plant.

    Vertex a stands for the a-th free routing/parameter entry; the transfer
    between two entries is the (output column, input row) selection of the
    block-diagonal internal transfer matrix, so edge existence and frequency
    dependence come straight from the per-subsystem entry classes.
    """
    positions = assemble_lumped(nds).P_pattern.positions()
    k = len(positions)
    outputs = [nds.locate("z", c) for _, c in positions]
    inputs = [nds.locate("v", r) for r, _ in positions]
    gzv_cls = [[tfms[iz].gzv_classes[pz][pv] if iz == iv else _ZERO
                for iv, pv in inputs] for iz, pz in outputs]
    u_off = nds.offsets["u"]
    gzu_cls = [[_ZERO] * nds.M_u for _ in range(k)]
    for a, (iz, pz) in enumerate(outputs):
        for pu in range(nds.analysis[iz].m_u):
            gzu_cls[a][u_off[iz] + pu] = tfms[iz].gzu_classes[pz][pu]
    return build_acg(gzv_cls, gzu_cls)


# --- design's stage 1 on the dense [Y Z] -------------------------------------

def _block_diag(blocks: list, dtype) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=dtype)
    r0 = c0 = 0
    for b in blocks:
        out[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    return out


def dense_y(md: ModeData) -> np.ndarray:
    """The dense Y of a mode: the subsystems' y_i on the block diagonal."""
    return _block_diag([s.y for s in md.per_sub], ratfun._dtype(md.lam))


def dense_z(md: ModeData) -> np.ndarray:
    """The dense Z of a mode: the subsystems' z_i on the block diagonal."""
    return _block_diag([s.z for s in md.per_sub], ratfun._dtype(md.lam))


def dense_columns(matrix, tol: float = RANK_TOL) -> NumericColumns:
    """The column oracle of a dense matrix: `NumericColumns` of one block."""
    matrix = np.asarray(matrix)
    return NumericColumns([(matrix, range(matrix.shape[1]))], tol)


def _q2_matrix(md: ModeData) -> np.ndarray:
    return np.hstack([dense_y(md), dense_z(md)])


def dense_g_value(j_set, modes: list[ModeData], rank_tol: float = RANK_TOL) -> int:
    """Sum over modes of rank([Y restricted to the chosen rows | Z])."""
    cols = sorted(j_set)
    total = 0
    for md in modes:
        sub = np.hstack([dense_y(md)[:, cols], dense_z(md)]) if cols else dense_z(md)
        total += ex.float_rank(sub, rank_tol)
    return total


def dense_greedy_link_rows(modes: list[ModeData], M_v: int,
                           rank_tol: float = RANK_TOL) -> tuple[list[int], list[int]]:
    """Greedy row selection until the coverage function hits its ceiling.

    Returns the selected rows in insertion order together with the trace of
    coverage values (one entry per iteration, starting at the empty set);
    ties go to the smallest row index. Each step ranks every candidate's
    matrix [Y restricted to the chosen rows plus the candidate | Z] of one
    mode with one stacked singular-value call.
    """
    target = sum(md.M_r for md in modes)
    chosen: list[int] = []
    trace = [dense_g_value(chosen, modes, rank_tol)]
    current = trace[0]
    while current < target:
        cands = [a for a in range(M_v) if a not in chosen]
        totals = np.zeros(len(cands), dtype=int)
        if cands:
            cols = np.array([sorted(chosen + [a]) for a in cands])
            for md in modes:
                z = dense_z(md)
                ys = np.moveaxis(dense_y(md)[:, cols], 1, 0)
                zs = np.broadcast_to(z, (len(cands),) + z.shape)
                totals += ex.float_rank(np.concatenate([ys, zs], axis=2), rank_tol)
        if not cands or totals.max() <= current:
            raise InfeasibleDesignError(
                "coverage cannot reach its ceiling; the feasibility conditions fail")
        # argmax takes the first largest total: ties go to the smallest row
        best = int(np.argmax(totals))
        chosen.append(cands[best])
        current = int(totals[best])
        trace.append(current)
    return chosen, trace


def dense_extract_cover_sets(j_grd: list[int], modes: list[ModeData], M_v: int, M_z: int,
                             rank_tol: float = RANK_TOL) -> list[list[int]]:
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
            r = ex.float_rank(q2[:, sorted(cover + [s])], rank_tol)
            if r > rank_now:
                cover.append(s)
                rank_now = r
        for s in sorted(j_grd):
            if rank_now == md.M_r:
                cover.append(s)
                continue
            r = ex.float_rank(q2[:, sorted(cover + [s])], rank_tol)
            if r > rank_now:
                cover.append(s)
                rank_now = r
        if rank_now != md.M_r:
            raise InfeasibleDesignError(
                f"cover extraction stalled at rank {rank_now} < {md.M_r}")
        covers.append(sorted(cover))
    return covers


# --- design's coloring on the clique-union graph -----------------------------

def clique_union_color(cover_sets: list[list[int]], M_v: int, M_z: int,
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


# --- exhaustive row search ---------------------------------------------------

def minimal_rows_exhaustive(modes: list[ModeData], M_v: int,
                            rank_tol: float = ratfun.RANK_TOL) -> Optional[list[int]]:
    """Smallest row subset with full coverage, by levelwise enumeration."""
    target = sum(md.M_r for md in modes)
    for size in range(M_v + 1):
        for combo in itertools.combinations(range(M_v), size):
            if dense_g_value(combo, modes, rank_tol) == target:
                return list(combo)
    return None


# --- connection-graph queries on vertex tuples -------------------------------

def _tarjan(vertices, adj) -> list[list[Vertex]]:
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set = set()
    stack: list[Vertex] = []
    counter = [0]
    comps: list[list[Vertex]] = []
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def scc_decompose(g: StructureGraph) -> SccDecomposition:
    """Strongly connected components, condensation edges and input reachability."""
    adj = g.successors()
    comps = _tarjan(list(g.vertices), adj)
    comps = sorted((tuple(sorted(c)) for c in comps), key=lambda c: c[0])
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    cond = set()
    for s, d, _ in g.edges:
        cs, cd = comp_of[s], comp_of[d]
        if cs != cd:
            cond.add((cs, cd))
    reach: dict[Vertex, bool] = {v: False for v in g.vertices}
    frontier = [v for v in g.vertices if v[0] == "u"]
    for v in frontier:
        reach[v] = True
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if not reach[w]:
                    reach[w] = True
                    nxt.append(w)
        frontier = nxt
    return SccDecomposition(tuple(comps), comp_of, tuple(sorted(cond)), reach)


def _path_in_subset(adj, allowed: set, start: Vertex, goal: Vertex) -> Optional[list]:
    """Shortest path start->goal using only allowed vertices (BFS, sorted ties)."""
    if start == goal:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in allowed or w in prev:
                    continue
                prev[w] = v
                if w == goal:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def _canonical_cycle(cycle: list) -> list:
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _lambda_cycle_components(g: StructureGraph, scc: SccDecomposition) -> dict:
    """Input-unreachable components that hold an internal lambda edge.

    This is the one moving-mode criterion. Maps each such component index to
    its first internal lambda edge in sorted edge order. Both endpoints of
    an internal edge share a component, so the edge closes into a cycle.
    """
    marked: dict[int, Edge] = {}
    for s, d, kind in sorted(g.edges):
        if kind != "lambda":
            continue
        c = scc.comp_of[s]
        if c == scc.comp_of[d] and c not in marked and not scc.component_reachable(c):
            marked[c] = (s, d, kind)
    return marked


def find_input_unreachable_lambda_cycle(g: StructureGraph,
                                        scc: Optional[SccDecomposition] = None) -> Optional[list]:
    """Witness cycle through a frequency-dependent edge no input can reach.

    The first marked component (by component order) supplies the witness:
    its first internal lambda edge, closed by the shortest path back from the
    edge's head to its tail inside the component, rotated to start at the
    smallest vertex.
    """
    scc = scc if scc is not None else scc_decompose(g)
    marked = _lambda_cycle_components(g, scc)
    if not marked:
        return None
    idx = min(marked)
    s, d, _ = marked[idx]
    back = _path_in_subset(g.successors(), set(scc.components[idx]), d, s)
    return _canonical_cycle(back)


def find_input_unreachable_lambda_edge(g: StructureGraph,
                                       scc: Optional[SccDecomposition] = None) -> Optional[Edge]:
    """First frequency-dependent edge with both endpoints unreachable from inputs."""
    scc = scc if scc is not None else scc_decompose(g)
    for s, d, kind in sorted(g.edges):
        if kind == "lambda" and not scc.input_reachable[s] and not scc.input_reachable[d]:
            return (s, d, kind)
    return None


def unreachable_source_sccs_with_lambda_edge(g: StructureGraph,
                                             scc: Optional[SccDecomposition] = None) -> list:
    """Input-unreachable components with no incoming edge and an internal lambda edge."""
    scc = scc if scc is not None else scc_decompose(g)
    has_incoming = {d for _, d in scc.condensation}
    marked = _lambda_cycle_components(g, scc)
    return [scc.components[idx] for idx in sorted(marked) if idx not in has_incoming]
