"""Dense exact reference loops: they touch every entry, zeros included, and
divide in `Fraction` at every step, so they share no code with the
zero-skipping, fraction-free kernels they check."""

from fractions import Fraction

from netctrl.ratfun import EntryClass


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
