"""Exact linear algebra over integer matrices and lattices.

Matrices are sequences of rows of Python ints; no floats are ever
introduced.  One fraction-free elimination serves rank, det_int, solve and
the parallelepiped enumeration's d * B^-T (`conegf`).  Fractions appear
only in what solve returns and in scale_to_int, which clears them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

Vec = tuple[int, ...]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def unit(i, n) -> Vec:
    """The i-th unit vector of length n."""
    return tuple(int(j == i) for j in range(n))


def vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive(v) -> Vec:
    """Shortest integer vector on the ray through v (v must be nonzero)."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in v)


def scale_to_int(v) -> Vec:
    """Clear denominators of a rational vector and make it primitive."""
    mult = 1
    for a in v:
        d = Fraction(a).denominator
        mult = mult * d // gcd(mult, d)
    w = tuple(int(a * mult) for a in v)
    return primitive(w)


def eliminate(rows):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivots, d, sign).  Every pivot row i has the common pivot
    value d at column pivots[i] and zero in the other pivot columns, so the
    reduced rows are d times the rational reduced echelon form; d is a minor
    of the input (1 when there is no pivot) and sign is the parity of the
    row swaps.  All entries stay Python ints: each update divides exactly by
    the previous pivot (Bareiss, Math. Comp. 22 (1968)).
    """
    m = [[index(a) for a in row] for row in rows]
    pivots = []
    d, sign = 1, 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
        d = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, d, sign


def rank(rows) -> int:
    return len(eliminate(rows)[1])


def det_int(rows) -> int:
    _, pivots, d, sign = eliminate(rows)
    return sign * d if len(pivots) == len(rows) else 0


def solve(rows, rhs):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    The system may be under- or over-determined; free variables are set
    to zero, which keeps the choice deterministic.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    red, pivots, d, _ = eliminate(aug)
    if ncols in pivots:
        return None
    # pivot row i reads d x_c + (free terms) = red[i][ncols], and the free
    # variables are pinned to zero; y = d x
    y = [0] * ncols
    for i, c in enumerate(pivots):
        y[c] = red[i][ncols]
    for row, b in zip(rows, rhs):
        if dot(row, y) != b * d:
            return None
    return tuple(Fraction(a, d) for a in y)


def row_hnf(mat, transform=False):
    """Row Hermite normal form of an integer matrix.

    Returns H (list of row lists, zero rows at the bottom) and, when
    transform is set, a unimodular U with U*mat == H.
    """
    h = [list(row) for row in mat]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if transform else None

    def swap(i, j):
        h[i], h[j] = h[j], h[i]
        if u:
            u[i], u[j] = u[j], u[i]

    def addmul(i, j, q):
        # row_i -= q * row_j
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        if u:
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def negate(i):
        h[i] = [-a for a in h[i]]
        if u:
            u[i] = [-a for a in u[i]]

    pr = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(pr, nrows) if h[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: (abs(h[i][col]), i))
            swap(pr, best)
            done = True
            for i in range(pr + 1, nrows):
                if h[i][col] != 0:
                    addmul(i, pr, h[i][col] // h[pr][col])
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if pr < nrows and h[pr][col] != 0:
            if h[pr][col] < 0:
                negate(pr)
            for i in range(pr):
                q = h[i][col] // h[pr][col]
                if q:
                    addmul(i, pr, q)
            pr += 1
            if pr == nrows:
                break
    return (h, u) if transform else h


def left_kernel_basis(mat, nrows=None):
    """Basis of the lattice {u in Z^k : u * mat == 0} for an integer matrix.

    mat is given as k rows; pass nrows explicitly when mat has no rows to
    disambiguate the ambient rank.
    """
    k = len(mat) if nrows is None else nrows
    if k == 0:
        return []
    if not mat or not mat[0]:
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]
    h, u = row_hnf(mat, transform=True)
    return [tuple(u[i]) for i in range(k) if all(a == 0 for a in h[i])]


def saturation_basis(vectors, n):
    """Basis (rows) of span_Q(vectors) ∩ Z^n, the saturated sublattice.

    Returns r rows for a rank-r span; the empty list when all vectors vanish.
    """
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return []
    # covectors vanishing on the span
    perp = left_kernel_basis([tuple(v[i] for v in vecs) for i in range(n)], nrows=n)
    if not perp:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # vectors orthogonal to every such covector
    back = left_kernel_basis([tuple(p[i] for p in perp) for i in range(n)], nrows=n)
    return [tuple(row) for row in back]
