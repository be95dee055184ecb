"""Exact linear algebra over integer matrices and lattices.

Matrices are sequences of rows of Python ints; no floats are ever
introduced.  One fraction-free elimination serves rank and gives each
triangulation cell its d * [rays; K]^-1 (`fan._cells`), whose columns
are the cell's walls and whose rows generate its parallelepiped group
(`conegf`); Hermite forms give the lattice of covectors vanishing on a span
(`left_kernel_basis`).  No package algorithm uses fractions: `solve`, the
one function that returns them, stays for the tests and the benchmark
harness, which read it as `conegf.solve`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index, mul

Vec = tuple[int, ...]


def dot(u, v):
    """The dot product of two sequences of equal length."""
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


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


def row_hnf(mat):
    """Row Hermite normal form of an integer matrix.

    Returns H (list of row lists, zero rows at the bottom) and a unimodular
    U with U*mat == H.
    """
    h = [list(row) for row in mat]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def swap(i, j):
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def addmul(i, j, q):
        # row_i -= q * row_j
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def negate(i):
        h[i] = [-a for a in h[i]]
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
    return h, u


def left_kernel_basis(mat):
    """The Hermite basis of the lattice {u in Z^k : u * mat == 0} for an
    integer matrix given as its k rows: the rows of U that `row_hnf` zeroes
    (all of them for a matrix with no columns), put in row Hermite normal
    form, so that the basis depends on the lattice alone."""
    h, u = row_hnf(mat)
    kernel = [ui for hi, ui in zip(h, u) if not any(hi)]
    return [tuple(row) for row in row_hnf(kernel)[0]]
