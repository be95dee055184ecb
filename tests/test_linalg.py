"""Exact linear algebra against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import det, det_int, invert
from monozeta.linalg import (
    dot,
    eliminate,
    left_kernel_basis,
    primitive,
    rank,
    row_hnf,
    solve,
    vec_gcd,
)


def permutation_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# a zero leading pivot forces row swaps (and flips the sign of det);
# entries near 10^12 keep the fraction-free updates honest on big ints
SPECIAL = [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[0, 2, 1], [0, 1, 3], [4, 0, 5]],
    [[0, 0, 3, 1], [2, 0, 0, 1], [0, 5, 1, 0], [1, 1, 1, 1]],
    [[0, 0], [0, 5]],
    [[10**12 + 1, 3, -7], [5, -10**12, 2], [10**12 - 3, 11, 10**12 + 7]],
    [[0, 10**12, 1], [10**12 + 9, 1, 0], [7, -(10**12), 10**12 - 1]],
]


def test_dot_products_and_length_mismatch():
    assert dot((1, -2, 3), [4, 5, 6]) == 12 and dot((), ()) == 0
    for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))):
        with pytest.raises(ValueError):
            dot(u, v)


def test_primitive_and_gcd():
    assert vec_gcd((4, -6, 8)) == 2
    assert vec_gcd((0, 0)) == 0
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((-2, -4)) == (-1, -2)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_det_matches_permutation_expansion():
    rng = random.Random(100)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert det(m) == permutation_det(m)
    for m in SPECIAL:
        assert det(m) == permutation_det(m)
        assert det_int(m) == permutation_det(m)
        red, pivots, d, sign = eliminate(m)
        assert all(type(a) is int for row in red for a in row)
        assert type(d) is int and sign in (1, -1)


def test_det_int_requires_integrality():
    assert det_int([[2, 1], [1, 1]]) == 1
    assert det_int([[3]]) == 3


def test_invert_roundtrip():
    rng = random.Random(101)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if det(m) == 0:
            continue
        inv = invert(m)
        for i in range(n):
            for j in range(n):
                s = sum(Fraction(m[i][k]) * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)
        done += 1
    for m in SPECIAL:
        n = len(m)
        if det(m) == 0:
            continue
        inv = invert(m)
        for i in range(n):
            for j in range(n):
                assert sum(m[i][k] * inv[k][j] for k in range(n)) == (i == j)
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])


def test_solve_produces_solutions():
    rng = random.Random(102)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = [dot(row, x) for row in a]
        sol = solve(a, b)
        assert sol is not None
        for row, bi in zip(a, b):
            assert sum(Fraction(c) * s for c, s in zip(row, sol)) == bi
    for a in SPECIAL:
        x = [3, -(10**6), 7, 1][:len(a[0])]
        b = [dot(row, x) for row in a]
        sol = solve(a, b)
        assert sol is not None
        assert [sum(c * s for c, s in zip(row, sol)) for row in a] == b


def test_solve_detects_inconsistency():
    assert solve([[1, 0], [1, 0]], [0, 1]) is None
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_row_hnf_properties():
    rng = random.Random(103)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h, u = row_hnf(a)
        assert abs(det_int(u)) == 1
        for i in range(m):
            for j in range(n):
                assert sum(u[i][k] * a[k][j] for k in range(m)) == h[i][j]
        # echelon with positive pivots, reduced entries above, zero rows last
        prev = -1
        seen_zero = False
        for row in h:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                seen_zero = True
                continue
            assert not seen_zero
            assert nz > prev
            assert row[nz] > 0
            prev = nz
        for i, row in enumerate(h):
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            for k in range(i):
                assert 0 <= h[k][nz] < row[nz]


def test_left_kernel():
    rng = random.Random(104)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -3, 3)
        basis = left_kernel_basis(a)
        assert len(basis) == m - rank(a)
        for u in basis:
            for j in range(n):
                assert sum(u[i] * a[i][j] for i in range(m)) == 0


def test_left_kernel_basis_depends_on_the_lattice_alone():
    # the kernel of a matrix is unchanged by appending integer combinations
    # of its columns and by permuting them, and so is its Hermite basis
    rng = random.Random(106)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -3, 3)
        basis = left_kernel_basis(a)
        assert [list(u) for u in basis] == row_hnf(basis)[0]
        extra = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        wider = [list(row) + [dot(row, c) for c in extra] for row in a]
        order = rng.sample(range(len(wider[0])), len(wider[0]))
        assert left_kernel_basis([[row[j] for j in order] for row in wider]) == basis
