"""Parallelepiped enumeration and bigraded cone generating functions."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from oracles import cone_faces, det_int, gf_series_brute, naive_parallelepiped, orthant_points
from monozeta import conegf, fan, linalg
from monozeta.conegf import (
    Grading,
    HalfOpenSimplicialCone,
    _half_open_cells,
    interior_lattice_gf,
    lattice_gf,
    parallelepiped_points,
    sum_half_open_cells,
    weight_shift,
)
from monozeta.fan import Cone, cone_from_rays, normal_fan, triangulate
from monozeta.linalg import dot, solve
from monozeta.polyhedra import MonomialIdeal, newton_polyhedron
from monozeta.ring import BinomialFactor, BiRationalFunction


def test_parallelepiped_frozen_examples():
    assert parallelepiped_points(HalfOpenSimplicialCone([(1, 1)])) == [(0, 0)]
    cell = HalfOpenSimplicialCone([(1, 2), (1, 0)])
    assert parallelepiped_points(cell) == [(0, 0), (1, 1)]
    cell = HalfOpenSimplicialCone([(1, 2), (1, 0)], {0, 1})
    assert parallelepiped_points(cell) == [(1, 1), (2, 2)]
    cell = HalfOpenSimplicialCone([(1, 2), (1, 0)], {0})
    assert parallelepiped_points(cell) == [(1, 1), (1, 2)]
    # non-primitive ray: index-two sublattice, two residues
    assert parallelepiped_points(HalfOpenSimplicialCone([(2, 4)])) == [(0, 0), (1, 2)]


def test_cell_validation():
    with pytest.raises(ValueError):
        HalfOpenSimplicialCone([])
    with pytest.raises(ValueError):
        HalfOpenSimplicialCone([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        HalfOpenSimplicialCone([(1, 0)], {1})
    with pytest.raises(ValueError, match="unequal lengths"):
        HalfOpenSimplicialCone([(1, 0), (0, 1, 1)])
    with pytest.raises(ValueError, match="has length 2, not n = 3"):
        cone_from_rays([(1, 0)], 3)


def random_cell(rng, allow_negative=False):
    n = rng.randint(1, 3)
    lo = -3 if allow_negative else 0
    while True:
        k = rng.randint(1, n)
        rays = []
        for _ in range(k):
            v = tuple(rng.randint(lo, 3) for _ in range(n))
            if any(v):
                rays.append(v)
        try:
            cell = HalfOpenSimplicialCone(
                rays, {j for j in range(len(rays)) if rng.random() < 0.4}
            )
        except ValueError:
            continue
        return cell


# a cone over a square: of codimension 2 in R^5, and full-dimensional in R^3
SQUARE_R5 = [(0, 0, 1, 1, 1), (1, 0, 1, 2, 1), (0, 1, 1, 1, 2), (1, 1, 1, 2, 2)]
SQUARE_R3 = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def oracle_cells():
    """Random cells, negative and non-primitive rays and r = 1 among them,
    plus cells of rank below n with every choice of open walls."""
    rng = random.Random(600)
    cells = [random_cell(rng, allow_negative=i % 2 == 1) for i in range(100)]
    # rank below n in R^4 and R^5, with every choice of open walls; the first
    # pair after the square's has index 6 in its span lattice, and in the
    # second the first two coordinate columns span only 2Z^2 of Z^2
    low_rank = [list(c) for k in (2, 3) for c in itertools.combinations(SQUARE_R5, k)]
    low_rank += [[(2, 0, 2, 0), (0, 3, 3, 3)], [(2, 0, 1, 0), (0, 2, 0, 1)]]
    for rays in low_rank:
        for k in range(len(rays) + 1):
            cells += [HalfOpenSimplicialCone(rays, opened)
                      for opened in itertools.combinations(range(len(rays)), k)]
    return cells


def test_parallelepiped_matches_naive_oracle():
    for cell in oracle_cells():
        got = parallelepiped_points(cell)
        assert got == naive_parallelepiped(cell.rays, cell.open_facets), cell
        assert len(set(got)) == len(got)


def graded_weights(cell, grading):
    """The graded call's keys t + (p << S), decoded with the rounding shift
    into the weights (t, p); t and p may be negative here."""
    shift = weight_shift(cell, grading)
    half = 1 << (shift - 1)
    return [(key - (p << shift), p)
            for key in parallelepiped_points(cell, grading) for p in ((key + half) >> shift,)]


# groups with a radix above 10^4: cyclic of prime order 20,011, and
# Z/2 x Z/20014, which is not cyclic
LARGE_GROUPS = [[(1, 0), (1, 20011)], [(2, 2), (0, 20014)]]


def in_plane_cell(cell, v):
    """Does v lie in the half-open parallelepiped of a cell of two rays in
    the plane?  Cramer's rule: its coefficients are lam_j = num_j / det."""
    (a, b), (c, e) = cell.rays
    det = a * e - b * c
    sign = 1 if det > 0 else -1
    nums = (sign * (v[0] * e - v[1] * c), sign * (a * v[1] - b * v[0]))
    return all(0 < x <= abs(det) if j in cell.open_facets else 0 <= x < abs(det)
               for j, x in enumerate(nums))


def test_graded_descent_weighs_every_point_once():
    # the graded call gives one weight key per point: the multiset of the
    # points' weights, negative weights and gradings included
    rng = random.Random(602)
    cells = oracle_cells()
    rays = [r for c in cells for r in c.rays]
    assert any(min(r) < 0 for r in rays) and any(gcd(*r) > 1 for r in rays)
    assert any(len(c.rays) == 1 for c in cells)
    assert any(len(c.rays) < len(c.rays[0]) for c in cells)
    large = [HalfOpenSimplicialCone(rays, opened)
             for rays in LARGE_GROUPS for opened in ((), (1,), (0, 1))]
    for cell in cells + large:
        points = parallelepiped_points(cell)
        n = len(cell.rays[0])
        if cell in large:  # too large for the naive oracle
            assert len(set(points)) == len(points) == abs(det_int([list(r) for r in cell.rays]))
            assert all(in_plane_cell(cell, v) for v in points), cell
        for _ in range(1 if cell in large else 3):
            g = Grading(*(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(2)))
            weights = graded_weights(cell, g)
            assert len(weights) == len(points), cell
            assert Counter(weights) == Counter(g.weight(v) for v in points), (cell, g)


def test_pipeline_cells_match_public_cells():
    # a cell from triangulate's one elimination of [rays; C | I], C the
    # span-kernel pairs of the cone's inequalities, against the same rays
    # built in public, C from left_kernel_basis: the same points, and under
    # a grading the same keys
    rng = random.Random(606)
    large = [HalfOpenSimplicialCone(rays, opened)
             for rays in LARGE_GROUPS for opened in ((), (1,), (0, 1))]
    cells = oracle_cells() + large
    assert any(len(c.rays) < len(c.rays[0]) and c.open_facets for c in cells)
    for cell in cells:
        n = len(cell.rays[0])
        # the cone over the cell's own rays (unsorted, maybe not primitive)
        hull = cone_from_rays(cell.rays, n)
        cone = Cone(n, cell.rays, hull.ineqs, hull.dim)
        # a reference point beyond exactly the cell's open walls
        q = tuple(sum(-x if j in cell.open_facets else x for j, x in enumerate(col))
                  for col in zip(*cell.rays))
        (piped,) = _half_open_cells(cone, q)
        assert piped == cell
        assert parallelepiped_points(piped) == parallelepiped_points(cell), cell
        g = Grading(*(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(2)))
        assert (Counter(parallelepiped_points(piped, g))
                == Counter(parallelepiped_points(cell, g))), (cell, g)


def test_cell_points_are_refused_before_counting(monkeypatch):
    # x^k, y: two cells with |det| 1 and k, so the plan sums to k + 1 points;
    # at the limit the cells are summed, past it no point is counted
    sigmas = normal_fan(newton_polyhedron(MonomialIdeal(2, [(9, 0), (0, 1)]))).maximal_cones()
    jobs = [(sigma, (1, 1), Grading(sigma.vertex, (1, 1))) for sigma in sigmas]
    counted = []

    def counting(cell, grading):
        keys = parallelepiped_points(cell, grading)
        counted.extend(keys)
        return keys

    monkeypatch.setattr(conegf, "parallelepiped_points", counting)
    monkeypatch.setattr(conegf, "_MAX_CELL_POINTS", 10)
    sum_half_open_cells(jobs)
    assert len(counted) == 10
    monkeypatch.setattr(conegf, "_MAX_CELL_POINTS", 9)
    monkeypatch.setattr(conegf, "parallelepiped_points", None)
    with pytest.raises(ValueError, match=r"hold at least 10 lattice points .*; the limit is 9$"):
        sum_half_open_cells(jobs)


def test_cell_points_are_refused_at_the_first_cell_past_the_limit(monkeypatch):
    # the n = 6 ideal that CI verifies: 197 cells, 5 of its maximal cones
    # non-simplicial.  With the limit low, the plan stops at the first cell
    # that passes it, so most cells are never eliminated
    ideal = MonomialIdeal(6, [(3, 1, 1, 1, 0, 1), (1, 0, 2, 2, 2, 3), (3, 2, 1, 3, 0, 1),
                              (3, 3, 0, 3, 1, 0), (3, 3, 3, 0, 3, 3), (2, 3, 0, 1, 2, 3),
                              (3, 1, 0, 0, 0, 2), (2, 1, 2, 3, 2, 2)])
    sigmas = normal_fan(newton_polyhedron(ideal)).maximal_cones()
    assert sum(len(triangulate(sigma)) for sigma in sigmas) == 197
    calls = []

    def counted(*args):
        calls.append(1)
        return linalg.eliminate(*args)

    monkeypatch.setattr(fan, "eliminate", counted)
    monkeypatch.setattr(conegf, "_MAX_CELL_POINTS", 20)
    ones = (1,) * ideal.n
    with pytest.raises(ValueError, match=r"hold at least 2\d lattice points .*; the limit is 20$"):
        sum_half_open_cells([(sigma, ones, Grading(sigma.vertex, ones)) for sigma in sigmas])
    assert 0 < len(calls) < 197


def test_lower_dimensional_cell_points_are_counted_exactly(monkeypatch):
    # a simplicial cone of codimension 1 whose |det [rays; C]| is 1,115,642
    # and whose parallelepiped holds 2 points: the cap and the plan's bound
    # read the 2, so the sums run even with the limit at 2.  The interior's
    # first point has P-degree 63, past any brute-force bound this test can
    # afford, so the open faces are also checked to sum to the closed cone
    cone = cone_from_rays([(1, 6, 1, 0, 2), (2, 2, 7, 9, 2), (3, 6, 5, 8, 0), (7, 6, 8, 4, 0)], 5)
    grading = Grading((1, 0, 2, 1, 0), (1, 1, 1, 1, 1))
    (cell,) = _half_open_cells(cone, tuple(sum(col) for col in zip(*cone.rays)))
    assert cone.dim == 4 and cell.group[0] == 1115642
    assert len(parallelepiped_points(cell)) == conegf._cell_points(cell) == 2
    monkeypatch.setattr(conegf, "_MAX_CELL_POINTS", 2)
    closed, interior = lattice_gf(cone, grading), interior_lattice_gf(cone, grading)
    assert len(closed.numerator.terms()) == 2
    assert closed.series(20) == gf_series_brute(cone, grading, 20)
    assert interior.series(20) == gf_series_brute(cone, grading, 20, interior=True)
    total = BiRationalFunction.zero()
    for face, _ in cone_faces(cone):
        total = total + interior_lattice_gf(face, grading)
    assert total.reduced() == closed.reduced()


def test_one_elimination_per_cell(monkeypatch):
    # the pipeline's cell route over maximal cones simplicial and not: each
    # cell costs one elimination, in any module, and no Hermite form
    ideal = MonomialIdeal(3, [(2, 2, 0), (3, 1, 0), (1, 0, 2), (3, 1, 3)])
    sigmas = normal_fan(newton_polyhedron(ideal)).maximal_cones()
    assert {c.is_simplicial() for c in sigmas} == {True, False}
    cells = sum(len(triangulate(sigma)) for sigma in sigmas)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    eliminate = counted("eliminate", linalg.eliminate)
    for mod in (linalg, fan):
        monkeypatch.setattr(mod, "eliminate", eliminate)
    monkeypatch.setattr(linalg, "row_hnf", counted("row_hnf", linalg.row_hnf))
    ones = (1,) * ideal.n
    sum_half_open_cells([(sigma, ones, Grading(sigma.vertex, ones)) for sigma in sigmas])
    assert calls == Counter(eliminate=cells)


def test_parallelepiped_count_is_determinant():
    rng = random.Random(601)
    for _ in range(40):
        n = rng.randint(1, 3)
        rays = []
        while True:
            rays = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n)]
            if det_int([list(r) for r in rays]) != 0:
                break
        cell = HalfOpenSimplicialCone(rays)
        count = len(parallelepiped_points(cell))
        assert count == abs(det_int([list(r) for r in rays]))


def in_half_open(cell, point):
    n = len(point)
    cols = [[r[i] for r in cell.rays] for i in range(n)]
    lam = solve(cols, point)
    if lam is None:
        return False
    for j, x in enumerate(lam):
        if x < 0 or (x == 0 and j in cell.open_facets):
            return False
    return True


def test_half_open_cells_partition_cone():
    # (cells, is the point in the region they must partition, test points)
    cases = []
    rng = random.Random(602)
    ray_sets = []
    for _ in range(12):
        n = rng.randint(2, 3)
        rays = []
        while len(rays) < rng.randint(n, n + 2):
            v = tuple(rng.randint(0, 3) for _ in range(n))
            if any(v):
                rays.append(v)
        ray_sets.append((n, rays))
    ray_sets += [(5, SQUARE_R5), (3, SQUARE_R3)]
    for n, rays in ray_sets:
        cone = cone_from_rays(rays, n)
        interior = tuple(sum(col) for col in zip(*cone.rays))
        points = list(orthant_points(n, 4))
        if cone.dim < n:
            # orthant points rarely lie in a lower-dimensional span
            points += [tuple(dot(c, col) for col in zip(*cone.rays))
                       for c in itertools.product(range(3), repeat=len(cone.rays))]
        cases.append((list(_half_open_cells(cone, interior)), cone.contains, points))
        # the reference point reflected beyond every facet: the cells
        # partition the relative interior (the interior generating function)
        outside = tuple(-x for x in interior)
        cases.append((list(_half_open_cells(cone, outside)), cone.contains_relint, points))
    # the pipeline's decomposition of the orthant: the maximal cones of the
    # fan, some non-simplicial here, all against the reference point (1, ..., 1)
    for n, gens, bound in [
        (3, [(2, 2, 0), (3, 1, 0), (1, 0, 2), (3, 1, 3)], 5),
        (4, [(2, 2, 3, 0), (2, 2, 0, 3), (0, 1, 2, 2)], 3),
    ]:
        fan = normal_fan(newton_polyhedron(MonomialIdeal(n, gens)))
        assert not all(c.is_simplicial() for c in fan.maximal_cones())
        cells = [cell for sigma in fan.maximal_cones()
                 for cell in _half_open_cells(sigma, (1,) * n)]
        box = itertools.product(range(bound + 1), repeat=n)
        cases.append((cells, lambda a: True, box))
    for cells, inside, points in cases:
        for a in points:
            owners = sum(1 for cell in cells if in_half_open(cell, a))
            assert owners == (1 if inside(a) else 0), (a, cells)


GRADING_2D = Grading((0, 1), (1, 1))


def rf(t, p, factors):
    from monozeta.ring import BiPoly

    return BiRationalFunction(BiPoly.term(t, p), factors)


def test_lattice_gf_frozen_examples():
    ray = cone_from_rays([(1, 1)], 2)
    assert lattice_gf(ray, GRADING_2D) == rf(0, 0, [(1, 2)])
    assert interior_lattice_gf(ray, GRADING_2D) == rf(1, 2, [(1, 2)])

    cone = cone_from_rays([(1, 0), (1, 1)], 2)
    assert lattice_gf(cone, GRADING_2D) == rf(0, 0, [(0, 1), (1, 2)])
    opened = interior_lattice_gf(cone, GRADING_2D).reduced()
    assert opened == rf(1, 3, [(0, 1), (1, 2)])


def test_zero_cone_counts_the_origin():
    zero = cone_from_rays([], 3)
    g = Grading((1, 1, 1), (1, 1, 1))
    assert lattice_gf(zero, g) == BiRationalFunction.one()
    assert interior_lattice_gf(zero, g) == BiRationalFunction.one()


def test_grading_validation_messages():
    cone = cone_from_rays([(1, 0), (1, 1)], 2)
    with pytest.raises(ValueError, match="negative on ray"):
        lattice_gf(cone, Grading((-1, 0), (1, 1)))
    with pytest.raises(ValueError, match="strictly positive on ray"):
        lattice_gf(cone, Grading((1, 0), (0, 1)))  # vanishes on ray (1, 0)


def random_cone_and_grading(rng):
    n = rng.randint(1, 3)
    rays = []
    while len(rays) < rng.randint(1, n + 1):
        v = tuple(rng.randint(0, 5) for _ in range(n))
        if any(v):
            rays.append(v)
    cone = cone_from_rays(rays, n)
    l1 = tuple(rng.randint(0, 3) for _ in range(n))
    l2 = tuple(rng.randint(1, 2) for _ in range(n))
    return cone, Grading(l1, l2)


def test_gf_series_match_brute_force():
    rng = random.Random(603)
    for _ in range(25):
        cone, grading = random_cone_and_grading(rng)
        bound = 6
        closed = lattice_gf(cone, grading).series(bound)
        assert closed == gf_series_brute(cone, grading, bound)
        opened = interior_lattice_gf(cone, grading).series(bound)
        assert opened == gf_series_brute(cone, grading, bound, interior=True)
    # lower-dimensional and non-simplicial cones, and a 2-dimensional cell
    # of the square over R^5, whose interior needs both rays
    for n, rays, bound in [
        (5, SQUARE_R5, 16), (3, SQUARE_R3, 8), (5, SQUARE_R5[:2], 14),
    ]:
        cone = cone_from_rays(rays, n)
        grading = Grading(tuple(range(n)), (1,) * n)
        closed = lattice_gf(cone, grading).series(bound)
        assert closed == gf_series_brute(cone, grading, bound)
        opened = interior_lattice_gf(cone, grading).series(bound)
        assert opened == gf_series_brute(cone, grading, bound, interior=True)
        assert opened != closed


def test_denominator_factors_come_from_rays():
    rng = random.Random(604)
    for _ in range(25):
        cone, grading = random_cone_and_grading(rng)
        if cone.dim == 0:
            continue
        allowed = {BinomialFactor(*grading.weight(r)) for r in cone.rays}
        gf = lattice_gf(cone, grading)
        assert set(gf.denominator) <= allowed


def test_closed_gf_is_sum_of_open_face_gfs():
    rng = random.Random(605)
    cones = [
        cone_from_rays([(1, 0), (0, 1)], 2),
        cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3),
    ]
    for _ in range(6):
        cone, _ = random_cone_and_grading(rng)
        cones.append(cone)
    for cone in cones:
        n = cone.n
        grading = Grading(tuple([1] * n), tuple([1] * n))
        total = BiRationalFunction.zero()
        for face, _ in cone_faces(cone):
            total = total + interior_lattice_gf(face, grading)
        assert total.reduced() == lattice_gf(cone, grading).reduced()
