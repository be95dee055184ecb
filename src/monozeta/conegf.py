"""Lattice-point generating functions of rational cones under a bigrading.

For a cone sigma and integer covectors l1, l2 (l1 >= 0 on sigma, l2 > 0 on
sigma minus the origin) the closed generating function is

    sum over lattice points v of sigma of  T^{l1(v)} P^{l2(v)},

a rational function whose denominator factors are 1 - T^{l1(r)} P^{l2(r)}
over the rays r.  Every generating function here takes one route,
`sum_half_open_cells`: read the cells of sigma's pulling triangulation as
`fan._cells` streams them, each a record (rays, (D, M)) of its rays and its
one elimination, make each half-open against a reference point q, plan
them all, and sum one fundamental parallelepiped per cell.  With q = sum
of the rays the cells partition sigma (one q shared by a fan's maximal
cones: their union); with q = -(sum of the rays), beyond every facet, the
relative interior (Koeppe & Verdoolaege 2008, Thm 3).

A cell's parallelepiped is a finite group, enumerated as a mixed-radix
residue system by one walk over its levels in order, each coordinate
folded into the point's key once its level is applied
(`parallelepiped_points`).  Under a grading each point comes out as one
int, the key t + (p << S) of its weight (t, p).  The plan's point counts
fix the packed sum's slot width before any point is counted, and each
cell's counted keys go to `ring.planned_sum` as they are, packed before the
next cell is enumerated, with no tuple and no term built, to be summed with
a factor tree."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from math import prod
from operator import mul

from .fan import Cone, _cells, _scaled_inverse
from .fan import triangulate  # noqa: F401  kept: perfbench/tracer.py wraps conegf.triangulate
from .linalg import Vec, dot, left_kernel_basis
from .linalg import solve  # noqa: F401  kept: perfbench/test_harness.py reads conegf.solve
from .ring import BiRationalFunction, planned_sum


@dataclass(frozen=True)
class Grading:
    """The pair of integer covectors weighting T and P exponents."""

    l1: Vec
    l2: Vec

    def validate_on(self, cone: Cone):
        for r in cone.rays:
            if dot(self.l1, r) < 0:
                raise ValueError(f"l1 is negative on ray {r}")
            if dot(self.l2, r) < 1:
                raise ValueError(f"l2 is not strictly positive on ray {r}")

    def weight(self, v):
        return dot(self.l1, v), dot(self.l2, v)


@dataclass(frozen=True)
class HalfOpenSimplicialCone:
    """Linearly independent rays; open_facets marks the walls whose facet
    variable runs over (0, 1] instead of [0, 1) in the parallelepiped.

    group is (D, rows): rows of D [rays; C]^-1, C a basis of the covectors
    vanishing on the rays' span and D = |det [rays; C]|, ray coordinates
    first.  They generate the parallelepiped group (`parallelepiped_points`).
    A cell from `_half_open_cells` is a record of `fan._cells` taken as it
    is, its rays in the cone's order and (D, M) as its group; a cell built
    here takes them from the same `_scaled_inverse`, with C from
    `left_kernel_basis`, whose size is the rank check."""

    rays: tuple[Vec, ...]
    open_facets: frozenset[int]
    group: tuple = field(default=(), compare=False, repr=False)

    def __init__(self, rays, open_facets=()):
        rays = tuple(tuple(r) for r in rays)
        if not rays:
            raise ValueError("need at least one ray")
        n, r = len(rays[0]), len(rays)
        if any(len(v) != n for v in rays):
            raise ValueError(f"rays of unequal lengths {sorted({len(v) for v in rays})}")
        kernel = left_kernel_basis(list(zip(*rays)))
        if len(kernel) != n - r:
            raise ValueError("rays must be linearly independent")
        open_facets = frozenset(open_facets)
        if not open_facets <= set(range(r)):
            raise ValueError("open facet index out of range")
        self._set(rays, open_facets, _scaled_inverse(rays + tuple(kernel), n))

    def _set(self, rays, open_facets, group):
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "open_facets", open_facets)
        object.__setattr__(self, "group", group)

    @classmethod
    def _of_cell(cls, rays, open_facets, group):
        """A cell of a triangulation, taken as it is: no rank check."""
        cell = object.__new__(cls)
        cell._set(rays, open_facets, group)
        return cell


def weight_shift(cell: HalfOpenSimplicialCone, grading: Grading) -> int:
    """The shift S of the cell's packed weight keys t + (p << S): the least
    with 2^(S-1) above the sum of |l1| over the rays, so above |t| for every
    point of the parallelepiped."""
    return _key_shift(map(grading.weight, cell.rays))


def _key_shift(weights) -> int:
    return sum(abs(a) for a, _ in weights).bit_length() + 1


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x a + y b, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _group_basis(d, rows, r):
    """A triangular basis of the group the rows generate in (Z/d)^n, on the
    subgroup where coordinates r, ..., n-1 vanish: (steps, radices), step j
    of length r, equal to g_j = d / radix_j at coordinate j (mod d) and zero
    before it, so that the sums of y_j step_j with 0 <= y_j < radix_j are the
    subgroup's elements, each once.

    A Hermite form mod d, column by column, coordinates r, ... first: the
    column's pivot g is the gcd of d and its entries, the pivot row h a
    combination with h_c = g, every row loses its multiple of h, and
    (d / g) h, zero at c mod d, joins them.  Then the remaining rows
    generate the elements zero at c.  The pivot rows of coordinates r, ...
    are dropped, so what is left is the subgroup where they vanish.  The
    whole group has order d (|det A| for a nonsingular A, d A^-1 the rows):
    the product of all n radices must be d."""
    n = len(rows[0])
    rows = [reduced for row in rows if any(reduced := [x % d for x in row])]
    steps, radices, order = [], [], 1
    for c in (*range(r, n), *range(r)):
        g, h = d, [0] * n
        for row in rows:
            if row[c]:
                g, x, y = _xgcd(g, row[c])
                h = [(x * u + y * v) % d for u, v in zip(h, row)]
        if g == d:
            radix = 1
        else:
            radix = d // g
            rows = [row if not row[c] else [(v - row[c] // g * u) % d for u, v in zip(h, row)]
                    for row in rows]
            rows = [row for row in rows if any(row)]
            extra = [radix * u % d for u in h]
            if any(extra):
                rows.append(extra)
        order *= radix
        if c < r:
            steps.append(h[:r])
            radices.append(radix)
    if order != d:
        raise AssertionError("parallelepiped group has the wrong order")
    return steps, radices


def parallelepiped_points(cell: HalfOpenSimplicialCone, grading: Grading | None = None):
    """Lattice points of the half-open fundamental parallelepiped, sorted;
    with a grading, their packed weight keys instead, a flat list with one
    key per point, in no set order.

    These are the points sum(lam_i * ray_i) with lam_i in [0,1) on closed
    facets and (0,1] on open ones.  The admissible lam form a lattice
    containing Z^r; the points are the elements of the group it makes
    modulo Z^r.  The cell's group rows are d A^-1 for A = [rays; C]
    (`HalfOpenSimplicialCone`).  Each x in Z^n is lam . rays + mu . C with
    (lam, mu) = x A^-1, and x lies in the rays' span iff mu = 0, so
    d * {lam} is the part of the group the rows generate mod d where the C
    coordinates vanish; d = |det A| is the point count for r = n and a
    multiple of it below.  A triangular basis of it mod d (`_group_basis`),
    steps R_j with radices n_j, makes a mixed-radix residue system: each
    point is d * lam = (sum_j y_j R_j) mod d with 0 <= y_j < n_j, each
    coordinate reduced into [0, d), or (0, d] on an open wall (Koeppe &
    Verdoolaege 2008; the parallelepiped group of Barvinok's algorithm).

    One walk over the levels in order enumerates it.  Step R_j is zero
    before coordinate j, so coordinate i is final once level i is applied.
    Level i expands the carried keys (`_level`) and each coordinate not
    yet final (`_spread`) by its radix n_i, and in the same pass folds
    coordinate i into the key as (c mod d) K_i; coordinate i is then
    dropped, and a radix-1 level, whose step is zero, only folds.  The
    levels are generators, chained, so nothing is built but the final
    list, in which every key is divided by d: the walk holds the cell's
    keys once and no column of coordinates.

    A point's image is linear in lam, so each point comes out as one int,
    sum_i (d lam_i) K_i // d, which divides exactly, K_i the image of ray i
    packed into one int by signed digits S bits apart.  With a grading,
    K_i = a_i + (b_i << S), (a_i, b_i) the ray's weight and S =
    `weight_shift(cell, grading)`: the key t + (p << S) of the point's
    weight (t, p), which `ring.planned_sum` reads.  Without one, K_i packs the
    ray's n coordinates, and the keys are decoded into the sorted points.
    A digit can be negative (a ray or a grading can be), so a key is
    decoded with a rounding shift: p = (key + 2^(S-1)) >> S and
    t = key - (p << S).

    `sum_half_open_cells` calls this through the module global and counts
    on the graded call's flat list, one key per point: the benchmark's
    tracer wraps `conegf.parallelepiped_points` and counts `len` of what it
    returns as `conegf.points`.  The same tracer reads `conegf.solve`, which
    this module therefore imports unused, and needs `ring.div_exact_calls`
    above 0, which the (1 - P)^n multiply-then-divide of `igusa_zeta`
    provides.
    """
    rays = cell.rays
    r = len(rays)
    d, rows = cell.group
    steps, radix = _group_basis(d, rows, r)
    if grading:
        weights = [grading.weight(v) for v in rays]
        shift = _key_shift(weights)
        keys = [a + (b << shift) for a, b in weights]
    else:
        # room for each coordinate, as weight_shift leaves room for t
        shift = max(sum(map(abs, col)) for col in zip(*rays)).bit_length() + 1
        keys = [sum(x << shift * k for k, x in enumerate(ray)) for ray in rays]
    # a point's key sum is sum_j y_j (R_j . K) modulo multiples of d K_i, so
    # every division below is exact iff each R_j . K is divisible by d
    if any(sum(map(mul, row, keys)) % d for row in steps):
        raise AssertionError("parallelepiped coefficient escaped the lattice")
    # an open wall's coordinate is (x - 1) mod d + 1: start it one lower,
    # and add its key once, to every point
    start = [-int(i in cell.open_facets) for i in range(r)]
    out, cols = [-sum(map(mul, start, keys))], [[c] for c in start]
    for i, (step, n, key) in enumerate(zip(steps, radix, keys)):
        # level i: step i is zero before coordinate i, so coordinate i is
        # final here and folds into the key; the later ones spread
        out = _level(out, cols[i], n, step[i], key, d)
        if n > 1:
            cols[i + 1:] = [_spread(col, n, s) for col, s in zip(cols[i + 1:], step[i + 1:])]
    if grading:
        return [v // d for v in out]
    return sorted(tuple(_digits(v // d, shift, len(rays[0]))) for v in out)


def _level(keys, col, n, s, key, d):
    """The keys of one level of the walk, lazily: each key with its
    coordinate c taken to c + y s for 0 <= y < n and folded in as
    ((c + y s) mod d) key; a radix-1 level (n = 1, s = 0) only folds.
    A function, as is `_spread`, so that each level's generator keeps its
    own n, s and key when the walk reads it after the loop."""
    if n == 1:
        return (v + c % d * key for v, c in zip(keys, col))
    return (v + x % d * key for v, c in zip(keys, col) for x in range(c, c + n * s, s))


def _spread(col, n, s):
    """The coordinate col at the next level, lazily: each c as
    c, c + s, ..., c + (n - 1) s, in the order `_level` gives the keys."""
    for c in col:
        yield from range(c, c + n * s, s) if s else repeat(c, n)


def _digits(key, shift, count):
    """The count signed digits of key, S = shift bits apart, each of
    absolute value below 2^(S-1), lowest first."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    for _ in range(count):
        digit = ((key + half) & mask) - half
        yield digit
        key = (key - digit) >> shift


def _half_open_cells(cone: Cone, q: Vec):
    """The cells of the cone's triangulation, read as `fan._cells` streams
    its records (rays, (D, M)) and yielded one at a time; a cell wall is
    open iff q lies strictly on its far side.

    Ties are broken by perturbing q lexicographically along e_1, ..., e_n.
    Cones dissecting a region and sharing a q that stays in the region under
    a small push (q in relint for one cone; (1, ..., 1) for the orthant)
    thus get cells partitioning it; for a q in the span strictly beyond
    every facet of the cone, every facet is open and the cells partition its
    relative interior (Koeppe & Verdoolaege 2008, Thm 3).

    The wall opposite ray j is column j of the record's M = D [rays; C]^-1,
    up to a positive factor that changes no sign.  The unit
    vectors serve every cone: the walls are orthogonal to the span-kernel
    rows C, so they lie in the span, where a push along e_i acts as one
    along its projection.  The cell keeps the same (D, M) as its group.
    """
    for rays, group in _cells(cone):
        walls = list(zip(*group[1]))[:len(rays)]
        open_idx = frozenset(j for j, h in enumerate(walls)
                             if next(s for s in (dot(h, q), *h) if s) < 0)
        yield HalfOpenSimplicialCone._of_cell(rays, open_idx, group)


# every point is counted and kept until its cell is summed: the cyclic cell
# of x^1000000, y (10^6 points, each its own term) took 15.7 s and 828 MB
# peak, and n5's 531,210 points 1.3 s (2 vCPU, Python 3.11)
_MAX_CELL_POINTS = 10**6


def _cell_points(cell: HalfOpenSimplicialCone) -> int:
    """The cell's parallelepiped point count: |det| for a full cell (every
    cell of `igusa_zeta`), else the product of the radices of its ray
    coordinates (`_group_basis`), of which |det| is a multiple."""
    d, rows = cell.group
    r = len(cell.rays)
    return d if r == len(rows[0]) else prod(_group_basis(d, rows, r)[1])


def sum_half_open_cells(jobs, times=()) -> BiRationalFunction:
    """The sum over the jobs (cone, q, grading) of the generating functions
    of the cone's half-open cells for the point q, each its parallelepiped's
    counted weight keys over one factor 1 - T^a P^b per ray, the numerator
    then multiplied by 1 - T^a P^b for each (a, b) in times.

    Every cone's cells are planned first, each kept with its grading as
    `_half_open_cells` streams it: a plan whose point count
    (`_cell_points`) passes `_MAX_CELL_POINTS` is a ValueError at the first
    cell that takes the running count past it, before any point is counted
    and before later cells are found or eliminated.
    The plan goes to `ring.planned_sum`: each cell's point count is the l1
    norm of its counted keys, so the slot width is fixed from the plan, and
    each cell's keys are counted only when `ring.planned_sum` reads them,
    packed, and dropped before the next cell is enumerated.  Its rays'
    weights are its factors, and the sum is made with a factor tree."""
    plan, points = [], 0
    for cone, q, grading in jobs:
        for cell in _half_open_cells(cone, q):
            count = _cell_points(cell)
            points += count
            if points > _MAX_CELL_POINTS:
                raise ValueError(f"the half-open cells hold at least {points} lattice "
                                 f"points (the sum of |det|); the limit is "
                                 f"{_MAX_CELL_POINTS}")
            plan.append((count, cell, grading))
    return planned_sum([(count, _key_shift(w), w) for count, cell, grading in plan
                        for w in [[grading.weight(r) for r in cell.rays]]],
                       (Counter(parallelepiped_points(cell, grading)) for _, cell, grading in plan),
                       times)


def lattice_gf(cone: Cone, grading: Grading) -> BiRationalFunction:
    """Generating function of all lattice points of the (closed) cone."""
    return _cone_gf(cone, grading, 1)


def interior_lattice_gf(cone: Cone, grading: Grading) -> BiRationalFunction:
    """Generating function of the lattice points interior to the cone.

    The same half-open cells, against the reference point reflected to
    -(sum of the rays): every facet of the cone is then open.  The
    0-dimensional cone is its own relative interior, the origin.
    """
    return _cone_gf(cone, grading, -1)


def _cone_gf(cone: Cone, grading: Grading, side: int) -> BiRationalFunction:
    """The half-open cells against side * (sum of the rays), side = +-1."""
    grading.validate_on(cone)
    if cone.dim == 0:
        return BiRationalFunction.one()
    return sum_half_open_cells([(cone, tuple(side * sum(col) for col in zip(*cone.rays)), grading)])
