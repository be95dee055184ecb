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
relative interior (Koeppe & Verdoolaege 2008, Thm 3)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import add

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


def parallelepiped_points(cell: HalfOpenSimplicialCone, grading: Grading | None = None):
    """Lattice points of the half-open fundamental parallelepiped, sorted;
    with a grading, their weights instead, one per point, in no set order.

    These are the points sum(lam_i * ray_i) with lam_i in [0,1) on closed
    facets and (0,1] on open ones.  The admissible lam form the lattice dual
    to the one the ray matrix's columns span in Z^r; a triangular basis of
    it lets them be enumerated coordinate by coordinate, visiting exactly d
    points, d the index of that column lattice (|det| for r = n).  A weight
    is linear in lam, so the descent carries it in place of the point: r + 2
    ints a node instead of r + n, and no point is built.
    """
    rays = cell.rays
    r = len(rays)
    # rows of B: the upper triangular Hermite basis (pivots > 0) of the
    # lattice the ray matrix's columns span; lam . ray matrix is integral iff
    # lam . B^T is.  Bareiss on the lower triangular B^T swaps no row, so
    # d = prod B_ii > 0 and the right block d * B^-T, a basis of d * {lam},
    # is lower triangular with a positive diagonal: row j moves coordinate j
    # and none above it
    basis = [row for row in row_hnf([list(col) for col in zip(*rays)]) if any(row)]
    red, _, d, _ = eliminate([[b[i] for b in basis] + [int(i == j) for j in range(r)]
                              for i in range(r)])
    # a node at level j is its image (point or weight) followed by
    # d * lam_0..j, one add of a step per move; step j is row j's image and
    # its d * lam_0..j-1, so the add drops coordinate j, which no lower level
    # reads.  A step's lam is in the lattice, so its point is integral.
    # lam_j = (c + y * pivot) / d runs over [0, 1), or (0, 1] on an open
    # wall, that is c - open + y * pivot over [0, d); the pivot divides d, so
    # every node has d // pivot moves, the first at y = -((c - open) // pivot)
    levels = []
    for j, row in enumerate(row[r:] for row in red):
        image = [dot(row, col) for col in zip(*rays)]
        if any(a % d for a in image):
            raise AssertionError("parallelepiped coefficient escaped the lattice")
        point = [a // d for a in image]
        step = (list(grading.weight(point)) if grading else point) + row[:j]
        levels.append((step, row[j], int(j in cell.open_facets), d // row[j]))
    step0, h0, o0, n0 = levels[0]
    if r == 1:  # the root is an innermost node
        return sorted(tuple(y * s for s in step0) for y in range(o0, o0 + n0))
    out = []

    def descend(j, node):
        step, h, o, n = levels[j]
        y = -((node[-1] - o) // h)
        node = [a + y * s for a, s in zip(node, step)]
        for _ in range(n):
            if j > 1:
                descend(j - 1, node)
            else:
                # the innermost coordinate: its moves are the points
                y = -((node[-1] - o0) // h0)
                for _ in range(n0):
                    out.append(tuple([a + y * s for a, s in zip(node, step0)]))
                    y += 1
            node = list(map(add, node, step))

    descend(r - 1, [0] * (len(step0) + r))
    return out if grading else sorted(out)


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
    the point q into the accumulator: its parallelepiped's weights over one
    factor 1 - T^a P^b per ray."""
    for cell in _half_open_cells(cone, q):
        acc.add(Counter(parallelepiped_points(cell, grading)),
                [grading.weight(r) for r in cell.rays])


def half_open_gf(cone: Cone, q: Vec, grading: Grading) -> BiRationalFunction:
    """Generating function of the cone's half-open cells for the point q,
    summed in one `RowSum`."""
    acc = RowSum()
    add_half_open_cells(acc, cone, q, grading)
    return acc.rational()


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
    return half_open_gf(cone, tuple(side * sum(col) for col in zip(*cone.rays)), grading)
