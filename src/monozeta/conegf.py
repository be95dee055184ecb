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

from .fan import Cone, triangulate
from .linalg import Vec, dot, eliminate, rank, row_hnf, saturation_basis
from .linalg import solve  # noqa: F401  kept: perfbench/test_harness.py reads conegf.solve
from .ring import BinomialFactor, BiPoly, BiRationalFunction


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


def parallelepiped_points(cell: HalfOpenSimplicialCone) -> list[Vec]:
    """Lattice points of the half-open fundamental parallelepiped.

    These are the points sum(lam_i * ray_i) with lam_i in [0,1) on closed
    facets and (0,1] on open ones.  The admissible lam form the lattice dual
    to the one the ray matrix's columns span in Z^r; a triangular (Hermite)
    basis of it lets them be enumerated coordinate by coordinate, visiting
    exactly d points, d the index of that column lattice (|det| for r = n).
    """
    rays = cell.rays
    r = len(rays)
    # rows of B: a basis of the lattice spanned by the ray matrix's columns;
    # lam . ray matrix is integral iff lam . B^T is, so the rows of d * B^-T
    # generate d * {lam}
    basis = [row for row in row_hnf([list(col) for col in zip(*rays)]) if any(row)]
    red, _, d, _ = eliminate([[b[i] for b in basis] + [int(i == j) for j in range(r)]
                              for i in range(r)])
    tri = [row for row in row_hnf([row[r:] for row in red]) if any(row)]
    d = abs(d)
    # a node is d * lam followed by its point, one add of a step per move; a
    # step's lam is in the lattice, so its point is integral
    steps = []
    for row in tri:
        image = [dot(row, col) for col in zip(*rays)]
        if any(a % d for a in image):
            raise AssertionError("parallelepiped coefficient escaped the lattice")
        steps.append(row + [a // d for a in image])
    points = []

    def descend(j, node):
        if j == r:
            points.append(tuple(node[r:]))
            return
        step = steps[j]
        h = step[j]
        base = node[j]
        if j in cell.open_facets:
            # 0 < (base + y*h)/d <= 1
            y_lo = (-base) // h + 1
            y_hi = (d - base) // h
        else:
            # 0 <= (base + y*h)/d < 1
            y_lo = -(base // h)
            y_hi = (d - base - 1) // h
        node = [a + y_lo * s for a, s in zip(node, step)]
        for _ in range(y_lo, y_hi + 1):
            descend(j + 1, node)
            node = [a + s for a, s in zip(node, step)]

    descend(0, [0] * (r + len(rays[0])))
    return sorted(points)


def _half_open_cells(cone: Cone, q: Vec) -> list[HalfOpenSimplicialCone]:
    """Triangulate; a cell wall is open iff q lies strictly on its far side.

    Ties are broken by perturbing q lexicographically along the lattice basis
    of the cone's span, e_1, ..., e_n for a full-dimensional cone.  Cones
    dissecting a region and sharing a q that stays in the region under a
    small push (q in relint for one cone; (1, ..., 1) for the orthant) thus
    get cells partitioning it; for a q in the span strictly beyond every
    facet of the cone, every facet is open and the cells partition its
    relative interior (Koeppe & Verdoolaege 2008, Thm 3).
    """
    span = saturation_basis(cone.rays, cone.n)
    out = []
    for cell in triangulate(cone):
        # the wall opposite ray j is the inequality positive on ray j alone
        walls = [next(h for h in cell.ineqs if dot(h, r) > 0) for r in cell.rays]
        open_idx = {j for j, h in enumerate(walls)
                    if next(s for s in (dot(h, v) for v in (q, *span)) if s) < 0}
        out.append(HalfOpenSimplicialCone(cell.rays, open_idx))
    return out


def half_open_gf(cone: Cone, q: Vec, grading: Grading) -> BiRationalFunction:
    """Generating function of the cone's half-open cells for the point q."""
    total = BiRationalFunction.zero()
    for cell in _half_open_cells(cone, q):
        num = BiPoly(Counter(grading.weight(pt) for pt in parallelepiped_points(cell)))
        den = [BinomialFactor(*grading.weight(r)) for r in cell.rays]
        total = total + BiRationalFunction(num, den)
    return total


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
