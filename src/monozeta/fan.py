"""Normal fans of Newton polyhedra and the cone operations built on them.

Cones are pointed rational cones inside the nonnegative orthant.  Each one
stores its extreme rays together with an exact inequality description
(primitive facet covectors in the span, plus a +/- pair for every covector
of a basis of those vanishing on the span), so membership and
relative-interior tests are pure integer arithmetic.  A fan is built from
its maximal cones only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .dd import extreme_rays
from .linalg import Vec, dot, eliminate, left_kernel_basis, primitive, rank
from .polyhedra import NewtonPolyhedron


@dataclass(frozen=True)
class Cone:
    """Pointed cone: primitive extreme rays plus a supporting description.

    The rays keep the order they are given in, which fixes the cone's
    triangulation (`_cells` pulls from the first ray); `normal_fan` and
    `cone_from_rays` sort them."""

    n: int
    rays: tuple[Vec, ...]
    ineqs: tuple[Vec, ...]
    dim: int
    vertex: Vec | None = field(default=None, compare=False)

    def contains(self, x) -> bool:
        return all(dot(h, x) >= 0 for h in self.ineqs)

    def contains_relint(self, x) -> bool:
        """Is x in the relative interior?  Exact for the stored description."""
        for h in self.ineqs:
            v = dot(h, x)
            if v < 0:
                return False
            if v == 0 and any(dot(h, r) != 0 for r in self.rays):
                return False
        return True

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def to_json(self):
        data = {"rays": [list(r) for r in self.rays], "dim": self.dim}
        if self.vertex is not None:
            data["vertex"] = list(self.vertex)
        return data


def cone_from_rays(generators, n, vertex=None) -> Cone:
    """Canonical Cone spanned by the given generators; zero, duplicate and
    non-extreme ones are dropped.  The cone must be pointed (always true
    inside the orthant).

    With K the Hermite basis of the covectors vanishing on the span
    (`left_kernel_basis`) and its +/- pairs as equalities, one double
    description gives the facets, primitive covectors in the span, and a
    second one the rays (Fukuda & Prodon 1996).  K, and so the Cone, depends
    on the cone alone, not on the generators that spanned it.
    """
    generators = [tuple(g) for g in generators]
    for g in generators:
        if len(g) != n:
            raise ValueError(f"generator {g} has length {len(g)}, not n = {n}")
    gens = sorted({primitive(g) for g in generators if any(g)})
    kernel = left_kernel_basis([tuple(g[i] for g in gens) for i in range(n)])
    pairs = sorted(h for k in kernel for h in (k, tuple(-x for x in k)))
    facets = extreme_rays(gens + pairs, n)
    rays = extreme_rays(facets + pairs, n)
    return Cone(n, tuple(rays), tuple(facets + pairs), n - len(kernel), vertex)


@dataclass(frozen=True)
class Fan:
    """Maximal cones with their vertices, and rays; the rest on first use."""

    n: int
    maximal: tuple[Cone, ...]
    rays: tuple[Vec, ...]

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        """All cones by (dim, rays), each carrying the lexicographically
        smallest vertex among the maximal cones containing it."""
        vertex = {}
        for sigma in self.maximal:
            for rayset in _face_raysets(sigma):
                vertex[rayset] = min(sigma.vertex, vertex.get(rayset, sigma.vertex))
        cones = [cone_from_rays(rayset, self.n, v) for rayset, v in vertex.items()]
        return tuple(sorted(cones, key=lambda c: (c.dim, c.rays)))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Each cone's rays as a bitmask over `rays`, in `cones` order: a
        cone is a face of another iff its rays are among the other's."""
        bit = {r: 1 << i for i, r in enumerate(self.rays)}
        return tuple(sum(bit[r] for r in c.rays) for c in self.cones)

    @cached_property
    def relation(self) -> frozenset[tuple[int, int]]:
        """The face relation as (face index, cone index) pairs."""
        masks = self._masks
        return frozenset((i, j) for i, mi in enumerate(masks)
                         for j, mj in enumerate(masks) if mi & mj == mi)

    def maximal_cones(self):
        return self.maximal

    def faces_of(self, cone: Cone):
        """Fan cones that are faces of the given fan cone (itself included);
        a cone outside the fan raises ValueError."""
        mask = self._masks[self.cones.index(cone)]
        return tuple(c for c, m in zip(self.cones, self._masks) if m & mask == m)

    def locate(self, a) -> Cone:
        """The unique fan cone whose relative interior contains a (a >= 0)."""
        if any(x < 0 for x in a):
            raise ValueError("point must lie in the nonnegative orthant")
        for c in self.cones:
            if c.contains_relint(a):
                return c
        raise LookupError(f"no cone of the fan contains {a}")

    def to_json(self):
        ray_index = {r: i for i, r in enumerate(self.rays)}
        return {
            "n": self.n,
            "rays": [list(r) for r in self.rays],
            "cones": [
                {"rays": [ray_index[r] for r in c.rays], "dim": c.dim,
                 "vertex": list(c.vertex)}
                for c in self.cones
            ],
            "relation": sorted(list(p) for p in self.relation),
        }


def _zeros(cone: Cone) -> list[int]:
    """The cone's incidences as bitmasks over its rays: bit i of the k-th
    mask is set iff `cone.ineqs[k]` vanishes on ray i."""
    return [sum(1 << i for i, r in enumerate(cone.rays) if not dot(h, r)) for h in cone.ineqs]


def _rays_of(rays, mask):
    """The rays whose bits are set in mask, in their order."""
    return tuple(r for i, r in enumerate(rays) if mask >> i & 1)


def _face_raysets(cone: Cone):
    """Every subset of rays spanning a face: the full ray mask closed under
    & with each inequality's zero mask (`_zeros`)."""
    zeros = _zeros(cone)
    faces = {(1 << len(cone.rays)) - 1}
    stack = list(faces)
    while stack:
        face = stack.pop()
        for cut in {face & z for z in zeros} - faces:
            faces.add(cut)
            stack.append(cut)
    return {frozenset(_rays_of(cone.rays, face)) for face in faces}


def normal_fan(poly: NewtonPolyhedron) -> Fan:
    """The normal fan of the Newton polyhedron, supported on the orthant,
    built from the vertex normal cones; each carries its vertex.  The
    normals of a vertex's tight facets are primitive, distinct, sorted and
    extreme in its normal cone, so they are its rays as they stand; one
    double-description run on them gives its facet inequalities."""
    n = poly.n
    maximal = []
    for w in poly.vertices:
        tight = tuple(f.normal for f in poly.facets if dot(w, f.normal) == f.offset)
        if rank(tight) != n:
            raise AssertionError(f"normal cone of vertex {w} is not full-dimensional")
        maximal.append(Cone(n, tight, tuple(extreme_rays(tight, n)), n, w))
    maximal.sort(key=lambda c: c.rays)
    rays = tuple(sorted({r for sigma in maximal for r in sigma.rays}))
    return Fan(n, tuple(maximal), rays)


def triangulate(cone: Cone) -> list[Cone]:
    """Pulling triangulation of the cone using only its own rays: the
    records of `_cells`, each made a Cone with sorted rays and, as its
    inequalities, its sorted primitive walls plus the cone's span-kernel
    pairs.  A simplicial cone is its own cell and comes back as it is."""
    if cone.is_simplicial():
        return [cone]
    pairs = tuple(h for h in cone.ineqs if not any(dot(h, r) for r in cone.rays))
    return [Cone(cone.n, tuple(sorted(rays)),
                 tuple(sorted(primitive(w) for w in list(zip(*m))[:cone.dim])) + pairs, cone.dim)
            for rays, (_, m) in _cells(cone)]


def _cells(cone: Cone):
    """The cells of the pulling triangulation as records (rays, (D, M)),
    streamed: the recursion yields each cell as soon as it reaches it, and
    the cell is eliminated as it is yielded, so a caller can stop before
    the rest are found or built.

    Recurses over ray sets as bitmasks, never building a Cone for a face:
    every face of a face F is a face of the cone, so the facets of F are
    the inclusion-maximal proper cuts F ∩ {h = 0} by the cone's own
    inequalities h (`_zeros`), read off their ray incidences with no rank
    computed.  The apex at each level is the face's first ray in the
    cone's order (`face & -face`), which makes the decomposition
    deterministic and consistent across shared faces; on the sorted rays
    of `normal_fan` and `cone_from_rays` it is the lexicographically
    smallest.  A simplicial face is its own one cell, the cone included.

    A record's rays keep the cone's order, and (D, M) is the cell's one
    elimination, of [rays; C | I], C a basis of the covectors vanishing on
    the cone's span: D = |d| the pivot and M = D [rays; C]^-1.  Column j of
    M is positive on ray j alone and zero on the others and on C, so made
    primitive it is the wall opposite ray j, lying in the span; the rows of
    M generate the cell's parallelepiped group
    (`conegf.parallelepiped_points`).
    """
    n, rays = cone.n, cone.rays
    zeros = _zeros(cone)
    full = (1 << len(rays)) - 1
    kernel = tuple(h for h, z in zip(cone.ineqs, zeros)  # one of each span pair
                   if z == full and h > tuple(-x for x in h))

    def pull(face, dim):
        if face.bit_count() == dim:
            yield face
            return
        apex = face & -face
        cuts = {face & z for z in zeros} - {face}
        for facet in sorted(cuts, key=lambda c: _rays_of(rays, c)):
            if not facet & apex and not any(facet & c == facet != c for c in cuts):
                yield from (sub | apex for sub in pull(facet, dim - 1))

    for cell in pull(full, cone.dim):
        cell_rays = _rays_of(rays, cell)
        yield cell_rays, _scaled_inverse(cell_rays + kernel, n)


def _scaled_inverse(rows, n):
    """(D, D A^-1) for the nonsingular n x n integer matrix A of the given
    rows, D = |det A|, from one elimination of [A | I]."""
    red, _, d, _ = eliminate([list(v) + [int(i == j) for j in range(n)]
                              for i, v in enumerate(rows)])
    sign = 1 if d > 0 else -1
    return abs(d), tuple(tuple(sign * x for x in row[n:]) for row in red)
