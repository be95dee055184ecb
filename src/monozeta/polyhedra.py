"""Monomial ideals and their Newton polyhedra.

The Newton polyhedron of a monomial ideal is the convex hull of the
generator exponents plus the nonnegative orthant.  It is computed exactly
by homogenizing to a cone one dimension up ((u, 1) for generators, (e_i, 0)
for the orthant directions) and running the double description method.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .dd import facet_normals
from .linalg import Vec, dot, unit, vec_gcd


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by generator exponent vectors."""

    n: int
    generators: tuple[Vec, ...]

    def __init__(self, n, generators):
        n = index(n)
        if n < 1:
            raise ValueError("need at least one variable")
        gens = sorted({tuple(index(a) for a in g) for g in generators})
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} does not have {n} entries")
            if any(a < 0 for a in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the unit monomial generates: ideal must be proper")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(gens))

    def vanishing_order(self, a) -> int:
        """min over generators g of <g, a>, for a in the nonnegative orthant."""
        if any(x < 0 for x in a):
            raise ValueError("weight vector must be nonnegative")
        return min(dot(g, a) for g in self.generators)

    def to_json(self):
        return {"n": self.n, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], [tuple(g) for g in data["generators"]])


@dataclass(frozen=True)
class Facet:
    """Supporting halfspace <u, normal> >= offset with a primitive normal."""

    normal: Vec
    offset: int

    def to_json(self):
        return {"normal": list(self.normal), "offset": self.offset}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["normal"]), int(data["offset"]))


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generators) + R^n_{>=0}, described by vertices and facets."""

    n: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]

    def contains(self, u) -> bool:
        return all(dot(u, f.normal) >= f.offset for f in self.facets)

    def to_json(self):
        return {
            "vertices": [list(v) for v in self.vertices],
            "facets": [f.to_json() for f in self.facets],
        }

    @classmethod
    def from_json(cls, data):
        vertices = tuple(tuple(v) for v in data["vertices"])
        return cls(len(vertices[0]), vertices,
                   tuple(Facet.from_json(f) for f in data["facets"]))


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    n = ideal.n
    homog = [g + (1,) for g in ideal.generators] + [unit(i, n + 1) for i in range(n)]
    facets = []
    for w in facet_normals(homog, n + 1):
        v, t = w[:n], w[n]
        if not any(v):
            continue  # the hyperplane at infinity, not a facet of the polyhedron
        if vec_gcd(v) != 1:
            raise AssertionError(f"facet normal {v} is not primitive")
        facets.append(Facet(v, -t))
    facets.sort(key=lambda f: (f.normal, f.offset))

    # the facets tight at a generator g cut out the least face holding it.
    # g is a vertex iff that face is {g}; a larger face holds a vertex other
    # than g, and every vertex is a generator, so g is a vertex iff no other
    # generator is tight on every facet tight at g.  Each generator's tight
    # facets are a bitmask, so that is one subset test per other generator
    masks = [sum(1 << k for k, f in enumerate(facets) if dot(g, f.normal) == f.offset)
             for g in ideal.generators]
    vertices = [g for j, (g, mask) in enumerate(zip(ideal.generators, masks))
                if not any(k != j and mask & other == mask for k, other in enumerate(masks))]
    return NewtonPolyhedron(n, tuple(vertices), tuple(facets))


def polyhedron_membership(poly: NewtonPolyhedron, u) -> bool:
    """Exact facet-based membership test; u may be rational."""
    return poly.contains(u)
