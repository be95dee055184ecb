"""Double description method for pointed rational cones, exact version.

Both conversion directions reduce to one primitive: the extreme rays of
{x : <h, x> >= 0 for all h}.  Running it on a cone's generators (read as
inequalities) yields the facet normals of that cone, by duality.
"""

from __future__ import annotations

from .linalg import Vec, dot, eliminate, primitive


def extreme_rays(ineqs: list[Vec], dim: int) -> list[Vec]:
    """Extreme rays of the cone {x in R^dim : <h, x> >= 0 for h in ineqs}.

    The inequality system must have full rank (equivalently the cone is
    pointed); redundant inequalities are harmless.  Rays come back as
    sorted primitive integer vectors.
    """
    ineqs = [tuple(h) for h in ineqs]
    m = len(ineqs)
    # Gauss-Jordan on [ineqs^T | I]: its pivots among the first m columns
    # are the greedy choice of dim independent inequalities A, and the right
    # block becomes d (A^-1)^T; row k, signed by d, is the ray on which every
    # chosen inequality but the k-th vanishes
    red, pivots, d, _ = eliminate(
        [[h[i] for h in ineqs] + [int(i == j) for j in range(dim)] for i in range(dim)])
    chosen = [c for c in pivots if c < m]
    if len(chosen) < dim:
        raise ValueError("inequality system does not cut out a pointed cone")
    s = 1 if d > 0 else -1
    rays = [primitive([s * a for a in row[m:]]) for row in red]
    order = chosen + [i for i in range(m) if i not in chosen]
    processed = order[:dim]
    zerosets = {
        ray: frozenset(i for i in processed if dot(ineqs[i], ray) == 0)
        for ray in rays
    }

    for k in order[dim:]:
        h = ineqs[k]
        vals = {ray: dot(h, ray) for ray in rays}
        keep = [r for r in rays if vals[r] >= 0]
        neg = [r for r in rays if vals[r] < 0]
        processed.append(k)
        if neg:
            fresh = []
            for rp in rays:
                if vals[rp] <= 0:
                    continue
                for rn in neg:
                    meet = zerosets[rp] & zerosets[rn]
                    adjacent = not any(
                        r3 is not rp and r3 is not rn and meet <= zerosets[r3]
                        for r3 in rays
                    )
                    if adjacent:
                        combo = tuple(vals[rp] * x - vals[rn] * y
                                      for x, y in zip(rn, rp))
                        fresh.append(primitive(combo))
            rays = keep + [r for r in dict.fromkeys(fresh) if r not in keep]
            zerosets = {
                ray: frozenset(i for i in processed if dot(ineqs[i], ray) == 0)
                for ray in rays
            }
        else:
            for ray in rays:
                if vals[ray] == 0:
                    zerosets[ray] = zerosets[ray] | {k}
    return sorted(rays)


def facet_normals(rays: list[Vec], dim: int) -> list[Vec]:
    """Facet normals of the full-dimensional pointed cone spanned by rays."""
    return extreme_rays(rays, dim)
