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
    # each ray maps to its zero set among the inequalities cut so far, kept
    # without a dot product: off meet both parents of a new ray are >= 0 and
    # one is > 0, so the new ray vanishes on exactly meet | {k}
    zerosets = {primitive([s * a for a in row[m:]]): frozenset(chosen) - {c}
                for row, c in zip(red, chosen)}
    for k in (i for i in range(m) if i not in chosen):
        h = ineqs[k]
        vals = {ray: dot(h, ray) for ray in zerosets}
        neg = [r for r, v in vals.items() if v < 0]
        fresh = {}
        for rp, vp in vals.items():
            if vp <= 0:
                continue
            for rn in neg:
                meet = zerosets[rp] & zerosets[rn]
                if not any(r3 is not rp and r3 is not rn and meet <= z3
                           for r3, z3 in zerosets.items()):
                    combo = tuple(vp * x - vals[rn] * y for x, y in zip(rn, rp))
                    fresh.setdefault(primitive(combo), meet | {k})
        zerosets = {ray: zs | {k} if vals[ray] == 0 else zs
                    for ray, zs in zerosets.items() if vals[ray] >= 0}
        for ray, zs in fresh.items():
            zerosets.setdefault(ray, zs)
    return sorted(zerosets)


def facet_normals(rays: list[Vec], dim: int) -> list[Vec]:
    """Facet normals of the full-dimensional pointed cone spanned by rays."""
    return extreme_rays(rays, dim)
