"""Double description: extreme rays of pointed cones from inequalities."""

import random

import pytest

from oracles import in_cone, orthant_points
from monozeta.dd import extreme_rays, facet_normals
from monozeta.linalg import dot, primitive, rank, vec_gcd


def test_orthant_rays():
    rays = extreme_rays([(1, 0), (0, 1)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_redundant_inequality_is_harmless():
    rays = extreme_rays([(1, 0), (0, 1), (1, 1)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_simplicial_cone_in_three_dims():
    # x >= 0, y >= 0, z >= 0 cut with x + y >= z
    rays = extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_rejects_non_pointed_cone():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0)], 2)  # contains the line y


def assert_extreme(rays, ineqs, n):
    """Distinct rays, each in the cone and tight on a rank n-1 set of ineqs."""
    assert len(set(rays)) == len(rays)
    for r in rays:
        assert all(dot(h, r) >= 0 for h in ineqs), (ineqs, r)
        assert rank([h for h in ineqs if dot(h, r) == 0]) == n - 1, (ineqs, r)


def test_duality_roundtrip():
    rng = random.Random(300)
    for _ in range(40):
        n = rng.randint(2, 5)
        gens = []
        while rank(gens) < n:
            v = tuple(rng.randint(0, 3) for _ in range(n))
            if any(v):
                gens.append(v)
        # more cuts than a basis, among them sums of two generators: they
        # vanish on every ray that both summands vanish on
        gens += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens += [tuple(a + b for a, b in zip(*rng.sample(gens, 2))) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        rng.shuffle(gens)
        ineqs = facet_normals(gens, n)
        back = extreme_rays(ineqs, n)
        assert_extreme(ineqs, gens, n)
        assert_extreme(back, ineqs, n)
        # the double dual reproduces the cone: mutual containment
        for r in back:
            assert in_cone(gens, r)
        for g in gens:
            assert in_cone(back, g)
        assert all(vec_gcd(r) == 1 and primitive(r) == r for r in back)


def test_rays_satisfy_and_span_inequalities():
    rng = random.Random(301)
    for _ in range(40):
        n = rng.randint(2, 5)
        ineqs = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        # several cuts; small entries put zeros on the current rays, and the
        # sum of two earlier cuts vanishes wherever both of them do
        for _ in range(rng.randint(1, 4)):
            extra = tuple(rng.randint(-1, 2) for _ in range(n))
            if any(extra):
                ineqs.append(extra)
        ineqs.append(tuple(a + b for a, b in zip(*rng.sample(ineqs, 2))))
        rays = extreme_rays(ineqs, n)
        assert_extreme(rays, ineqs, n)
        # completeness: every small lattice point satisfying the
        # inequalities is a nonnegative combination of the returned rays
        for a in orthant_points(n, 4):
            if all(dot(h, a) >= 0 for h in ineqs):
                assert in_cone(rays, a), (ineqs, rays, a)
