"""Normal fans: completeness, face lattice, triangulation, vertex labels."""

import hashlib
import itertools
import json
import random

import pytest

from oracles import cone_faces, in_cone, orthant_points
from test_acceptance import corpus
from monozeta.fan import Cone, cone_from_rays, normal_fan, triangulate
from monozeta.linalg import dot, rank, vec_gcd
from monozeta.polyhedra import Facet, MonomialIdeal, NewtonPolyhedron, newton_polyhedron


def fan_of(gens, n):
    return normal_fan(newton_polyhedron(MonomialIdeal(n, gens)))


def random_ideal(rng, n, max_gens, max_exp):
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens)


def test_cone_from_rays_canonicalizes():
    c = cone_from_rays([(2, 0), (0, 3), (1, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))  # redundant ray dropped, primitivized
    assert c.dim == 2
    assert c.contains((5, 7)) and not c.contains((-1, 0))


def test_cone_from_rays_low_dimension():
    c = cone_from_rays([(1, 1)], 2)
    assert c.dim == 1
    assert c.contains((3, 3)) and not c.contains((1, 2))
    assert c.contains_relint((2, 2)) and not c.contains_relint((0, 0))

    z = cone_from_rays([], 2)
    assert z.dim == 0 and z.rays == ()
    assert z.contains((0, 0)) and not z.contains((1, 0))
    assert z.contains_relint((0, 0))


def test_cone_from_rays_rejects_a_generator_of_the_wrong_length():
    for gens, n in (([(1, 0)], 3), ([(1, 0, 0), (0, 1)], 3), ([(0, 0, 0)], 2)):
        with pytest.raises(ValueError, match=f"not n = {n}"):
            cone_from_rays(gens, n)


def test_cone_from_rays_is_canonical_in_codimension_two():
    # the same rays, once with the non-extreme sum of the last three: the
    # span's kernel basis must not depend on the generating set
    gens = [(10, 2, 0, 6, 7, 0), (0, 2, 6, 0, 3, 3), (7, 4, 3, 2, 3, 0), (8, 4, 3, 6, 5, 3)]
    cone = cone_from_rays(gens, 6)
    assert cone.dim == 4 and len(cone.rays) == 4
    assert cone_from_rays(gens + [(18, 6, 3, 12, 12, 3)], 6) == cone


def test_lower_dimensional_cones_keep_their_facets_in_the_span():
    # generators drawn from a random subspace of dimension below n: each
    # facet covector is primitive, orthogonal to the span's kernel pairs and
    # tight on rays of rank dim - 1, and the Cone depends on the cone alone
    rng = random.Random(505)
    cones = 0
    while cones < 200:
        n = rng.randint(2, 6)
        base = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
        combos = [[rng.randint(0, 2) for _ in base] for _ in range(rng.randint(1, 6))]
        gens = [g for c in combos if any(g := tuple(dot(c, col) for col in zip(*base)))]
        cone = cone_from_rays(gens, n)
        if not gens or cone.dim == n:
            continue
        cones += 1
        pairs = [h for h in cone.ineqs if not any(dot(h, r) for r in cone.rays)]
        facets = [h for h in cone.ineqs if h not in pairs]
        assert len(pairs) == 2 * (n - cone.dim)
        for h in facets:
            assert vec_gcd(h) == 1
            assert not any(dot(h, k) for k in pairs)
            assert rank([r for r in cone.rays if not dot(h, r)]) == cone.dim - 1
        coeffs = [rng.randint(1, 3) for _ in cone.rays]
        inner = tuple(dot(coeffs, col) for col in zip(*cone.rays))
        k, factor = rng.randrange(len(gens)), rng.randint(2, 5)
        scaled = gens[:k] + [tuple(factor * x for x in gens[k])] + gens[k + 1:]
        for other in (gens + [inner], scaled, rng.sample(gens, len(gens))):
            assert cone_from_rays(other, n) == cone, (gens, other)


def test_cone_relint_vs_boundary():
    c = cone_from_rays([(1, 0), (1, 1)], 2)
    assert c.contains_relint((2, 1))
    assert c.contains((1, 0)) and not c.contains_relint((1, 0))
    assert c.contains((0, 0)) and not c.contains_relint((0, 0))


def test_fan_of_two_variables():
    fan = fan_of([(1, 0), (0, 1)], 2)
    assert fan.rays == ((0, 1), (1, 0), (1, 1))
    maxc = fan.maximal_cones()
    assert len(maxc) == 2 and len(fan.cones) == 6
    by_rays = {c.rays: c for c in maxc}
    assert by_rays[((1, 0), (1, 1))].vertex == (0, 1)
    assert by_rays[((0, 1), (1, 1))].vertex == (1, 0)


def test_fan_of_half_line():
    fan = fan_of([(2,)], 1)
    assert len(fan.cones) == 2
    (maximal,) = fan.maximal_cones()
    assert maximal.rays == ((1,),) and maximal.vertex == (2,)


def test_fan_of_three_generators():
    fan = fan_of([(3, 0), (1, 1), (0, 3)], 2)
    assert fan.rays == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert len(fan.maximal_cones()) == 3


def test_maximal_cones_match_vertices():
    rng = random.Random(500)
    ideals = [random_ideal(rng, rng.randint(1, 3), 5, 4) for _ in range(30)]
    rng = random.Random(503)
    ideals += [random_ideal(rng, n, 4, 3) for n in (4, 4, 4, 5, 5, 5)]
    for ideal in ideals:
        n = ideal.n
        poly = newton_polyhedron(ideal)
        fan = normal_fan(poly)
        assert fan.rays == tuple(sorted(f.normal for f in poly.facets))
        maxc = fan.maximal_cones()
        assert sorted(c.vertex for c in maxc) == sorted(poly.vertices)
        for c in maxc:
            tight = [f.normal for f in poly.facets if dot(c.vertex, f.normal) == f.offset]
            assert c == cone_from_rays(tight, n, c.vertex)


def test_normal_fan_rejects_a_lower_dimensional_normal_cone():
    # (1, 1) is tight on one facet only: not a vertex, so an internal error
    poly = NewtonPolyhedron(2, ((1, 1),), (Facet((1, 0), 1),))
    with pytest.raises(AssertionError, match="not full-dimensional"):
        normal_fan(poly)


def test_locate_known_points():
    fan = fan_of([(1, 0), (0, 1)], 2)
    assert fan.locate((3, 1)).rays == ((1, 0), (1, 1))
    assert fan.locate((2, 2)).rays == ((1, 1),)
    assert fan.locate((0, 0)).dim == 0
    with pytest.raises(ValueError):
        fan.locate((-1, 0))


def test_partition_of_the_orthant():
    rng = random.Random(501)
    fans = [
        fan_of([(1, 0), (0, 1)], 2),
        fan_of([(3, 0), (1, 1), (0, 3)], 2),
        fan_of([(2, 0, 1), (0, 3, 0), (1, 1, 1)], 3),
    ]
    for fan in fans:
        for _ in range(200):
            a = tuple(rng.randint(0, 20) for _ in range(fan.n))
            owners = [c for c in fan.cones if c.contains_relint(a)]
            assert len(owners) == 1, (a, [c.rays for c in owners])
            assert owners[0] == fan.locate(a)


def test_vertex_attains_vanishing_order():
    rng = random.Random(502)
    for _ in range(20):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 4)
        fan = normal_fan(newton_polyhedron(ideal))
        for cone in fan.cones:
            for r in cone.rays:
                assert dot(cone.vertex, r) == ideal.vanishing_order(r)
        # piecewise linearity of the vanishing order on each cone
        for _ in range(20):
            a = tuple(rng.randint(0, 12) for _ in range(n))
            cone = fan.locate(a)
            assert dot(cone.vertex, a) == ideal.vanishing_order(a)


def test_face_relation_is_a_partial_order():
    fan = fan_of([(3, 0), (1, 1), (0, 3)], 2)
    rel = fan.relation
    idx = range(len(fan.cones))
    assert all((i, i) in rel for i in idx)
    for i, j in rel:
        assert set(fan.cones[i].rays) <= set(fan.cones[j].rays)
        if (j, i) in rel:
            assert i == j
    for i, j in rel:
        for k in idx:
            if (j, k) in rel:
                assert (i, k) in rel
    zero = next(c for c in fan.cones if c.dim == 0)
    assert len(fan.faces_of(zero)) == 1  # only itself


def test_triangulate_simplicial_identity():
    c = cone_from_rays([(1, 0), (1, 1)], 2)
    assert triangulate(c) == [c]


def test_triangulate_square_cone():
    c = cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    cells = triangulate(c)
    assert len(cells) == 2
    for cell in cells:
        assert cell.is_simplicial and cell.dim == c.dim
        assert set(cell.rays) <= set(c.rays)
    # the two cells share a two-dimensional face
    shared = set(cells[0].rays) & set(cells[1].rays)
    assert len(shared) == 2


def _random_ray_sets(seed, n_lo, n_hi, extra, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        rays = []
        while len(rays) < rng.randint(n, n + extra):
            v = tuple(rng.randint(0, 3) for _ in range(n))
            if any(v):
                rays.append(v)
        out.append((n, rays))
    return out


def test_triangulation_covers_cone():
    ray_sets = (
        _random_ray_sets(503, 2, 3, 2, 15)
        # up to n + 3 rays in R^4
        + _random_ray_sets(504, 4, 4, 3, 12)
        # cones over a triangular prism and a cube: facets away from the
        # apex are squares, so the recursion triangulates faces of faces
        + [(4, [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
                (1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1)]),
           (4, [(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]),
           # a cone over a square, of codimension 2 in R^5
           (5, [(0, 0, 1, 1, 1), (1, 0, 1, 2, 1), (0, 1, 1, 1, 2), (1, 1, 1, 2, 2)])]
    )
    for n, rays in ray_sets:
        cone = cone_from_rays(rays, n)
        cells = triangulate(cone)
        for cell in cells:
            assert cell.is_simplicial() and cell.dim == cone.dim
            assert cell == cone_from_rays(cell.rays, n)
        points = list(orthant_points(n, 5))
        if cone.dim < n:
            # orthant points rarely lie in a lower-dimensional span
            points += [tuple(dot(c, col) for col in zip(*cone.rays))
                       for c in itertools.product(range(3), repeat=len(cone.rays))]
        for a in points:
            in_cells = [in_cone(cell.rays, a) for cell in cells]
            assert in_cells == [cell.contains(a) for cell in cells], (a, cells)
            assert any(in_cells) == cone.contains(a)


def test_face_lattice_counts_and_euler_relation():
    ray = cone_from_rays([(1, 1)], 2)
    assert len(cone_faces(ray)) == 2

    simp = cone_from_rays([(1, 0), (1, 1)], 2)
    faces = cone_faces(simp)
    assert len(faces) == 4

    square = cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    faces = cone_faces(square)
    assert len(faces) == 10
    assert sorted(f.dim for f, _ in faces) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    for f, sign in faces:
        assert sign == (-1) ** (square.dim - f.dim)
    assert sum(sign for _, sign in faces) == 0  # Euler relation, dim >= 1


def test_fan_json_shape():
    fan = fan_of([(1, 0), (0, 1)], 2)
    data = fan.to_json()
    assert set(data) == {"n", "rays", "cones", "relation"}
    assert len(data["cones"]) == len(fan.cones)
    for c in data["cones"]:
        assert set(c) == {"rays", "dim", "vertex"}
        assert all(0 <= i < len(data["rays"]) for i in c["rays"])


def test_acceptance_corpus_fans_frozen():
    # one digest over the face lattices of the acceptance corpus's 50 ideals,
    # recorded before cone_from_rays moved to one double description in Z^n
    digest = hashlib.sha256()
    for ideal in corpus():
        fan = normal_fan(newton_polyhedron(ideal))
        digest.update(json.dumps(fan.to_json(), sort_keys=True).encode() + b"\n")
    assert len(corpus()) == 50
    assert digest.hexdigest() == (
        "3818d9d6010ea5ada3abbe11e2b4bc6b5a4ae3edd7d4a59a36c127ab7c450d03")
