"""Newton polyhedra: vertex/facet descriptions against an LP oracle."""

import random

import pytest

from oracles import in_hull_plus_orthant, min_pairing, orthant_points
from monozeta.linalg import dot, vec_gcd
from monozeta.polyhedra import (
    Facet,
    MonomialIdeal,
    NewtonPolyhedron,
    newton_polyhedron,
    polyhedron_membership,
)


def random_ideal(rng, n, max_gens, max_exp):
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens)


def test_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(0, [(1,)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(0, 0)])  # unit monomial
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, -1)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1,)])  # wrong length


def test_ideal_rejects_non_int_entries():
    # each of these used to be truncated silently, e.g. (2.5,) to x^2
    bad = [lambda: MonomialIdeal(1, [(2.5,)]), lambda: MonomialIdeal(1.0, [(2,)]),
           lambda: MonomialIdeal.from_json({"n": 1, "generators": [[1.9]]}),
           lambda: MonomialIdeal.from_json({"n": 1, "generators": [["2"]]}),
           lambda: MonomialIdeal.from_json({"n": "1", "generators": [[2]]})]
    for make in bad:
        with pytest.raises(TypeError):
            make()


def test_ideal_canonicalizes_generators():
    a = MonomialIdeal(2, [(2, 0), (0, 1), (2, 0)])
    assert a.generators == ((0, 1), (2, 0))


def test_vanishing_order():
    ideal = MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)])
    assert ideal.vanishing_order((1, 2)) == 3
    assert ideal.vanishing_order((0, 0)) == 0
    assert MonomialIdeal(2, [(1, 0), (0, 1)]).vanishing_order((2, 5)) == 2
    with pytest.raises(ValueError):
        ideal.vanishing_order((-1, 0))


def test_half_line():
    poly = newton_polyhedron(MonomialIdeal(1, [(2,)]))
    assert poly.vertices == ((2,),)
    assert poly.facets == (Facet((1,), 2),)


def test_square_free_plane():
    poly = newton_polyhedron(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert poly.vertices == ((0, 1), (1, 0))
    assert set(poly.facets) == {
        Facet((1, 0), 0),
        Facet((0, 1), 0),
        Facet((1, 1), 1),
    }


def test_three_generator_example():
    poly = newton_polyhedron(MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)]))
    assert set(poly.vertices) == {(3, 0), (1, 1), (0, 3)}
    assert set(poly.facets) == {
        Facet((1, 0), 0),
        Facet((0, 1), 0),
        Facet((1, 2), 3),
        Facet((2, 1), 3),
    }


def test_membership_known_points():
    poly = newton_polyhedron(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert polyhedron_membership(poly, (1, 1))
    assert not polyhedron_membership(poly, (0, 0))
    poly = newton_polyhedron(MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)]))
    assert polyhedron_membership(poly, (1, 1))  # boundary point


def test_membership_agrees_with_lp_oracle():
    rng = random.Random(400)
    for _ in range(15):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 6)
        poly = newton_polyhedron(ideal)
        for u in orthant_points(n, 7):
            assert polyhedron_membership(poly, u) == in_hull_plus_orthant(
                ideal.generators, u
            ), (ideal.generators, u)


def test_generators_are_members_and_vertices_are_generators():
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 6, 5)
        poly = newton_polyhedron(ideal)
        for g in ideal.generators:
            assert polyhedron_membership(poly, g)
        assert set(poly.vertices) <= set(ideal.generators)
        assert poly.vertices  # at least one vertex


def test_vertex_minimality():
    # dropping a vertex from the generators changes the hull
    rng = random.Random(402)
    for _ in range(25):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 4)
        poly = newton_polyhedron(ideal)
        for v in poly.vertices:
            rest = [g for g in ideal.generators if g != v]
            if not rest:
                continue
            assert not in_hull_plus_orthant(rest, v)


def test_facet_properties():
    rng = random.Random(403)
    for _ in range(40):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 6, 5)
        poly = newton_polyhedron(ideal)
        normals = [f.normal for f in poly.facets]
        assert len(set(normals)) == len(normals)
        for f in poly.facets:
            assert all(x >= 0 for x in f.normal)
            assert vec_gcd(f.normal) == 1
            # offset is the vanishing order along the normal direction
            assert f.offset == ideal.vanishing_order(f.normal)
            # supported with equality by at least one vertex
            assert min(dot(f.normal, v) for v in poly.vertices) == f.offset


def test_min_pairing():
    poly = newton_polyhedron(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert min_pairing(poly, (2, 5)) == 2


def test_json_roundtrip():
    ideal = MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)])
    assert MonomialIdeal.from_json(ideal.to_json()) == ideal
    poly = newton_polyhedron(ideal)
    assert NewtonPolyhedron.from_json(poly.to_json()) == poly
