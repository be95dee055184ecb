"""Facet roots, log canonical threshold, and pole verification."""

import random
from fractions import Fraction

import pytest

from oracles import in_hull_plus_orthant
from monozeta.polyhedra import Facet, MonomialIdeal, newton_polyhedron
from monozeta.roots import (
    PoleWitness,
    RootCheck,
    facet_roots,
    log_canonical_threshold,
    verify_pole_roots,
)
from monozeta.zeta import ZetaResult, igusa_zeta


def poly_of(gens, n):
    return newton_polyhedron(MonomialIdeal(n, gens))


def random_ideal(rng, n, max_gens, max_exp):
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens)


def test_facet_roots_frozen():
    roots = facet_roots(poly_of([(1, 0), (0, 1)], 2))
    assert [(fr.facet.normal, fr.facet.offset, fr.root) for fr in roots] == [
        ((1, 1), 1, Fraction(-2)),
    ]

    roots = facet_roots(poly_of([(2,)], 1))
    assert [(fr.facet.normal, fr.root) for fr in roots] == [((1,), Fraction(-1, 2))]

    roots = facet_roots(poly_of([(3, 0), (1, 1), (0, 3)], 2))
    assert [(fr.facet.normal, fr.root) for fr in roots] == [
        ((1, 2), Fraction(-1)),
        ((2, 1), Fraction(-1)),
    ]

    # coordinate facet (1, 0) bounds the polyhedron but carries no root
    roots = facet_roots(poly_of([(2, 1), (0, 3)], 2))
    assert [(fr.facet.normal, fr.facet.offset, fr.root) for fr in roots] == [
        ((0, 1), 1, Fraction(-1)),
        ((1, 1), 3, Fraction(-2, 3)),
    ]


def test_log_canonical_threshold_frozen():
    assert log_canonical_threshold(poly_of([(1, 0), (0, 1)], 2)) == 2
    assert log_canonical_threshold(poly_of([(2,)], 1)) == Fraction(1, 2)
    assert log_canonical_threshold(poly_of([(3, 0), (1, 1), (0, 3)], 2)) == 1
    assert log_canonical_threshold(
        poly_of([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 3)
    ) == Fraction(13, 12)


def test_lct_matches_howald_formula():
    # Howald (Trans. AMS 353 (2001)): lct = 1/t* for the least t* with
    # (t*, ..., t*) in the Newton polyhedron, here decided by the LP oracle
    rng = random.Random(802)
    eps = Fraction(1, 10**6)
    for _ in range(30):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 5, 4)
        t = 1 / log_canonical_threshold(newton_polyhedron(ideal))
        assert in_hull_plus_orthant(ideal.generators, (t,) * n), ideal.generators
        assert not in_hull_plus_orthant(ideal.generators, (t - eps,) * n), ideal.generators


def test_candidate_real_parts_match_facet_roots():
    rng = random.Random(800)
    for _ in range(30):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 4)
        poly = newton_polyhedron(ideal)
        result = igusa_zeta(ideal)
        from_rays = {rp for rp, _ in result.candidate_poles}
        from_facets = {fr.root for fr in facet_roots(poly)}
        assert from_rays == from_facets, ideal.generators


def test_every_pole_is_verified_on_random_ideals():
    rng = random.Random(801)
    for _ in range(30):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 4)
        poly = newton_polyhedron(ideal)
        result = igusa_zeta(ideal)
        check = verify_pole_roots(result, poly)
        assert check.all_verified, ideal.generators
        assert len(check.witnesses) == len(result.poles)
        for w in check.witnesses:
            assert w.facets and all(f in poly.facets for f in w.facets)
        lct = log_canonical_threshold(poly)
        assert max(rp for rp, _ in result.poles) <= -lct
        assert all(rp >= -sum(max(g) for g in ideal.generators)
                   for rp, _ in result.poles)


def test_unmatched_pole_is_reported():
    ideal = MonomialIdeal(2, [(1, 0), (0, 1)])
    poly = newton_polyhedron(ideal)
    good = igusa_zeta(ideal)
    bogus = ZetaResult(
        n=good.n,
        zeta=good.zeta,
        divisors=good.divisors,
        candidate_poles=good.candidate_poles,
        poles=good.poles + ((Fraction(-7), 1),),
    )
    check = verify_pole_roots(bogus, poly)
    assert not check.all_verified
    bad = [w for w in check.witnesses if not w.verified]
    assert [(w.real_part, w.facets) for w in bad] == [(Fraction(-7), ())]


def test_no_root_without_positive_offset():
    with pytest.raises(ValueError, match="no facet"):
        # whole orthant: every facet passes through the origin
        from monozeta.polyhedra import NewtonPolyhedron

        poly = poly_of([(1, 0)], 2)
        trimmed = NewtonPolyhedron(
            n=2,
            vertices=poly.vertices,
            facets=tuple(f for f in poly.facets if f.offset == 0),
        )
        log_canonical_threshold(trimmed)


def test_root_check_json_shape():
    ideal = MonomialIdeal(2, [(1, 1), (2, 0)])
    check = verify_pole_roots(igusa_zeta(ideal), newton_polyhedron(ideal))
    data = check.to_json()
    assert set(data) == {"roots", "poles", "all_verified"}
    assert data["all_verified"] is True
    for w in data["poles"]:
        assert set(w) == {"real_part", "order_bound", "verified", "witness_facets"}
        assert w["verified"] and w["witness_facets"]
