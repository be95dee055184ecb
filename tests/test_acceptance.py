"""Acceptance battery: one test per criterion, shared seeded corpus.

The corpus is 50 random proper monomial ideals in up to 4 variables with at
most 6 generators and exponents at most 5, drawn from a frozen seed.  Zeta
results are computed once and reused across criteria.
"""

import random
import time
from fractions import Fraction

from oracles import cone_faces, det_int
from monozeta.conegf import (
    Grading,
    HalfOpenSimplicialCone,
    interior_lattice_gf,
    lattice_gf,
    parallelepiped_points,
)
from monozeta.fan import normal_fan
from monozeta.polyhedra import MonomialIdeal, newton_polyhedron
from monozeta.ring import BiPoly, BiRationalFunction
from monozeta.roots import verify_pole_roots
from monozeta.zeta import igusa_zeta, principal_zeta, zeta_series

CORPUS_SEED = 20260816
CORPUS_SIZE = 50
MAX_VARS = 4
MAX_GENS = 6
MAX_EXP = 5

_cache: dict = {}


def corpus() -> list[MonomialIdeal]:
    if "ideals" not in _cache:
        rng = random.Random(CORPUS_SEED)
        ideals = []
        for _ in range(CORPUS_SIZE):
            n = rng.randint(1, MAX_VARS)
            count = rng.randint(1, MAX_GENS)
            gens = []
            while len(gens) < count:
                g = tuple(rng.randint(0, MAX_EXP) for _ in range(n))
                if any(g):
                    gens.append(g)
            ideals.append(MonomialIdeal(n, gens))
        _cache["ideals"] = ideals
    return _cache["ideals"]


def corpus_results():
    if "results" not in _cache:
        _cache["results"] = [igusa_zeta(ideal) for ideal in corpus()]
    return _cache["results"]


def test_criterion_1_closed_forms():
    cases = [
        (MonomialIdeal(1, [(1,)]), BiRationalFunction(BiPoly.binomial(0, 1), [(1, 1)])),
        (MonomialIdeal(1, [(2,)]), BiRationalFunction(BiPoly.binomial(0, 1), [(2, 1)])),
        (
            MonomialIdeal(2, [(1, 0), (0, 1)]),
            BiRationalFunction(BiPoly.binomial(0, 2), [(1, 2)]),
        ),
    ]
    for ideal, expected in cases:
        start = time.monotonic()
        got = igusa_zeta(ideal).zeta
        elapsed = time.monotonic() - start
        assert got == expected, ideal.generators
        assert elapsed < 1.0, f"{ideal.generators} took {elapsed:.2f}s"

    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(10):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(0, MAX_EXP) for _ in range(n))
        if not any(u):
            continue
        start = time.monotonic()
        got = igusa_zeta(MonomialIdeal(n, [u])).zeta
        elapsed = time.monotonic() - start
        assert got == principal_zeta(u).reduced(), u
        assert elapsed < 1.0, f"{u} took {elapsed:.2f}s"
    print("[PASS] criterion 1: closed forms reproduced in canonical form")


def test_criterion_2_series_oracle_equivalence():
    start = time.monotonic()
    for ideal, result in zip(corpus(), corpus_results()):
        assert result.zeta.series(10) == zeta_series(ideal, 10), ideal.generators
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"corpus series check took {elapsed:.1f}s"
    print(f"[PASS] criterion 2: series oracle matches on {CORPUS_SIZE} ideals "
          f"in {elapsed:.1f}s")


def test_criterion_3_poles_from_ray_data():
    for ideal, result in zip(corpus(), corpus_results()):
        candidates = {rp for rp, _ in result.candidate_poles}
        for rp, _ in result.poles:
            assert rp in candidates, (ideal.generators, rp)
    print("[PASS] criterion 3: every pole real part is -(k+1)/a for a fan ray")


def test_criterion_4_poles_are_facet_roots():
    for ideal, result in zip(corpus(), corpus_results()):
        check = verify_pole_roots(result, newton_polyhedron(ideal))
        assert check.all_verified, ideal.generators
        assert len(check.witnesses) == len(result.poles)
        for witness in check.witnesses:
            assert witness.facets, (ideal.generators, witness.real_part)
    print("[PASS] criterion 4: every pole real part has a witness facet root")


def test_criterion_5_cone_level_identities():
    checked = 0
    for ideal in corpus():
        fan = normal_fan(newton_polyhedron(ideal))
        grading = Grading((1,) * ideal.n, (1,) * ideal.n)
        for cone in fan.cones:
            total = BiRationalFunction.zero()
            for face, _ in cone_faces(cone):
                total = total + interior_lattice_gf(face, grading)
            assert total.reduced() == lattice_gf(cone, grading).reduced(), (
                ideal.generators,
                cone.rays,
            )
            checked += 1

    rng = random.Random(CORPUS_SEED + 2)
    counted = 0
    while counted < 100:
        n = rng.randint(1, 4)
        rays = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n)]
        det = det_int([list(r) for r in rays])
        if det == 0:
            continue
        cell = HalfOpenSimplicialCone(rays)
        assert len(parallelepiped_points(cell)) == abs(det), rays
        counted += 1
    print(f"[PASS] criterion 5: face-sum identity on {checked} cones; "
          f"parallelepiped count equals |det| on {counted} cones")


def test_criterion_6_pole_order_bound():
    for ideal, result in zip(corpus(), corpus_results()):
        for rp, order_bound in result.poles:
            assert 1 <= order_bound <= ideal.n, (ideal.generators, rp, order_bound)
    print("[PASS] criterion 6: every pole order bound is at most n")


def test_criterion_7_normalization_at_t_one():
    for ideal in corpus():
        assert zeta_series(ideal, 8).subs_t_one() == BiPoly.one(), ideal.generators
    print("[PASS] criterion 7: series at T = 1 collapses to the orthant measure 1")


def test_criterion_8_specialization_sanity():
    result = igusa_zeta(MonomialIdeal(2, [(1, 0), (0, 1)]))
    spec = result.zeta.specialize(2)
    assert spec.num == (Fraction(3, 4),)
    assert spec.den == (Fraction(1), Fraction(-1, 4))
    # unique pole where the denominator vanishes: T = 4 = p^2, so Re(s) = -2
    assert sum(c * Fraction(4) ** i for i, c in enumerate(spec.den)) == 0
    assert 4 == 2 ** 2
    assert result.poles == ((Fraction(-2), 1),)
    print("[PASS] criterion 8: specialization at p = 2 gives (3/4)/(1 - T/4)")
